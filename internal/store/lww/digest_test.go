package lww

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/store"
	"repro/internal/store/storetest"
)

// legacyStateDigest is the fmt-based renderer AppendStateDigest replaced:
// the reference for byte-identical output.
func legacyStateDigest(r *Replica) string {
	var b strings.Builder
	fmt.Fprintf(&b, "lamport=%d nextSeq=%d\n", r.lamport, r.nextSeq)
	ids := make([]string, 0, len(r.objects))
	for id := range r.objects {
		ids = append(ids, string(id))
	}
	sort.Strings(ids)
	for _, id := range ids {
		st := r.objects[model.ObjectID(id)]
		fmt.Fprintf(&b, "obj %s: %s ts=%d origin=%d set=%v\n", id, st.value, st.ts, st.origin, st.set)
	}
	dots := make([]string, 0, len(r.seen))
	for d := range r.seen {
		dots = append(dots, d.String())
	}
	sort.Strings(dots)
	fmt.Fprintf(&b, "seen=%v outbox=%d\n", dots, len(r.outbox))
	return b.String()
}

// TestAppendStateDigestMatchesLegacyRenderer runs past ten writes per
// replica, where the seen dots' text order ("(r0,10)" before "(r0,2)")
// departs from their numeric order.
func TestAppendStateDigestMatchesLegacyRenderer(t *testing.T) {
	r0, r1 := pair(t)
	op := func(rng *rand.Rand, step int) (model.ObjectID, model.Operation) {
		if rng.Intn(3) == 0 {
			return "k0", model.Read()
		}
		return model.ObjectID(fmt.Sprintf("k%d", rng.Intn(5))), model.Write(model.Value(fmt.Sprintf("v%d", step)))
	}
	storetest.DriveRandom(15, []store.Replica{r0, r1}, 400, op, func(step int, sr store.Replica) {
		r := sr.(*Replica)
		if got, want := r.StateDigest(), legacyStateDigest(r); got != want {
			t.Fatalf("step %d:\n got: %q\nwant: %q", step, got, want)
		}
	})
	if r0.nextSeq < 11 {
		t.Fatalf("only %d writes at r0: the text-order case was not reached", r0.nextSeq)
	}
}
