package gsp

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/spec"
	"repro/internal/store"
	"repro/internal/store/storetest"
)

// legacyStateDigest is the fmt-based renderer AppendStateDigest replaced:
// the reference for byte-identical output.
func legacyStateDigest(r *Replica) string {
	var b strings.Builder
	fmt.Fprintf(&b, "confirmed=%d localSeq=%d nextSeq=%d\n", r.confirmedLen, r.localSeq, r.nextSeq)
	fmt.Fprintf(&b, "log=%v\n", r.confirmedLog)
	objIDs := make([]string, 0, len(r.confirmed))
	for id := range r.confirmed {
		objIDs = append(objIDs, string(id))
	}
	sort.Strings(objIDs)
	for _, id := range objIDs {
		st := r.confirmed[model.ObjectID(id)]
		fmt.Fprintf(&b, "obj %s: %s set=%v total=%d\n", id, st.value, st.set, st.total)
	}
	fmt.Fprintf(&b, "pending=%v bufferedCommits=%d outbox=%d\n", dots(r.pending), len(r.commitBuf), len(r.outbox))
	return b.String()
}

func TestAppendStateDigestMatchesLegacyRenderer(t *testing.T) {
	types := spec.MVRTypes().With("c", spec.TypeCounter)
	st := New(types)
	const n = 3
	var reps []store.Replica
	for i := 0; i < n; i++ {
		reps = append(reps, st.NewReplica(model.ReplicaID(i), n))
	}
	op := func(rng *rand.Rand, step int) (model.ObjectID, model.Operation) {
		switch rng.Intn(3) {
		case 0:
			return "c", model.Operation{Kind: model.OpInc, Delta: int64(rng.Intn(5) - 2)}
		case 1:
			return "k0", model.Read()
		default:
			return model.ObjectID(fmt.Sprintf("k%d", rng.Intn(3))), model.Write(model.Value(fmt.Sprintf("v%d", step)))
		}
	}
	var sawPending, sawBuffered bool
	storetest.DriveRandom(15, reps, 1500, op, func(step int, sr store.Replica) {
		r := sr.(*Replica)
		sawPending = sawPending || len(r.pending) > 0
		sawBuffered = sawBuffered || len(r.commitBuf) > 0
		if got, want := r.StateDigest(), legacyStateDigest(r); got != want {
			t.Fatalf("step %d:\n got: %q\nwant: %q", step, got, want)
		}
	})
	if !sawPending || !sawBuffered {
		t.Fatalf("schedule too tame: pending %v, buffered commits %v", sawPending, sawBuffered)
	}
}
