package causal

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/spec"
	"repro/internal/store"
	"repro/internal/store/storetest"
	"repro/internal/vclock"
)

// legacyStateDigest is the fmt-based renderer AppendStateDigest replaced,
// kept here as the reference the new renderer must match byte for byte
// (cmd/figures prints the digest's length and explore keys its visited set
// on the text).
func legacyStateDigest(r *Replica) string {
	var b strings.Builder
	fmt.Fprintf(&b, "clock=%s lamport=%d\n", r.clock, r.lamport)
	objIDs := make([]string, 0, len(r.objects))
	for id := range r.objects {
		objIDs = append(objIDs, string(id))
	}
	sort.Strings(objIDs)
	for _, id := range objIDs {
		st := r.objects[model.ObjectID(id)]
		fmt.Fprintf(&b, "obj %s (%s):", id, st.typ)
		switch st.typ {
		case spec.TypeMVR:
			vs := make([]string, 0, len(st.versions))
			for _, v := range st.versions {
				vs = append(vs, fmt.Sprintf("%s@%s", v.Value, v.Dot))
			}
			sort.Strings(vs)
			fmt.Fprintf(&b, " %v", vs)
		case spec.TypeRegister:
			fmt.Fprintf(&b, " %s ts=%d origin=%d set=%v", st.regValue, st.regTS, st.regOrigin, st.regSet)
		case spec.TypeORSet:
			vals := make([]string, 0, len(st.adds))
			for v, dots := range st.adds {
				ds := make([]model.Dot, 0, len(dots))
				for d := range dots {
					ds = append(ds, d)
				}
				sortDots(ds)
				vals = append(vals, fmt.Sprintf("%s:%v", v, ds))
			}
			sort.Strings(vals)
			fmt.Fprintf(&b, " %v", vals)
		case spec.TypeCounter:
			fmt.Fprintf(&b, " %d", st.total)
		}
		b.WriteByte('\n')
	}
	bufDots := make([]model.Dot, len(r.buffer))
	for i, u := range r.buffer {
		bufDots[i] = u.Dot
	}
	outDots := make([]model.Dot, len(r.outbox))
	for i, u := range r.outbox {
		outDots[i] = u.Dot
	}
	fmt.Fprintf(&b, "buffer=%v\noutbox=%v\n", bufDots, outDots)
	return b.String()
}

// mixedTypes serves every object type: m* MVRs (the default), g* registers,
// s* OR-sets, c* counters.
func mixedTypes() (spec.Types, []model.ObjectID) {
	types := spec.MVRTypes()
	var objs []model.ObjectID
	for i := 0; i < 3; i++ {
		for prefix, typ := range map[string]spec.ObjectType{
			"m": spec.TypeMVR, "g": spec.TypeRegister, "s": spec.TypeORSet, "c": spec.TypeCounter,
		} {
			obj := model.ObjectID(fmt.Sprintf("%s%d", prefix, i))
			types = types.With(obj, typ)
			objs = append(objs, obj)
		}
	}
	sort.Slice(objs, func(i, j int) bool { return objs[i] < objs[j] })
	return types, objs
}

func randomOp(rng *rand.Rand, typ spec.ObjectType) model.Operation {
	// Values sort differently raw and rendered ("a" < "a!" but "a!:" < "a:"),
	// so the OR-set order must come from the rendered text.
	v := model.Value([]string{"a", "a!", "a:b", "b", "zz"}[rng.Intn(5)])
	switch typ {
	case spec.TypeORSet:
		if rng.Intn(3) == 0 {
			return model.Operation{Kind: model.OpRemove, Arg: v}
		}
		return model.Operation{Kind: model.OpAdd, Arg: v}
	case spec.TypeCounter:
		return model.Operation{Kind: model.OpInc, Delta: int64(rng.Intn(7) - 3)}
	default:
		return model.Write(v)
	}
}

// TestAppendStateDigestMatchesLegacyRenderer drives three replicas through
// a seeded schedule of ops on all four object types, sends, and reordered,
// duplicated and withheld deliveries, comparing the two renderers at every
// step. The run must visit multi-sibling MVRs and non-empty buffer and
// outbox, or it proves less than it claims.
func TestAppendStateDigestMatchesLegacyRenderer(t *testing.T) {
	types, objs := mixedTypes()
	for _, opts := range variants {
		st := NewWithOptions(types, opts)
		const n = 3
		var reps []store.Replica
		for i := 0; i < n; i++ {
			reps = append(reps, st.NewReplica(model.ReplicaID(i), n))
		}
		op := func(rng *rand.Rand, _ int) (model.ObjectID, model.Operation) {
			obj := objs[rng.Intn(len(objs))]
			if rng.Intn(4) == 0 {
				return obj, model.Read()
			}
			return obj, randomOp(rng, types.Of(obj))
		}
		var sawSiblings, sawBuffer, sawOutbox bool
		storetest.DriveRandom(15, reps, 3000, op, func(step int, sr store.Replica) {
			r := sr.(*Replica)
			for _, st := range r.objects {
				sawSiblings = sawSiblings || len(st.versions) > 1
			}
			sawBuffer = sawBuffer || len(r.buffer) > 0
			sawOutbox = sawOutbox || len(r.outbox) > 0
			if got, want := r.StateDigest(), legacyStateDigest(r); got != want {
				t.Fatalf("opts %+v step %d: digest drifted from the fmt renderer\n got: %q\nwant: %q", opts, step, got, want)
			}
		})
		if !sawSiblings || !sawBuffer || !sawOutbox {
			t.Fatalf("schedule too tame: siblings %v, buffer %v, outbox %v", sawSiblings, sawBuffer, sawOutbox)
		}
	}
}

// TestApplyOrderIsTheDotsApplied: the apply log keeps each applied update's
// origin alone and ApplyOrder counts the seqs back, which is the list of dots
// apply was given — what the log used to hold — exactly when every apply
// moves its origin's clock entry up by one. Three replicas go through a
// seeded schedule of ops on all four object types with reordered, duplicated
// and withheld deliveries; after every step the dots ApplyOrder gained must
// be the step's clock movement, in order, and nothing before them may have
// changed. The run must see one delivery apply updates of two origins (a
// buffered update released by the one it waited for), or it proves little.
func TestApplyOrderIsTheDotsApplied(t *testing.T) {
	types, objs := mixedTypes()
	sawMixed := false
	for _, opts := range variants {
		st := NewWithOptions(types, opts)
		const n = 3
		var reps []store.Replica
		for i := 0; i < n; i++ {
			reps = append(reps, st.NewReplica(model.ReplicaID(i), n))
		}
		op := func(rng *rand.Rand, _ int) (model.ObjectID, model.Operation) {
			obj := objs[rng.Intn(len(objs))]
			return obj, randomOp(rng, types.Of(obj))
		}
		applied := make([][]model.Dot, n) // per replica, the dots applied so far
		clocks := make([]vclock.VC, n)    // per replica, the clock after them
		for i := range clocks {
			clocks[i] = vclock.New(n)
		}
		storetest.DriveRandom(23, reps, 3000, op, func(step int, sr store.Replica) {
			r := sr.(*Replica)
			order, want, clock := r.ApplyOrder(), applied[r.id], clocks[r.id]
			if len(order) < len(want) || !slices.Equal(order[:len(want)], want) {
				t.Fatalf("opts %+v step %d: r%d's apply order changed behind its %d applied dots", opts, step, r.id, len(want))
			}
			gained := order[len(want):]
			for _, d := range gained {
				if d.Seq != clock.Get(d.Origin)+1 {
					t.Fatalf("opts %+v step %d: r%d's apply order gained %v with its clock at %v", opts, step, r.id, d, clock)
				}
				clock.Set(d.Origin, d.Seq)
				sawMixed = sawMixed || d.Origin != gained[0].Origin
			}
			if !clock.Equal(r.clock) {
				t.Fatalf("opts %+v step %d: r%d's apply order accounts for clock %v, the replica is at %v", opts, step, r.id, clock, r.clock)
			}
			applied[r.id] = order
		})
	}
	if !sawMixed {
		t.Fatal("no delivery applied updates of two origins")
	}
}

// TestAppendStateDigestSteadyStateAllocatesNothing: with the destination
// and the replica's scratch warm, a render allocates nothing — the property
// that takes the checker's per-read garbage from O(state) to zero.
func TestAppendStateDigestSteadyStateAllocatesNothing(t *testing.T) {
	types, objs := mixedTypes()
	st := New(types)
	r0 := st.NewReplica(0, 2).(*Replica)
	r1 := st.NewReplica(1, 2).(*Replica)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		obj := objs[rng.Intn(len(objs))]
		r0.Do(obj, randomOp(rng, types.Of(obj)))
		r1.Do(obj, randomOp(rng, types.Of(obj)))
	}
	r1.Receive(storetest.Send(r0)) // concurrent writes: sibling versions at r1
	siblings := false
	for _, st := range r1.objects {
		siblings = siblings || len(st.versions) > 1
	}
	if !siblings {
		t.Fatal("expected sibling versions at r1")
	}
	buf := r1.AppendStateDigest(nil)
	if allocs := testing.AllocsPerRun(100, func() { buf = r1.AppendStateDigest(buf[:0]) }); allocs != 0 {
		t.Fatalf("steady-state render allocates %.0f times per run, want 0", allocs)
	}
}

// TestObjectMaterialisedBehindObjectIsRendered is the classic visible-read
// bug: a read that inserts the object's entry straight into the map. The
// sorted key index does not know the entry, so the renderer's length guard
// must rebuild it — the entry shows, and the checker reports the read.
func TestObjectMaterialisedBehindObjectIsRendered(t *testing.T) {
	inner := New(spec.MVRTypes()).NewReplica(0, 2).(*Replica)
	inner.Do("a", model.Write("1"))
	inner.Do("c", model.Write("2"))
	inner.OnSend()
	r := &materialisingReplica{Replica: inner}
	c := store.NewPropertyChecker(r)
	c.CheckDo("a", model.Read())
	if err := c.Err(); err != nil {
		t.Fatalf("read of an existing object: %v", err)
	}
	c.CheckDo("b", model.Read()) // back-to-back: the reused "before" path
	if len(c.Violations()) != 1 {
		t.Fatalf("materialising read: %d violations, want 1", len(c.Violations()))
	}
	if got, want := inner.StateDigest(), legacyStateDigest(inner); got != want {
		t.Fatalf("render after rebuild:\n got: %q\nwant: %q", got, want)
	}
	if !strings.Contains(inner.StateDigest(), "obj a (mvr)") || !strings.Contains(inner.StateDigest(), "obj b (mvr): []\nobj c") {
		t.Fatalf("entry missing or out of order: %q", inner.StateDigest())
	}
	// The index is whole again: later inserts through object() keep order.
	inner.Do("aa", model.Write("3"))
	if got, want := inner.StateDigest(), legacyStateDigest(inner); got != want {
		t.Fatalf("render after a later insert:\n got: %q\nwant: %q", got, want)
	}
}

// materialisingReplica lazily creates the entry of every object it reads,
// bypassing object().
type materialisingReplica struct{ *Replica }

func (m *materialisingReplica) Do(obj model.ObjectID, op model.Operation) model.Response {
	if op.Kind == model.OpRead {
		if _, ok := m.objects[obj]; !ok {
			m.objects[obj] = &objState{typ: m.types.Of(obj)}
		}
	}
	return m.Replica.Do(obj, op)
}
