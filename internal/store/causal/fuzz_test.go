package causal

import (
	"slices"
	"testing"

	"repro/internal/model"
	"repro/internal/spec"
)

// eachType serves one object of each type: "m" (the default) an MVR, "r"
// a register, "s" an ORset and "c" a counter.
var eachType = spec.Types{DefaultType: spec.TypeMVR, ByObject: map[model.ObjectID]spec.ObjectType{
	"r": spec.TypeRegister, "s": spec.TypeORSet, "c": spec.TypeCounter,
}}

// eachKind is one mutator of each kind, on eachType's objects.
var eachKind = []struct {
	obj model.ObjectID
	op  model.Operation
}{
	{"m", model.Write("a")},
	{"r", model.Write("b")},
	{"s", model.Add("e")},
	{"s", model.Remove("e")},
	{"c", model.Inc(-3)},
}

// FuzzReceive feeds arbitrary bytes to a dense and a sparse replica of three
// serving every object type: Receive must never panic, and a payload that
// fails to decode must leave the state untouched.
func FuzzReceive(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	// A genuine payload as a seed.
	src := New(spec.MVRTypes()).NewReplica(0, 3)
	src.Do("x", model.Write("a"))
	f.Add(slices.Clone(src.PendingMessage()))
	// Counts the peer chose, as large as the payload's length lets them be.
	f.Add(hostileCount(4096, 4096-16))
	f.Add(hostileCount(4096, uint64(4096/len(minimalUpdate()))-1))
	// A genuine payload of each mutator kind, dense and sparse.
	for _, opts := range variants {
		src := NewWithOptions(eachType, opts).NewReplica(0, 3)
		for _, m := range eachKind {
			src.Do(m.obj, m.op)
			f.Add(slices.Clone(src.PendingMessage()))
			src.OnSend()
		}
	}
	// Updates the decoder must refuse before indexing by them: an origin
	// outside the population, a zero seq, and a sparse index past n.
	f.Add(rawUpdate(3, 1, 0, 0))
	f.Add(rawUpdate(1, 0, 0, 0))
	f.Add(rawUpdate(1, 1, 1, 5, 1)) // sparse: one entry, at index 5
	f.Fuzz(func(t *testing.T, payload []byte) {
		for _, opts := range variants {
			st := NewWithOptions(eachType, opts)
			r := st.NewReplica(1, 3)
			before := r.StateDigest()
			r.Receive(payload)
			if st.NewReplica(1, 3).(*Replica).bufferPayload(payload) != nil && r.StateDigest() != before {
				t.Fatalf("%+v: a payload that does not decode changed the state", opts)
			}
			// State must remain serviceable.
			for _, m := range eachKind {
				_ = r.Do(m.obj, model.Read())
			}
			_ = r.StateDigest()
		}
	})
}
