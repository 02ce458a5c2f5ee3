package causal

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/model"
	"repro/internal/spec"
	"repro/internal/vclock"
	"repro/internal/wire"
)

// TestUpdateBytesOnWire pins the update layout, one row per mutator kind at
// n = 3: an update from r1 whose seq takes three bytes and whose other
// dependency entries take two, on a seven-byte key with a sixteen-byte
// value. The MVR row is 34 B; the layout that sent every field to every
// receiver encoded it in 44 (and the register write, with a three-byte
// stamp, the same 44).
func TestUpdateBytesOnWire(t *testing.T) {
	types := spec.Types{DefaultType: spec.TypeMVR, ByObject: map[model.ObjectID]spec.ObjectType{
		"reg0042": spec.TypeRegister, "set0042": spec.TypeORSet, "ctr0042": spec.TypeCounter,
	}}
	const value = model.Value("0123456789abcdef")
	dot := model.Dot{Origin: 1, Seq: 20000}
	deps := vclock.VC{5000, dot.Seq - 1, 5000}
	for _, tc := range []struct {
		name string
		u    update
		want int
	}{
		// count 1 | dot 1+3 | key 1+7 | value 1+16 | deps 2+2
		{"mvr write", update{Obj: "mvr0042", Kind: model.OpWrite, Value: value}, 34},
		// ... | lamport 3 | ...
		{"register write", update{Obj: "reg0042", Kind: model.OpWrite, Value: value, Lamport: 30000}, 37},
		// ... | kind 1 | ...
		{"orset add", update{Obj: "set0042", Kind: model.OpAdd, Value: value}, 35},
		// ... | kind 1 | ... | removed 1 + (1+2) + (1+2)
		{"orset remove", update{Obj: "set0042", Kind: model.OpRemove, Value: value,
			Removed: []model.Dot{{Origin: 0, Seq: 4000}, {Origin: 2, Seq: 4001}}}, 42},
		// ... | delta 1 | ... in place of the value
		{"counter inc", update{Obj: "ctr0042", Kind: model.OpInc, Delta: -3}, 18},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.u.Dot, tc.u.Deps = dot, deps
			src := New(types).NewReplica(dot.Origin, 3).(*Replica)
			var w wire.Writer
			src.encodePayload(&w, []update{tc.u})
			if w.Len() != tc.want {
				t.Errorf("encodes in %d B, want %d: %x", w.Len(), tc.want, w.Bytes())
			}
			dst := New(types).NewReplica(2, 3).(*Replica)
			if err := dst.bufferPayload(w.Bytes()); err != nil || len(dst.buffer) != 1 {
				t.Fatalf("decode: %v, %d buffered", err, len(dst.buffer))
			}
			if got := dst.buffer[0]; !reflect.DeepEqual(got, tc.u) {
				t.Errorf("decoded %+v, want %+v", got, tc.u)
			}
		})
	}
}

// TestUpdateRoundTrip sends one update of each mutator kind from a replica
// that has applied another's updates, dense and sparse, and decodes it at a
// third: the receiver gets back exactly the update its origin applied — the
// dependency entry of the origin, which the wire does not carry, included.
func TestUpdateRoundTrip(t *testing.T) {
	for _, opts := range variants {
		st := NewWithOptions(eachType, opts)
		r0 := st.NewReplica(0, 3).(*Replica)
		src := st.NewReplica(1, 3).(*Replica)
		r0.Do("m", model.Write("before"))
		r0.Do("r", model.Write("before"))
		src.Receive(slices.Clone(r0.PendingMessage()))
		for _, m := range eachKind {
			src.Do(m.obj, m.op)
			sent := src.outbox[0]
			dst := st.NewReplica(2, 3).(*Replica)
			if err := dst.bufferPayload(src.PendingMessage()); err != nil || len(dst.buffer) != 1 {
				t.Fatalf("%+v %s: decode: %v, %d buffered", opts, m.op, err, len(dst.buffer))
			}
			got := dst.buffer[0]
			if !reflect.DeepEqual(got, sent) {
				t.Errorf("%+v %s: decoded %+v, want %+v", opts, m.op, got, sent)
			}
			if own := got.Deps.Get(got.Dot.Origin); own != got.Dot.Seq-1 {
				t.Errorf("%+v %s: rebuilt own dependency %d, want %d", opts, m.op, own, got.Dot.Seq-1)
			}
			src.OnSend()
		}
	}
}

// rawUpdate is a payload of one MVR write of "a" to "m" from dot (origin,
// seq), with deps as its dependency fields verbatim: dense, the entries other
// than the origin's; sparse, a count and (index, value) pairs.
func rawUpdate(origin, seq uint64, deps ...uint64) []byte {
	w := wire.NewWriter()
	w.Uvarint(1)
	w.Uvarint(origin)
	w.Uvarint(seq)
	w.String("m")
	w.String("a")
	for _, d := range deps {
		w.Uvarint(d)
	}
	return w.Bytes()
}

// TestDecodeRefusesOutOfPopulation: the decoder indexes the dependency clock
// by the update's origin, so an origin outside the population, a zero seq
// (whose own entry would be −1) and a sparse index past n are refused before
// anything indexes by them, and the state does not move.
func TestDecodeRefusesOutOfPopulation(t *testing.T) {
	for _, tc := range []struct {
		name    string
		sparse  bool
		payload []byte
	}{
		{"origin n", false, rawUpdate(3, 1, 0, 0)},
		{"origin huge", false, rawUpdate(1<<62, 1, 0, 0)},
		{"seq 0", false, rawUpdate(1, 0, 0, 0)},
		{"sparse index n", true, rawUpdate(1, 1, 1, 3, 7)},
		{"sparse own index", true, rawUpdate(1, 1, 1, 1, 7)},
	} {
		r := NewWithOptions(spec.MVRTypes(), Options{SparseDeps: tc.sparse}).NewReplica(0, 3).(*Replica)
		before := r.StateDigest()
		if err := r.bufferPayload(tc.payload); err == nil {
			t.Errorf("%s: decoded", tc.name)
		}
		r.buffer = r.buffer[:0]
		r.Receive(tc.payload)
		if r.StateDigest() != before {
			t.Errorf("%s: changed the state", tc.name)
		}
	}
	// The same updates in range decode: the refusals are the range checks.
	for _, tc := range []struct {
		sparse  bool
		payload []byte
	}{{false, rawUpdate(2, 1, 0, 0)}, {true, rawUpdate(1, 1, 1, 2, 7)}} {
		r := NewWithOptions(spec.MVRTypes(), Options{SparseDeps: tc.sparse}).NewReplica(0, 3).(*Replica)
		if err := r.bufferPayload(tc.payload); err != nil {
			t.Errorf("sparse=%v: in-range update refused: %v", tc.sparse, err)
		}
	}
}
