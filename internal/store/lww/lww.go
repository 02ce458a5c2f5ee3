// Package lww implements the §3.4 strawman data store: a store that totally
// orders concurrent writes by Lamport timestamp and exposes only the winner,
// "in effect, implementing a read/write register instead of an MVR" (Perrin
// et al.'s argument that replicated objects can be given sequential
// specifications).
//
// The store is eventually consistent and write-propagating (invisible reads,
// op-driven messages), and with a single object its clients indeed cannot
// detect the hidden concurrency. The paper's Figure 2 — reproduced in this
// repository as experiment E2 — shows that with multiple objects and causal
// consistency the hiding becomes observable: this store's client histories
// on the Figure 2 schedule admit no causally consistent MVR abstract
// execution.
//
// Updates apply immediately on receipt (no causal buffering), so the store
// is available and convergent but not causally consistent.
package lww

import (
	"slices"
	"strconv"

	"repro/internal/model"
	"repro/internal/seglog"
	"repro/internal/spec"
	"repro/internal/store"
	"repro/internal/wire"
)

// Store is the last-writer-wins store factory.
type Store struct {
	types spec.Types
}

var _ store.Store = (*Store)(nil)

// New returns an LWW store. The declared object types are retained for
// auditing, but every object behaves as a register: that mismatch is the
// point of the §3.4 analysis.
func New(types spec.Types) *Store { return &Store{types: types} }

// Name implements store.Store.
func (s *Store) Name() string { return "lww" }

// Types implements store.Store.
func (s *Store) Types() spec.Types { return s.types }

// NewReplica implements store.Store.
func (s *Store) NewReplica(id model.ReplicaID, n int) store.Replica {
	return &Replica{
		id:      id,
		objects: make(map[model.ObjectID]*regState),
		seen:    make(map[model.Dot]bool),
	}
}

type regState struct {
	value  model.Value
	ts     uint64
	origin model.ReplicaID
	set    bool
}

type pendingWrite struct {
	Dot   model.Dot
	TS    uint64
	Obj   model.ObjectID
	Value model.Value
}

// Replica is one LWW replica.
type Replica struct {
	id      model.ReplicaID
	lamport uint64
	nextSeq uint64
	objects map[model.ObjectID]*regState
	seen    map[model.Dot]bool // applied update dots, for deduplication and visibility
	outbox  []pendingWrite
	msg     wire.Writer // the encoding PendingMessage lends out

	// applyLog is observational metadata (excluded from the state digest):
	// the local application order, used by the total-order comparison
	// experiment. A segment log, as in store/causal: it grows with the
	// replica's lifetime and must not be re-copied as it does.
	applyLog seglog.Log[model.Dot]
}

var (
	_ store.Replica     = (*Replica)(nil)
	_ store.VisReporter = (*Replica)(nil)
	_ store.DotReporter = (*Replica)(nil)
)

// ID implements store.Replica.
func (r *Replica) ID() model.ReplicaID { return r.id }

// Sees implements store.VisReporter.
func (r *Replica) Sees(d model.Dot) bool { return r.seen[d] }

// LastDot implements store.DotReporter.
func (r *Replica) LastDot() (model.Dot, bool) {
	if r.nextSeq == 0 {
		return model.Dot{}, false
	}
	return model.Dot{Origin: r.id, Seq: r.nextSeq}, true
}

// Do implements store.Replica.
func (r *Replica) Do(obj model.ObjectID, op model.Operation) model.Response {
	st, ok := r.objects[obj]
	switch op.Kind {
	case model.OpRead:
		if !ok || !st.set {
			return model.ReadResponse(nil)
		}
		return model.ReadResponse([]model.Value{st.value})
	case model.OpWrite:
		r.lamport++
		r.nextSeq++
		w := pendingWrite{
			Dot:   model.Dot{Origin: r.id, Seq: r.nextSeq},
			TS:    r.lamport,
			Obj:   obj,
			Value: op.Arg,
		}
		r.applyWrite(w)
		r.outbox = append(r.outbox, w)
		return model.OKResponse()
	default:
		return model.Response{}
	}
}

func (r *Replica) applyWrite(w pendingWrite) {
	if w.TS > r.lamport {
		r.lamport = w.TS
	}
	r.applyLog.Append(w.Dot)
	r.seen[w.Dot] = true
	st, ok := r.objects[w.Obj]
	if !ok {
		st = &regState{}
		r.objects[w.Obj] = st
	}
	if !st.set || w.TS > st.ts || (w.TS == st.ts && w.Dot.Origin > st.origin) {
		st.value, st.ts, st.origin, st.set = w.Value, w.TS, w.Dot.Origin, true
	}
}

// ApplyOrder returns the order in which this replica applied writes —
// generally divergent across replicas, since the LWW store applies eagerly
// on receipt.
func (r *Replica) ApplyOrder() []model.Dot { return r.applyLog.AppendTo(nil) }

// PendingMessage implements store.Replica: the outbox encoding, or nil,
// lent from the replica's own buffer.
func (r *Replica) PendingMessage() []byte {
	if len(r.outbox) == 0 {
		return nil
	}
	w := &r.msg
	w.Reset()
	w.Uvarint(uint64(len(r.outbox)))
	for _, u := range r.outbox {
		w.Dot(u.Dot)
		w.Uvarint(u.TS)
		w.String(string(u.Obj))
		w.String(string(u.Value))
	}
	return w.Bytes()
}

// OnSend implements store.Replica.
func (r *Replica) OnSend() { r.outbox = nil }

// Receive implements store.Replica: writes apply immediately; duplicates are
// dropped by dot.
func (r *Replica) Receive(payload []byte) {
	rd := wire.NewReader(payload)
	count := rd.Uvarint()
	if count > uint64(len(payload)) {
		return
	}
	for i := uint64(0); i < count; i++ {
		var u pendingWrite
		u.Dot = rd.Dot()
		u.TS = rd.Uvarint()
		u.Obj = model.ObjectID(rd.String())
		u.Value = model.Value(rd.String())
		if rd.Err() != nil {
			return
		}
		if !r.seen[u.Dot] {
			r.applyWrite(u)
		}
	}
}

// StateDigest implements store.Replica.
func (r *Replica) StateDigest() string { return string(r.AppendStateDigest(nil)) }

// AppendStateDigest implements store.Replica.
func (r *Replica) AppendStateDigest(dst []byte) []byte {
	dst = append(dst, "lamport="...)
	dst = strconv.AppendUint(dst, r.lamport, 10)
	dst = append(dst, " nextSeq="...)
	dst = strconv.AppendUint(dst, r.nextSeq, 10)
	dst = append(dst, '\n')
	ids := make([]model.ObjectID, 0, len(r.objects))
	for id := range r.objects {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		st := r.objects[id]
		dst = append(dst, "obj "...)
		dst = append(dst, id...)
		dst = append(dst, ": "...)
		dst = append(dst, st.value...)
		dst = append(dst, " ts="...)
		dst = strconv.AppendUint(dst, st.ts, 10)
		dst = append(dst, " origin="...)
		dst = strconv.AppendInt(dst, int64(st.origin), 10)
		dst = append(dst, " set="...)
		dst = strconv.AppendBool(dst, st.set)
		dst = append(dst, '\n')
	}
	// The seen dots are ordered as rendered text ("(r0,10)" before
	// "(r0,2)"), which is what the digest has always printed.
	var seen store.SortedList
	for d := range r.seen {
		seen.Close(d.AppendTo(seen.Open()))
	}
	dst = append(dst, "seen="...)
	dst = seen.AppendTo(dst)
	dst = append(dst, " outbox="...)
	dst = strconv.AppendInt(dst, int64(len(r.outbox)), 10)
	return append(dst, '\n')
}
