// Package gsp implements a Global Sequence Protocol store (Burckhardt,
// Leijen, Protzenko, Fähndrich — ECOOP'15, the paper's [11]): a sequencer
// replica assigns every write a position in one global sequence, and every
// replica applies writes in exactly that order.
//
// The store probes the paper's open question about the op-driven-messages
// assumption (§5.3, §7). GSP deliberately VIOLATES Definition 15: the
// sequencer generates a commit message in response to a received proposal,
// not in response to a client operation. In exchange it guarantees a
// property no write-propagating store can have — all replicas observe
// writes in one agreed total order (confirmed logs are prefixes of each
// other), so concurrency is never exposed and the store satisfies a
// consistency model stronger than OCC on its histories. Reads remain
// invisible and operations remain highly available: a write is acknowledged
// immediately and visible locally (read-your-writes via the pending
// overlay) before confirmation.
//
// The liveness trade is the one the paper describes: GSP is eventually
// consistent only while the sequencer remains reachable — weaker fault
// tolerance than write-propagating gossip, which is exactly why Theorem 6's
// scope excludes it.
//
// All objects behave as registers ordered by the global sequence (the
// protocol's defining choice); MVR-typed objects therefore return a single
// value — GSP is a "hiding" store, but a globally consistent one.
package gsp

import (
	"fmt"
	"slices"
	"strconv"

	"repro/internal/model"
	"repro/internal/spec"
	"repro/internal/store"
	"repro/internal/wire"
)

// SequencerID is the replica that orders writes.
const SequencerID model.ReplicaID = 0

// Store is the GSP store factory.
type Store struct {
	types spec.Types
}

var _ store.Store = (*Store)(nil)

// New returns a GSP store. Object types are retained for auditing; the
// protocol serves register semantics in global-sequence order.
func New(types spec.Types) *Store { return &Store{types: types} }

// Name implements store.Store.
func (s *Store) Name() string { return "gsp" }

// Types implements store.Store.
func (s *Store) Types() spec.Types { return s.types }

// NewReplica implements store.Store.
func (s *Store) NewReplica(id model.ReplicaID, n int) store.Replica {
	return &Replica{
		id:        id,
		types:     s.types,
		confirmed: make(map[model.ObjectID]confirmedState),
		commitBuf: make(map[uint64]updateRec),
		seenProps: make(map[model.Dot]bool),
	}
}

// updateRec is one write traveling as a proposal or a commit.
type updateRec struct {
	Origin   model.ReplicaID
	LocalSeq uint64 // the proposal dot: origin's LocalSeq-th write
	Obj      model.ObjectID
	Kind     model.OpKind
	Value    model.Value
	Delta    int64
}

func (u updateRec) dot() model.Dot { return model.Dot{Origin: u.Origin, Seq: u.LocalSeq} }

// confirmedState is the register/counter state of one object under the
// confirmed prefix.
type confirmedState struct {
	value model.Value
	set   bool
	total int64
}

// wire record kinds.
const (
	recPropose = 1
	recCommit  = 2
)

type outRec struct {
	kind      int
	globalSeq uint64 // for commits
	u         updateRec
}

// Replica is one GSP replica. Replica SequencerID is the sequencer.
type Replica struct {
	id    model.ReplicaID
	types spec.Types

	// Confirmed prefix: applied commits in global order.
	confirmedLen  uint64
	confirmedLog  []model.Dot
	confirmed     map[model.ObjectID]confirmedState
	confirmedDots map[model.Dot]bool

	// Out-of-order commits waiting for their predecessors.
	commitBuf map[uint64]updateRec

	// Own unconfirmed writes, overlaid on reads (read-your-writes).
	pending  []updateRec
	localSeq uint64

	// Sequencer-only: proposals already sequenced (deduplication) and the
	// next global sequence number.
	seenProps map[model.Dot]bool
	nextSeq   uint64

	outbox []outRec
	msg    wire.Writer // the encoding PendingMessage lends out
}

var (
	_ store.Replica     = (*Replica)(nil)
	_ store.VisReporter = (*Replica)(nil)
	_ store.DotReporter = (*Replica)(nil)
)

// ID implements store.Replica.
func (r *Replica) ID() model.ReplicaID { return r.id }

// isSequencer reports whether this replica orders writes.
func (r *Replica) isSequencer() bool { return r.id == SequencerID }

// Log returns the confirmed global order as proposal dots — identical (as a
// prefix relation) across all replicas at all times, and identical outright
// after quiescence. This is the property no write-propagating store
// provides.
func (r *Replica) Log() []model.Dot {
	out := make([]model.Dot, len(r.confirmedLog))
	copy(out, r.confirmedLog)
	return out
}

// Sees implements store.VisReporter: confirmed writes plus own pending ones.
func (r *Replica) Sees(d model.Dot) bool {
	if r.confirmedDots[d] {
		return true
	}
	for _, u := range r.pending {
		if u.dot() == d {
			return true
		}
	}
	return false
}

// LastDot implements store.DotReporter.
func (r *Replica) LastDot() (model.Dot, bool) {
	if r.localSeq == 0 {
		return model.Dot{}, false
	}
	return model.Dot{Origin: r.id, Seq: r.localSeq}, true
}

// Do implements store.Replica.
func (r *Replica) Do(obj model.ObjectID, op model.Operation) model.Response {
	switch op.Kind {
	case model.OpRead:
		return r.read(obj)
	case model.OpWrite, model.OpInc:
		r.localSeq++
		u := updateRec{Origin: r.id, LocalSeq: r.localSeq, Obj: obj, Kind: op.Kind, Value: op.Arg, Delta: op.Delta}
		if r.isSequencer() {
			// The sequencer's own writes commit immediately.
			r.seenProps[u.dot()] = true
			r.commit(r.nextSeq, u)
			r.outbox = append(r.outbox, outRec{kind: recCommit, globalSeq: r.nextSeq, u: u})
			r.nextSeq++
		} else {
			r.pending = append(r.pending, u)
			r.outbox = append(r.outbox, outRec{kind: recPropose, u: u})
		}
		return model.OKResponse()
	default:
		return model.Response{} // GSP serves registers and counters only
	}
}

// read evaluates the confirmed state with the replica's own pending writes
// overlaid in issue order.
func (r *Replica) read(obj model.ObjectID) model.Response {
	st := r.confirmed[obj]
	value, set, total := st.value, st.set, st.total
	for _, u := range r.pending {
		if u.Obj != obj {
			continue
		}
		switch u.Kind {
		case model.OpWrite:
			value, set = u.Value, true
		case model.OpInc:
			total += u.Delta
		}
	}
	if r.types.Of(obj) == spec.TypeCounter {
		return model.CountResponse(total)
	}
	if !set {
		return model.ReadResponse(nil)
	}
	return model.ReadResponse([]model.Value{value})
}

// commit applies one update at its global position. Callers guarantee
// in-order application.
func (r *Replica) commit(globalSeq uint64, u updateRec) {
	if globalSeq != r.confirmedLen {
		panic(fmt.Sprintf("gsp: commit %d applied at prefix length %d", globalSeq, r.confirmedLen))
	}
	r.confirmedLen++
	r.confirmedLog = append(r.confirmedLog, u.dot())
	if r.confirmedDots == nil {
		r.confirmedDots = make(map[model.Dot]bool)
	}
	r.confirmedDots[u.dot()] = true
	st := r.confirmed[u.Obj]
	switch u.Kind {
	case model.OpWrite:
		st.value, st.set = u.Value, true
	case model.OpInc:
		st.total += u.Delta
	}
	r.confirmed[u.Obj] = st
	// Confirmed own writes leave the pending overlay.
	if u.Origin == r.id {
		kept := r.pending[:0]
		for _, p := range r.pending {
			if p.dot() != u.dot() {
				kept = append(kept, p)
			}
		}
		r.pending = kept
	}
}

// drainCommits applies buffered commits that became in-order.
func (r *Replica) drainCommits() {
	for {
		seq := r.confirmedLen
		u, ok := r.commitBuf[seq]
		if !ok {
			return
		}
		delete(r.commitBuf, seq)
		r.commit(seq, u)
	}
}

// Receive implements store.Replica. The sequencer turns proposals into
// commits — creating a pending message in response to a receive, the
// deliberate Definition 15 violation; every replica applies commits in
// global order, buffering gaps.
func (r *Replica) Receive(payload []byte) {
	recs, err := decodePayload(payload)
	if err != nil {
		return
	}
	for _, rec := range recs {
		switch rec.kind {
		case recPropose:
			if !r.isSequencer() || r.seenProps[rec.u.dot()] {
				continue
			}
			r.seenProps[rec.u.dot()] = true
			r.commit(r.nextSeq, rec.u)
			r.outbox = append(r.outbox, outRec{kind: recCommit, globalSeq: r.nextSeq, u: rec.u})
			r.nextSeq++
		case recCommit:
			if rec.globalSeq < r.confirmedLen || r.confirmedDots[rec.u.dot()] {
				continue // duplicate
			}
			if rec.globalSeq == r.confirmedLen {
				r.commit(rec.globalSeq, rec.u)
				r.drainCommits()
			} else {
				r.commitBuf[rec.globalSeq] = rec.u
			}
		}
	}
}

// PendingMessage implements store.Replica: the outbox encoding, or nil,
// lent from the replica's own buffer.
func (r *Replica) PendingMessage() []byte {
	if len(r.outbox) == 0 {
		return nil
	}
	w := &r.msg
	w.Reset()
	w.Uvarint(uint64(len(r.outbox)))
	for _, rec := range r.outbox {
		w.Uvarint(uint64(rec.kind))
		w.Uvarint(rec.globalSeq)
		w.Uvarint(uint64(rec.u.Origin))
		w.Uvarint(rec.u.LocalSeq)
		w.String(string(rec.u.Obj))
		w.Uvarint(uint64(rec.u.Kind))
		w.String(string(rec.u.Value))
		w.Varint(rec.u.Delta)
	}
	return w.Bytes()
}

// OnSend implements store.Replica.
func (r *Replica) OnSend() { r.outbox = nil }

// minRecBytes is the shortest encoding of one record: a byte for each of
// its eight fields.
const minRecBytes = 8

func decodePayload(payload []byte) ([]outRec, error) {
	rd := wire.NewReader(payload)
	count := rd.Uvarint()
	// The count is the peer's: nothing is sized from it beyond what the
	// payload's bytes can hold.
	if count > uint64(len(payload)/minRecBytes) {
		return nil, fmt.Errorf("gsp: implausible record count %d", count)
	}
	recs := make([]outRec, 0, count)
	for i := uint64(0); i < count; i++ {
		var rec outRec
		rec.kind = int(rd.Uvarint())
		rec.globalSeq = rd.Uvarint()
		rec.u.Origin = model.ReplicaID(rd.Uvarint())
		rec.u.LocalSeq = rd.Uvarint()
		rec.u.Obj = model.ObjectID(rd.String())
		rec.u.Kind = model.OpKind(rd.Uvarint())
		rec.u.Value = model.Value(rd.String())
		rec.u.Delta = rd.Varint()
		if err := rd.Err(); err != nil {
			return nil, err
		}
		recs = append(recs, rec)
	}
	return recs, nil
}

// StateDigest implements store.Replica.
func (r *Replica) StateDigest() string { return string(r.AppendStateDigest(nil)) }

// AppendStateDigest implements store.Replica.
func (r *Replica) AppendStateDigest(dst []byte) []byte {
	dst = append(dst, "confirmed="...)
	dst = strconv.AppendUint(dst, r.confirmedLen, 10)
	dst = append(dst, " localSeq="...)
	dst = strconv.AppendUint(dst, r.localSeq, 10)
	dst = append(dst, " nextSeq="...)
	dst = strconv.AppendUint(dst, r.nextSeq, 10)
	dst = append(dst, "\nlog="...)
	dst = model.AppendDots(dst, r.confirmedLog)
	dst = append(dst, '\n')
	ids := make([]model.ObjectID, 0, len(r.confirmed))
	for id := range r.confirmed {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		st := r.confirmed[id]
		dst = append(dst, "obj "...)
		dst = append(dst, id...)
		dst = append(dst, ": "...)
		dst = append(dst, st.value...)
		dst = append(dst, " set="...)
		dst = strconv.AppendBool(dst, st.set)
		dst = append(dst, " total="...)
		dst = strconv.AppendInt(dst, st.total, 10)
		dst = append(dst, '\n')
	}
	dst = append(dst, "pending="...)
	dst = model.AppendDots(dst, dots(r.pending))
	dst = append(dst, " bufferedCommits="...)
	dst = strconv.AppendInt(dst, int64(len(r.commitBuf)), 10)
	dst = append(dst, " outbox="...)
	dst = strconv.AppendInt(dst, int64(len(r.outbox)), 10)
	return append(dst, '\n')
}

func dots(us []updateRec) []model.Dot {
	out := make([]model.Dot, len(us))
	for i, u := range us {
		out[i] = u.dot()
	}
	return out
}
