// Package kbuffer implements the §5.3 counterexample data store: a causal
// store whose reads are NOT invisible. A received message is withheld from
// the underlying causal state until K subsequent local read operations have
// been applied; each read decrements the countdowns (a state change, so
// Definition 16 fails by design).
//
// The store remains eventually consistent and has op-driven messages, yet it
// never produces an execution in which a replica writes and another replica
// immediately reads the value after one message delivery — an execution
// every invisible-reads store admits. It therefore satisfies a consistency
// model STRICTLY stronger than causal consistency (and OCC), demonstrating
// that the invisible-reads assumption of Theorem 6 cannot be dropped.
package kbuffer

import (
	"fmt"
	"strconv"

	"repro/internal/model"
	"repro/internal/spec"
	"repro/internal/store"
	"repro/internal/store/causal"
)

// Store is the K-buffer store factory.
type Store struct {
	inner *causal.Store
	k     int
}

var _ store.Store = (*Store)(nil)

// New returns a K-buffer store over the given object types: received
// messages are exposed only after k local reads.
func New(types spec.Types, k int) *Store {
	if k < 1 {
		k = 1
	}
	return &Store{inner: causal.New(types), k: k}
}

// Name implements store.Store.
func (s *Store) Name() string { return fmt.Sprintf("kbuffer(k=%d)", s.k) }

// Types implements store.Store.
func (s *Store) Types() spec.Types { return s.inner.Types() }

// NewReplica implements store.Store.
func (s *Store) NewReplica(id model.ReplicaID, n int) store.Replica {
	inner, ok := s.inner.NewReplica(id, n).(*causal.Replica)
	if !ok {
		panic("kbuffer: causal store returned unexpected replica type")
	}
	return &Replica{inner: inner, k: s.k}
}

type withheld struct {
	payload   []byte
	countdown int
}

// Replica wraps a causal replica, withholding received payloads until K
// local reads have elapsed.
type Replica struct {
	inner *causal.Replica
	k     int
	held  []withheld
}

var (
	_ store.Replica     = (*Replica)(nil)
	_ store.VisReporter = (*Replica)(nil)
	_ store.DotReporter = (*Replica)(nil)
)

// ID implements store.Replica.
func (r *Replica) ID() model.ReplicaID { return r.inner.ID() }

// Sees implements store.VisReporter: visibility is granted only on exposure.
func (r *Replica) Sees(d model.Dot) bool { return r.inner.Sees(d) }

// LastDot implements store.DotReporter.
func (r *Replica) LastDot() (model.Dot, bool) { return r.inner.LastDot() }

// Do implements store.Replica. A read first ages the withheld messages —
// the state change that makes reads visible — exposing any whose countdown
// has elapsed, then evaluates against the inner state.
func (r *Replica) Do(obj model.ObjectID, op model.Operation) model.Response {
	if op.Kind == model.OpRead {
		kept := r.held[:0]
		for _, h := range r.held {
			h.countdown--
			if h.countdown <= 0 {
				r.inner.Receive(h.payload)
			} else {
				kept = append(kept, h)
			}
		}
		r.held = kept
	}
	return r.inner.Do(obj, op)
}

// PendingMessage implements store.Replica.
func (r *Replica) PendingMessage() []byte { return r.inner.PendingMessage() }

// OnSend implements store.Replica.
func (r *Replica) OnSend() { r.inner.OnSend() }

// Receive implements store.Replica: the payload is withheld for K reads.
// It is the replica's to keep (see store.Replica.Receive), so it is held
// as given.
func (r *Replica) Receive(payload []byte) {
	r.held = append(r.held, withheld{payload: payload, countdown: r.k})
}

// HeldMessages returns the number of withheld payloads (for tests).
func (r *Replica) HeldMessages() int { return len(r.held) }

// StateDigest implements store.Replica.
func (r *Replica) StateDigest() string { return string(r.AppendStateDigest(nil)) }

// AppendStateDigest implements store.Replica: inner state plus the withheld
// queue, whose countdowns change on every read.
func (r *Replica) AppendStateDigest(dst []byte) []byte {
	dst = r.inner.AppendStateDigest(dst)
	for i, h := range r.held {
		dst = append(dst, "held["...)
		dst = strconv.AppendInt(dst, int64(i), 10)
		dst = append(dst, "]="...)
		dst = strconv.AppendInt(dst, int64(len(h.payload)), 10)
		dst = append(dst, " bytes countdown="...)
		dst = strconv.AppendInt(dst, int64(h.countdown), 10)
		dst = append(dst, '\n')
	}
	return dst
}
