// Package membership holds the cluster-membership state machine and the
// hash-chain history digests that let a joining node catch up by pulling
// only the ranges it is missing.
//
// The paper's replica model (§2) fixes the replica population up front;
// what this package adds is the bookkeeping that lets a real cluster
// approximate that model while nodes come and go: a View records, per
// replica ID, whether the node is currently a member (alive) or has
// departed (left), stamped with an incarnation epoch so a rejoin is
// distinguishable from a duplicate announcement; a Forest summarizes each
// origin's broadcast history as a hash chain, so two nodes can agree on the
// exact prefix they share by exchanging one hash per origin instead of
// re-shipping the log.
//
// The package is deliberately transport-free: internal/cluster encodes
// Views and chain values onto the wire and each of its shards owns a Forest
// over its update log, but nothing here imports it.
package membership

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
)

// Member is one node's membership record: its replica ID, last known
// listen address, incarnation epoch, and whether it is alive or has left.
// Records are totally ordered by (Epoch, Left): a higher epoch always
// wins, and within one epoch a departure beats liveness — so a node that
// left can only come back by announcing a strictly higher epoch, which is
// what makes a rejoin distinguishable from a delayed duplicate of the old
// incarnation's announcement.
type Member struct {
	ID    int    `json:"id"`
	Addr  string `json:"addr"`
	Epoch uint64 `json:"epoch"`
	Left  bool   `json:"left,omitempty"`
}

// supersedes reports whether record a should replace record b.
func supersedes(a, b Member) bool {
	if a.Epoch != b.Epoch {
		return a.Epoch > b.Epoch
	}
	return a.Left && !b.Left
}

// View is a node's convergent picture of the membership: one Member per
// replica ID, merged under the epoch rules above. Merge is commutative,
// associative, and idempotent (it is a join-semilattice per ID), so seeded
// gossip rounds converge every view to the same fixed point regardless of
// exchange order. Safe for concurrent use.
type View struct {
	mu      sync.Mutex
	members map[int]Member
}

// NewView returns an empty view.
func NewView() *View {
	return &View{members: make(map[int]Member)}
}

// Merge folds one record in, returning true if the view changed.
func (v *View) Merge(m Member) bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	have, ok := v.members[m.ID]
	if !ok || supersedes(m, have) {
		v.members[m.ID] = m
		return true
	}
	return false
}

// MergeAll folds a batch of records in (one gossip frame's worth),
// returning true if any changed the view.
func (v *View) MergeAll(ms []Member) bool {
	changed := false
	for _, m := range ms {
		if v.Merge(m) {
			changed = true
		}
	}
	return changed
}

// Get returns the record for id, if any.
func (v *View) Get(id int) (Member, bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	m, ok := v.members[id]
	return m, ok
}

// Members snapshots every record, sorted by ID (the canonical order every
// node renders and gossips, so views are comparable byte-for-byte).
func (v *View) Members() []Member {
	v.mu.Lock()
	out := make([]Member, 0, len(v.members))
	for _, m := range v.members {
		out = append(out, m)
	}
	v.mu.Unlock()
	slices.SortFunc(out, func(a, b Member) int { return cmp.Compare(a.ID, b.ID) })
	return out
}

// Alive snapshots the records currently considered members, sorted by ID.
func (v *View) Alive() []Member {
	all := v.Members()
	out := all[:0]
	for _, m := range all {
		if !m.Left {
			out = append(out, m)
		}
	}
	return out
}

// AliveCount returns how many records are currently considered members.
func (v *View) AliveCount() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	n := 0
	for _, m := range v.members {
		if !m.Left {
			n++
		}
	}
	return n
}

// EachAlive calls yield with each record currently considered a member, in
// no particular order and copying nothing, until yield returns false. The
// view stays locked meanwhile, so yield must not call back into it.
func (v *View) EachAlive(yield func(Member) bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, m := range v.members {
		if !m.Left && !yield(m) {
			return
		}
	}
}

// String renders the view compactly for logs: "0@:7000 1@:7001 2!left(3)".
func (v *View) String() string {
	s := ""
	for i, m := range v.Members() {
		if i > 0 {
			s += " "
		}
		if m.Left {
			s += fmt.Sprintf("r%d!left(%d)", m.ID, m.Epoch)
		} else {
			s += fmt.Sprintf("r%d@%s(%d)", m.ID, m.Addr, m.Epoch)
		}
	}
	return s
}
