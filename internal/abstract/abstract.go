// Package abstract implements abstract executions (Definition 4): the
// client-observable half of the replicated data store model. An abstract
// execution is a pair (H, vis) of a global sequence of do events and an
// acyclic visibility relation, decoupled from the message-level
// happens-before relation of concrete executions.
//
// The package provides prefixes and prefix-closure (Definition 5),
// equivalence (per-replica history equality), operation contexts
// (Definition 7), and compliance of a concrete execution with an abstract
// one (Definition 9).
package abstract

import (
	"fmt"

	"repro/internal/execution"
	"repro/internal/model"
)

// Execution is an abstract execution A = (H, vis). H holds do events in
// their global order (H[i].Seq == i); vis is kept as, for each event, the
// bitset of its visibility predecessors.
type Execution struct {
	H   []model.Event
	vis []bitset
}

type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i int)      { b[i/64] |= 1 << (uint(i) % 64) }
func (b bitset) get(i int) bool { return b[i/64]&(1<<(uint(i)%64)) != 0 }
func (b bitset) or(o bitset) {
	for i := range o {
		b[i] |= o[i]
	}
}
func (b bitset) clone() bitset {
	c := make(bitset, len(b))
	copy(c, b)
	return c
}

// New returns an empty abstract execution.
func New() *Execution { return &Execution{} }

// FromEvents builds an abstract execution from a sequence of do events,
// renumbering them 0..len-1, with an empty visibility relation.
func FromEvents(events []model.Event) *Execution {
	a := New()
	for _, e := range events {
		a.Append(e)
	}
	return a
}

// Derive builds the abstract execution a recorded run complies with
// (Definition 9) from what each do event saw. H is h, the run's do events in
// their global order; mutator[i] says e_i minted an update dot; the engine
// that recorded the run answers two questions about a pair i < j from its
// own records. e_i -vis-> e_j iff one of:
//
//   - session order: same replica, i before j;
//   - e_i is a mutator and sees(i, j): its dot is inside e_j's past, the set
//     of updates visible at R(e_j) when e_j executed;
//   - e_i is not one and within(i, j): e_i's past is contained in e_j's.
//     within must be false whenever either event reported no past at all.
//
// The read rule matters: reads leave no trace in store state, but the
// abstract execution must still relate them to later events or visibility
// loses transitivity (a read session-precedes a local write that then
// propagates) and eventual consistency would be vacuously violated by
// never-visible reads. Containment of causal pasts is the strongest
// visibility a complying execution can claim for a read, and for a causally
// consistent store it keeps the derived relation transitive. Read-source
// edges never affect specification evaluation, so correctness is untouched.
// An absent report is not an empty one: "saw nothing ⊆ anything" edges out
// of a store that reports no visibility would fabricate visibility it never
// claimed — enough to mask a real violation behind a well-connected read.
func Derive(h []model.Event, mutator []bool, sees, within func(i, j int) bool) *Execution {
	a := FromEvents(h)
	for j := range h {
		for i := 0; i < j; i++ {
			switch {
			case h[i].Replica == h[j].Replica:
				a.AddVis(i, j)
			case mutator[i]:
				if sees(i, j) {
					a.AddVis(i, j)
				}
			default:
				if within(i, j) {
					a.AddVis(i, j)
				}
			}
		}
	}
	return a
}

// Len returns |H|.
func (a *Execution) Len() int { return len(a.H) }

// Append adds a do event at the end of H (renumbering its Seq) and returns
// its index.
func (a *Execution) Append(e model.Event) int {
	if !e.IsDo() {
		panic("abstract: only do events appear in abstract executions")
	}
	e.Seq = len(a.H)
	a.H = append(a.H, e)
	a.vis = append(a.vis, nil)
	return e.Seq
}

// SetRval overwrites the response of event j. Generators use it to assign
// the specification-determined response after the event's visibility edges
// are in place.
func (a *Execution) SetRval(j int, rval model.Response) { a.H[j].Rval = rval }

// AddVis records e_i -vis-> e_j. It requires i < j (condition (3) of
// Definition 4: visibility respects the order of H), which also keeps the
// relation acyclic by construction.
func (a *Execution) AddVis(i, j int) {
	if i >= j {
		panic(fmt.Sprintf("abstract: vis edge %d->%d violates H order", i, j))
	}
	if a.vis[j] == nil {
		a.vis[j] = newBitset(len(a.H))
	} else if len(a.vis[j])*64 < j+1 {
		grown := newBitset(len(a.H))
		copy(grown, a.vis[j])
		a.vis[j] = grown
	}
	a.vis[j].set(i)
}

// Vis reports e_i -vis-> e_j.
func (a *Execution) Vis(i, j int) bool {
	if i < 0 || j < 0 || j >= len(a.H) || i >= j {
		return false
	}
	if a.vis[j] == nil {
		return false
	}
	if i/64 >= len(a.vis[j]) {
		return false
	}
	return a.vis[j].get(i)
}

// VisPreds returns the indices of all visibility predecessors of e_j, in H
// order.
func (a *Execution) VisPreds(j int) []int {
	var out []int
	for i := 0; i < j; i++ {
		if a.Vis(i, j) {
			out = append(out, i)
		}
	}
	return out
}

// Validate checks the conditions of Definition 4:
//
//	(1) session order: if e_i precedes e_j in H at the same replica, then
//	    e_i -vis-> e_j;
//	(2) session closure: if e_i -vis-> e_j and e_j precedes e_k in H at the
//	    same replica as e_j, then e_i -vis-> e_k;
//	(3) vis respects H order (guaranteed by AddVis, re-checked here).
func (a *Execution) Validate() error {
	lastAt := make(map[model.ReplicaID][]int)
	for j, e := range a.H {
		for _, i := range lastAt[e.Replica] {
			if !a.Vis(i, j) {
				return fmt.Errorf("abstract: session order violated: H[%d] and H[%d] both at r%d but no vis edge", i, j, e.Replica)
			}
		}
		lastAt[e.Replica] = append(lastAt[e.Replica], j)
	}
	// Condition (2): anything visible to an event is visible to later events
	// of the same session.
	for j := range a.H {
		for _, k := range lastAt[a.H[j].Replica] {
			if k <= j {
				continue
			}
			for i := 0; i < j; i++ {
				if a.Vis(i, j) && !a.Vis(i, k) {
					return fmt.Errorf("abstract: session closure violated: H[%d]-vis->H[%d], H[%d] later at r%d, but no H[%d]-vis->H[%d]",
						i, j, k, a.H[j].Replica, i, k)
				}
			}
		}
	}
	return nil
}

// IsTransitive reports whether vis is transitive — the defining condition of
// causal consistency (Definition 12).
func (a *Execution) IsTransitive() bool {
	for j := range a.H {
		for i := 0; i < j; i++ {
			if !a.Vis(i, j) {
				continue
			}
			for h := 0; h < i; h++ {
				if a.Vis(h, i) && !a.Vis(h, j) {
					return false
				}
			}
		}
	}
	return true
}

// TransitiveViolation returns a witness (h, i, j) with h-vis->i-vis->j but
// not h-vis->j, or ok=false if vis is transitive.
func (a *Execution) TransitiveViolation() (h, i, j int, ok bool) {
	for j := range a.H {
		for i := 0; i < j; i++ {
			if !a.Vis(i, j) {
				continue
			}
			for h := 0; h < i; h++ {
				if a.Vis(h, i) && !a.Vis(h, j) {
					return h, i, j, true
				}
			}
		}
	}
	return 0, 0, 0, false
}

// TransitiveClosure returns a copy of a whose visibility relation is the
// transitive closure of the original.
func (a *Execution) TransitiveClosure() *Execution {
	out := a.Clone()
	for j := range out.H {
		closure := newBitset(len(out.H))
		if out.vis[j] != nil {
			copy(closure, out.vis[j])
		}
		for i := 0; i < j; i++ {
			if closure.get(i) && out.vis[i] != nil {
				closure.or(out.vis[i])
			}
		}
		out.vis[j] = closure
	}
	return out
}

// Clone returns a deep copy.
func (a *Execution) Clone() *Execution {
	out := &Execution{H: make([]model.Event, len(a.H)), vis: make([]bitset, len(a.vis))}
	copy(out.H, a.H)
	for j, b := range a.vis {
		if b != nil {
			out.vis[j] = b.clone()
		}
	}
	return out
}

// Prefix returns the abstract execution A' = (H', vis') with H' the first n
// events of H and vis' = vis ∩ (H' × H') (Definition 5).
func (a *Execution) Prefix(n int) *Execution {
	if n > len(a.H) {
		n = len(a.H)
	}
	out := &Execution{H: make([]model.Event, n), vis: make([]bitset, n)}
	copy(out.H, a.H[:n])
	for j := 0; j < n; j++ {
		if a.vis[j] != nil {
			out.vis[j] = a.vis[j].clone()
		}
	}
	return out
}

// ProjectReplica returns H|R: the indices of events at replica r, in order.
func (a *Execution) ProjectReplica(r model.ReplicaID) []int {
	var out []int
	for j, e := range a.H {
		if e.Replica == r {
			out = append(out, j)
		}
	}
	return out
}

// ProjectObject returns H|o: the indices of events on object o, in order.
func (a *Execution) ProjectObject(o model.ObjectID) []int {
	var out []int
	for j, e := range a.H {
		if e.Object == o {
			out = append(out, j)
		}
	}
	return out
}

// Replicas returns the sorted set of replica IDs in H.
func (a *Execution) Replicas() []model.ReplicaID {
	seen := make(map[model.ReplicaID]bool)
	var max model.ReplicaID = -1
	for _, e := range a.H {
		seen[e.Replica] = true
		if e.Replica > max {
			max = e.Replica
		}
	}
	var out []model.ReplicaID
	for r := model.ReplicaID(0); r <= max; r++ {
		if seen[r] {
			out = append(out, r)
		}
	}
	return out
}

// Objects returns the set of object IDs in H, in first-appearance order.
func (a *Execution) Objects() []model.ObjectID {
	seen := make(map[model.ObjectID]bool)
	var out []model.ObjectID
	for _, e := range a.H {
		if !seen[e.Object] {
			seen[e.Object] = true
			out = append(out, e.Object)
		}
	}
	return out
}

// Equivalent reports A ≡ A': for every replica R, H|R = H'|R (same events
// with the same operations and responses, in the same per-replica order).
func (a *Execution) Equivalent(b *Execution) bool {
	if len(a.H) != len(b.H) {
		return false
	}
	replicas := a.Replicas()
	if len(replicas) != len(b.Replicas()) {
		return false
	}
	for _, r := range replicas {
		pa := a.ProjectReplica(r)
		pb := b.ProjectReplica(r)
		if len(pa) != len(pb) {
			return false
		}
		for i := range pa {
			ea, eb := a.H[pa[i]], b.H[pb[i]]
			if ea.Object != eb.Object || ea.Op != eb.Op || !ea.Rval.Equal(eb.Rval) {
				return false
			}
		}
	}
	return true
}

// String renders H with the visibility predecessors of each event.
func (a *Execution) String() string {
	out := ""
	for j, e := range a.H {
		out += fmt.Sprintf("%3d  %-40s vis<-%v\n", j, e.String(), a.VisPreds(j))
	}
	return out
}

// Context is the operation context ctxt(A, e) of Definition 7: the visible
// prior same-object events plus e itself, with visibility restricted to them.
type Context struct {
	// Events holds the context events in H order; the final element is e.
	Events []model.Event
	// vis among context events, by position in Events.
	vis func(i, j int) bool
	// Index maps positions in Events back to indices in the parent H.
	Index []int
}

// NewContext builds an operation context directly from events and a
// visibility predicate over positions in events, for evaluators that work on
// candidate visibility assignments without materializing a full abstract
// execution. The final event is the target.
func NewContext(events []model.Event, vis func(i, j int) bool) *Context {
	return &Context{Events: events, vis: vis}
}

// Vis reports visibility between context positions i and j.
func (c *Context) Vis(i, j int) bool { return c.vis(i, j) }

// Target returns e, the event the context belongs to.
func (c *Context) Target() model.Event { return c.Events[len(c.Events)-1] }

// Prior returns the context events other than e itself.
func (c *Context) Prior() []model.Event { return c.Events[:len(c.Events)-1] }

// Context computes ctxt(A, e_j): V_e = {e' : e' -vis-> e_j and
// obj(e') = obj(e_j)} ∪ {e_j}.
func (a *Execution) Context(j int) *Context {
	target := a.H[j]
	var idx []int
	for i := 0; i < j; i++ {
		if a.Vis(i, j) && a.H[i].Object == target.Object {
			idx = append(idx, i)
		}
	}
	idx = append(idx, j)
	events := make([]model.Event, len(idx))
	for p, i := range idx {
		events[p] = a.H[i]
	}
	ctx := &Context{Events: events, Index: idx}
	ctx.vis = func(p, q int) bool {
		if p < 0 || q < 0 || p >= len(idx) || q >= len(idx) {
			return false
		}
		return a.Vis(idx[p], idx[q])
	}
	return ctx
}

// Complies checks Definition 9: concrete execution α complies with A iff for
// every replica R, H|R equals α|R^do event for event (object, operation, and
// response).
func Complies(concrete *execution.Execution, a *Execution) error {
	replicas := make(map[model.ReplicaID]bool)
	for _, e := range concrete.Events {
		replicas[e.Replica] = true
	}
	for _, e := range a.H {
		replicas[e.Replica] = true
	}
	for r := range replicas {
		ha := a.ProjectReplica(r)
		hc := concrete.ProjectDoReplica(r)
		if len(ha) != len(hc) {
			return fmt.Errorf("abstract: compliance: r%d has %d abstract vs %d concrete do events", r, len(ha), len(hc))
		}
		for i := range ha {
			ea, ec := a.H[ha[i]], hc[i]
			if ea.Object != ec.Object || ea.Op != ec.Op {
				return fmt.Errorf("abstract: compliance: r%d op %d differs: abstract %s.%s vs concrete %s.%s",
					r, i, ea.Object, ea.Op, ec.Object, ec.Op)
			}
			if !ea.Rval.Equal(ec.Rval) {
				return fmt.Errorf("abstract: compliance: r%d op %d (%s.%s) responses differ: abstract %s vs concrete %s",
					r, i, ea.Object, ea.Op, ea.Rval, ec.Rval)
			}
		}
	}
	return nil
}
