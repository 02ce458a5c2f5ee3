// Package vclock implements vector clocks (Fidge/Mattern logical time) used
// as the causality substrate of the causal data store, and the dots that
// identify individual updates.
//
// A clock over n replicas is a vector of n counters; entry i counts the
// mutators originating at replica i that are in the causal past. Clocks form
// a lattice under pointwise max (Merge); the strict partial order Less is
// exactly the happens-before order of the updates they summarize, and two
// incomparable clocks witness concurrency — the structure the paper's MVR
// specification exposes to clients.
package vclock

import (
	"strconv"

	"repro/internal/model"
)

// VC is a dense vector clock over a fixed replica population. The zero-length
// clock is the clock of the empty causal past.
type VC []uint64

// New returns the zero clock for n replicas.
func New(n int) VC { return make(VC, n) }

// Clone returns an independent copy of the clock.
func (v VC) Clone() VC {
	c := make(VC, len(v))
	copy(c, v)
	return c
}

// Get returns entry r, treating out-of-range entries as zero so that clocks
// of different populations compare sensibly.
func (v VC) Get(r model.ReplicaID) uint64 {
	if int(r) < 0 || int(r) >= len(v) {
		return 0
	}
	return v[r]
}

// Set assigns entry r, growing the clock if needed.
func (v *VC) Set(r model.ReplicaID, val uint64) {
	for int(r) >= len(*v) {
		*v = append(*v, 0)
	}
	(*v)[r] = val
}

// Inc increments entry r by one and returns the new value (the Seq of the
// dot minted for a fresh local update).
func (v *VC) Inc(r model.ReplicaID) uint64 {
	v.Set(r, v.Get(r)+1)
	return v.Get(r)
}

// Merge sets v to the pointwise maximum of v and other (join in the clock
// lattice). Merge is commutative, associative, and idempotent.
func (v *VC) Merge(other VC) {
	for r := range other {
		if other[r] > v.Get(model.ReplicaID(r)) {
			v.Set(model.ReplicaID(r), other[r])
		}
	}
}

// Merged returns the join of v and other without mutating either.
func (v VC) Merged(other VC) VC {
	c := v.Clone()
	c.Merge(other)
	return c
}

// LessEq reports v ≤ other pointwise.
func (v VC) LessEq(other VC) bool {
	for r := range v {
		if v[r] > other.Get(model.ReplicaID(r)) {
			return false
		}
	}
	return true
}

// Less reports v ≤ other and v ≠ other: the update summarized by v strictly
// happens before that of other.
func (v VC) Less(other VC) bool {
	return v.LessEq(other) && !other.LessEq(v)
}

// Equal reports pointwise equality (ignoring trailing zeros, so clocks of
// different lengths can be equal).
func (v VC) Equal(other VC) bool {
	return v.LessEq(other) && other.LessEq(v)
}

// Concurrent reports that neither clock dominates the other — the updates
// they summarize are concurrent.
func (v VC) Concurrent(other VC) bool {
	return !v.LessEq(other) && !other.LessEq(v)
}

// Sees reports whether the update identified by dot d is in the causal past
// summarized by v. This relies on the causal store's invariant that entry i
// counts a contiguous prefix of replica i's updates.
func (v VC) Sees(d model.Dot) bool { return v.Get(d.Origin) >= d.Seq }

// Sum returns the total number of updates in the causal past, a convenient
// scalar (Lamport-style) timestamp lower bound.
func (v VC) Sum() uint64 {
	var s uint64
	for _, x := range v {
		s += x
	}
	return s
}

// IsZero reports whether every entry is zero.
func (v VC) IsZero() bool {
	for _, x := range v {
		if x != 0 {
			return false
		}
	}
	return true
}

// String renders the clock as "[1 0 3]".
func (v VC) String() string { return string(v.AppendTo(nil)) }

// AppendTo appends the String rendering to dst without allocating beyond
// dst's growth: the form the stores' state-digest renderers use.
func (v VC) AppendTo(dst []byte) []byte {
	dst = append(dst, '[')
	for i, x := range v {
		if i > 0 {
			dst = append(dst, ' ')
		}
		dst = strconv.AppendUint(dst, x, 10)
	}
	return append(dst, ']')
}
