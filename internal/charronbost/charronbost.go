// Package charronbost implements the logical-clock dimension result the
// paper's introduction extends (Charron-Bost, IPL 1991): characterizing the
// causality of executions of n processes with m-tuples (vector clocks)
// requires m ≥ n. The witness is the crown partial order S_n — n minimal
// events a_1..a_n and n maximal events b_1..b_n with a_i < b_j iff i ≠ j —
// whose order dimension is exactly n.
//
// The package computes order dimension exactly via exhaustive realizer
// search (an order has dimension ≤ m iff it is the intersection of m of its
// linear extensions), and converts a realizer into vector timestamps that
// characterize the order: x < y iff f(x) ≤ f(y) pointwise and f(x) ≠ f(y).
// The search is exponential; past S_3 the crown's dimension is instead
// bounded from below by CrownLowerBound's alternating cycles and from above
// by CrownRealizer, each checked against the order it is about.
// Theorem 12 generalizes the spirit of this bound to arbitrary message
// formats.
package charronbost

import (
	"errors"
	"fmt"
)

// Order is a finite strict partial order over elements 0..N-1.
type Order struct {
	// N is the number of elements.
	N int
	// less[x][y] reports x < y.
	less [][]bool
	// Names labels elements for reporting.
	Names []string
}

// NewOrder creates an order with no relations.
func NewOrder(n int) *Order {
	o := &Order{N: n, less: make([][]bool, n), Names: make([]string, n)}
	for i := range o.less {
		o.less[i] = make([]bool, n)
		o.Names[i] = fmt.Sprintf("e%d", i)
	}
	return o
}

// SetLess records x < y (callers are responsible for transitivity; Crown
// produces transitively closed orders by construction).
func (o *Order) SetLess(x, y int) { o.less[x][y] = true }

// Less reports x < y.
func (o *Order) Less(x, y int) bool { return o.less[x][y] }

// Incomparable reports x ∥ y.
func (o *Order) Incomparable(x, y int) bool {
	return x != y && !o.less[x][y] && !o.less[y][x]
}

// Crown returns the crown S_n: elements 0..n-1 are the minimal a_i,
// elements n..2n-1 are the maximal b_j, and a_i < b_j iff i ≠ j. Its order
// dimension is n for n ≥ 3 (and 2 for n = 2).
func Crown(n int) *Order {
	o := NewOrder(2 * n)
	for i := 0; i < n; i++ {
		o.Names[i] = fmt.Sprintf("a%d", i+1)
		o.Names[n+i] = fmt.Sprintf("b%d", i+1)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				o.SetLess(i, n+j)
			}
		}
	}
	return o
}

// CrownLowerBound proves that o, a crown of n = N/2 minimal and n maximal
// elements laid out as Crown lays them out, has dimension at least n, and
// returns n. The proof is Trotter's alternating-cycle argument on the
// critical pairs (a_i, b_i), with every premise checked on o itself: each
// a_i ∥ b_i, and a_j < b_i for all i ≠ j. A realizer must reverse each
// pair — some extension puts b_i before a_i — but no extension reverses two:
// reversing (a_i, b_i) and (a_j, b_j) would order a_j < b_i < a_i < b_j <
// a_j, a cycle. So a realizer needs n extensions. An error names the first
// premise o fails.
func CrownLowerBound(o *Order) (int, error) {
	if o.N%2 != 0 {
		return 0, fmt.Errorf("charronbost: %d elements cannot form a crown", o.N)
	}
	n := o.N / 2
	for i := 0; i < n; i++ {
		if !o.Incomparable(i, n+i) {
			return 0, fmt.Errorf("charronbost: %s and %s are comparable, not a critical pair", o.Names[i], o.Names[n+i])
		}
		for j := 0; j < n; j++ {
			if j != i && !o.Less(j, n+i) {
				return 0, fmt.Errorf("charronbost: %s < %s does not hold, so pairs %d and %d form no alternating cycle", o.Names[j], o.Names[n+i], i+1, j+1)
			}
		}
	}
	return n, nil
}

// CrownRealizer returns n linear extensions realizing Crown(n) for n ≥ 2:
// the i-th lists every a_j but a_i, then b_i, a_i, and the remaining b_j,
// so it alone reverses the critical pair (a_i, b_i). With CrownLowerBound
// it puts the crown's dimension at exactly n without a search;
// CheckCharacterizes on its Vectors verifies it.
func CrownRealizer(n int) [][]int {
	realizer := make([][]int, n)
	for i := range realizer {
		ext := make([]int, 0, 2*n)
		for j := 0; j < n; j++ {
			if j != i {
				ext = append(ext, j)
			}
		}
		ext = append(ext, n+i, i)
		for j := 0; j < n; j++ {
			if j != i {
				ext = append(ext, n+j)
			}
		}
		realizer[i] = ext
	}
	return realizer
}

// LinearExtensions enumerates every linear extension of the order as
// permutations of 0..N-1. Exponential; intended for the small crowns this
// package studies.
func (o *Order) LinearExtensions() [][]int {
	var out [][]int
	used := make([]bool, o.N)
	cur := make([]int, 0, o.N)
	var rec func()
	rec = func() {
		if len(cur) == o.N {
			ext := make([]int, o.N)
			copy(ext, cur)
			out = append(out, ext)
			return
		}
		for x := 0; x < o.N; x++ {
			if used[x] {
				continue
			}
			// x may come next iff every smaller element is already placed.
			ok := true
			for y := 0; y < o.N; y++ {
				if o.less[y][x] && !used[y] {
					ok = false
					break
				}
			}
			if ok {
				used[x] = true
				cur = append(cur, x)
				rec()
				cur = cur[:len(cur)-1]
				used[x] = false
			}
		}
	}
	rec()
	return out
}

// ErrNoRealizer is returned when no realizer of the requested size exists.
var ErrNoRealizer = errors.New("charronbost: no realizer of the requested size")

// Realizer searches exhaustively for m linear extensions whose intersection
// is the order. It returns such a realizer, or ErrNoRealizer when none
// exists — a machine-checked proof that the order's dimension exceeds m.
//
// An extension set realizes the order iff for every ordered incomparable
// pair (x, y) some extension places y before x (the order relations
// themselves hold in every extension).
func (o *Order) Realizer(m int) ([][]int, error) {
	exts := o.LinearExtensions()
	// Critical pairs: ordered incomparable pairs (x, y); a realizer must
	// contain an extension with y before x.
	type pair struct{ x, y int }
	var pairs []pair
	for x := 0; x < o.N; x++ {
		for y := 0; y < o.N; y++ {
			if x != y && o.Incomparable(x, y) {
				pairs = append(pairs, pair{x, y})
			}
		}
	}
	// covers[e] = the set of pairs extension e reverses (y before x). Many
	// extensions reverse the same pair set; only one representative per
	// distinct coverage signature matters for realizability, which collapses
	// the search space by orders of magnitude.
	var covers [][]bool
	var reps []int // representative extension index per signature
	seen := make(map[string]bool)
	for e, ext := range exts {
		pos := make([]int, o.N)
		for p, x := range ext {
			pos[x] = p
		}
		cov := make([]bool, len(pairs))
		sig := make([]byte, len(pairs))
		for pi, pr := range pairs {
			if pos[pr.y] < pos[pr.x] {
				cov[pi] = true
				sig[pi] = 1
			}
		}
		if seen[string(sig)] {
			continue
		}
		seen[string(sig)] = true
		covers = append(covers, cov)
		reps = append(reps, e)
	}
	chosen := make([]int, 0, m)
	covered := make([]int, len(pairs)) // coverage count per pair
	firstUncovered := func() int {
		for pi, c := range covered {
			if c == 0 {
				return pi
			}
		}
		return -1
	}
	// Set-cover DFS: the next extension must cover the first uncovered pair,
	// which prunes the branching factor from |extensions| to the few that
	// reverse that pair.
	var rec func(depth int) bool
	rec = func(depth int) bool {
		target := firstUncovered()
		if target < 0 {
			return true
		}
		if depth == m {
			return false
		}
		for e := 0; e < len(covers); e++ {
			if !covers[e][target] {
				continue
			}
			chosen = append(chosen, e)
			for pi := range pairs {
				if covers[e][pi] {
					covered[pi]++
				}
			}
			if rec(depth + 1) {
				return true
			}
			for pi := range pairs {
				if covers[e][pi] {
					covered[pi]--
				}
			}
			chosen = chosen[:len(chosen)-1]
		}
		return false
	}
	if !rec(0) {
		return nil, fmt.Errorf("%w: dimension > %d (searched %d extensions)", ErrNoRealizer, m, len(exts))
	}
	out := make([][]int, len(chosen))
	for i, e := range chosen {
		out[i] = exts[reps[e]]
	}
	return out, nil
}

// Dimension computes the order dimension exactly by growing m until a
// realizer exists (maxM bounds the search).
func (o *Order) Dimension(maxM int) (int, error) {
	for m := 1; m <= maxM; m++ {
		if _, err := o.Realizer(m); err == nil {
			return m, nil
		} else if !errors.Is(err, ErrNoRealizer) {
			return 0, err
		}
	}
	return 0, fmt.Errorf("charronbost: dimension exceeds %d", maxM)
}

// Vectors converts a realizer into vector timestamps: element x's k-th
// coordinate is its position in the k-th extension. The vectors
// characterize the order (CheckCharacterizes verifies it).
func Vectors(realizer [][]int, n int) [][]int {
	vecs := make([][]int, n)
	for i := range vecs {
		vecs[i] = make([]int, len(realizer))
	}
	for k, ext := range realizer {
		for p, x := range ext {
			vecs[x][k] = p
		}
	}
	return vecs
}

// CheckCharacterizes verifies that the vectors characterize the order:
// x < y iff vec(x) ≤ vec(y) pointwise with vec(x) ≠ vec(y).
func CheckCharacterizes(o *Order, vecs [][]int) error {
	leq := func(x, y int) bool {
		eq := true
		for k := range vecs[x] {
			if vecs[x][k] > vecs[y][k] {
				return false
			}
			if vecs[x][k] != vecs[y][k] {
				eq = false
			}
		}
		return !eq
	}
	for x := 0; x < o.N; x++ {
		for y := 0; y < o.N; y++ {
			if x == y {
				continue
			}
			if o.Less(x, y) != leq(x, y) {
				return fmt.Errorf("charronbost: vectors mischaracterize %s vs %s: order=%v vectors=%v",
					o.Names[x], o.Names[y], o.Less(x, y), leq(x, y))
			}
		}
	}
	return nil
}
