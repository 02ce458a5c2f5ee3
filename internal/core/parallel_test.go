package core

import (
	"errors"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/gen"
	"repro/internal/spec"
	"repro/internal/store"
	"repro/internal/store/causal"
)

func causalFactory() store.Store { return causal.New(spec.MVRTypes()) }

func TestForEachCellVisitsEveryIndexOnce(t *testing.T) {
	for _, parallel := range []int{0, 1, 2, 7, 100} {
		const n = 50
		var counts [n]atomic.Int32
		if err := ForEachCell(parallel, n, func(i int) error {
			counts[i].Add(1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("parallel=%d: cell %d ran %d times", parallel, i, c)
			}
		}
	}
}

// TestForEachCellReturnsLowestIndexError pins the deterministic error
// contract: whichever worker finishes first, the reported error is the
// lowest-indexed failing cell's.
func TestForEachCellReturnsLowestIndexError(t *testing.T) {
	errLow, errHigh := errors.New("low"), errors.New("high")
	for _, parallel := range []int{1, 2, 8} {
		err := ForEachCell(parallel, 20, func(i int) error {
			switch i {
			case 7:
				return errLow
			case 15:
				return errHigh
			}
			return nil
		})
		if err != errLow {
			t.Fatalf("parallel=%d: err = %v, want %v", parallel, err, errLow)
		}
	}
}

// TestSweepsParallelMatchSequential checks every sweep produces identical
// points for any worker count.
func TestSweepsParallelMatchSequential(t *testing.T) {
	ks := []int{2, 8, 32}
	ns := []int{3, 4, 6}
	ss := []int{2, 3, 5}

	seqK, err := SweepGrid(causalFactory, []int{6}, []int{6}, ks, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	seqN, err := SweepGrid(causalFactory, ns, []int{6}, []int{16}, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	seqS, err := SweepGrid(causalFactory, []int{6}, ss, []int{16}, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	seqG, err := SweepGrid(causalFactory, ns, ss, ks, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(seqG) != len(ns)*len(ss)*len(ks) {
		t.Fatalf("grid has %d cells, want %d", len(seqG), len(ns)*len(ss)*len(ks))
	}

	for _, workers := range []int{2, 4} {
		parK, err := SweepGrid(causalFactory, []int{6}, []int{6}, ks, 7, workers)
		if err != nil {
			t.Fatal(err)
		}
		parN, err := SweepGrid(causalFactory, ns, []int{6}, []int{16}, 7, workers)
		if err != nil {
			t.Fatal(err)
		}
		parS, err := SweepGrid(causalFactory, []int{6}, ss, []int{16}, 7, workers)
		if err != nil {
			t.Fatal(err)
		}
		parG, err := SweepGrid(causalFactory, ns, ss, ks, 7, workers)
		if err != nil {
			t.Fatal(err)
		}
		for _, cmp := range []struct {
			name     string
			seq, par []SweepPoint
		}{
			{"k", seqK, parK}, {"n", seqN, parN}, {"s", seqS, parS}, {"grid", seqG, parG},
		} {
			if !reflect.DeepEqual(cmp.seq, cmp.par) {
				t.Errorf("sweep %s: parallel=%d differs from sequential", cmp.name, workers)
			}
		}
	}
}

// TestSweepGridRowMajorOrder pins the (n, then s, then k) cell order the
// rendered tables rely on.
func TestSweepGridRowMajorOrder(t *testing.T) {
	ns, ss, ks := []int{3, 4}, []int{2, 3}, []int{2, 8}
	points, err := SweepGrid(causalFactory, ns, ss, ks, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	for _, n := range ns {
		for _, s := range ss {
			for _, k := range ks {
				if points[i].N != n || points[i].S != s || points[i].K != k {
					t.Fatalf("cell %d = (n=%d, s=%d, k=%d), want (n=%d, s=%d, k=%d)",
						i, points[i].N, points[i].S, points[i].K, n, s, k)
				}
				i++
			}
		}
	}
}

// TestTheorem6BatchDeterministicAndCompliant checks the batch is identical
// for every worker count and that Theorem 6 holds on it: every OCC cell
// complies and keeps hb ⊆ vis.
func TestTheorem6BatchDeterministicAndCompliant(t *testing.T) {
	cfg := gen.Config{Events: 18}
	seq, err := Theorem6Batch(causalFactory, cfg, 11, 40, 1)
	if err != nil {
		t.Fatal(err)
	}
	occ, complied := Theorem6Tally(seq)
	if occ == 0 {
		t.Fatal("batch produced no OCC executions; the experiment is vacuous")
	}
	if complied != occ {
		t.Fatalf("Theorem 6 violated: %d/%d OCC cells complied", complied, occ)
	}
	for _, c := range seq {
		if c.OCC && !c.HBWithinVis {
			t.Fatalf("cell with seed %d: hb ⊄ vis on an OCC input", c.Seed)
		}
	}
	for _, workers := range []int{2, 4} {
		par, err := Theorem6Batch(causalFactory, cfg, 11, 40, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seq, par) {
			t.Errorf("parallel=%d batch differs from sequential", workers)
		}
	}
}
