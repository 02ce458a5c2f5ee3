package charronbost

import (
	"errors"
	"testing"

	"repro/internal/execution"
)

func TestCrownStructure(t *testing.T) {
	o := Crown(3)
	if o.N != 6 {
		t.Fatalf("N = %d", o.N)
	}
	if !o.Less(0, 4) || o.Less(0, 3) {
		t.Fatal("crown relations wrong: a1<b2 expected, a1<b1 not")
	}
	if !o.Incomparable(0, 1) || !o.Incomparable(3, 4) || !o.Incomparable(0, 3) {
		t.Fatal("crown incomparabilities wrong")
	}
}

func TestLinearExtensionsRespectOrder(t *testing.T) {
	o := Crown(2)
	exts := o.LinearExtensions()
	if len(exts) == 0 {
		t.Fatal("no extensions")
	}
	for _, ext := range exts {
		pos := make([]int, o.N)
		for p, x := range ext {
			pos[x] = p
		}
		for x := 0; x < o.N; x++ {
			for y := 0; y < o.N; y++ {
				if o.Less(x, y) && pos[x] > pos[y] {
					t.Fatalf("extension %v violates %s < %s", ext, o.Names[x], o.Names[y])
				}
			}
		}
	}
}

func TestChainHasDimensionOne(t *testing.T) {
	o := NewOrder(3)
	o.SetLess(0, 1)
	o.SetLess(1, 2)
	o.SetLess(0, 2)
	d, err := o.Dimension(3)
	if err != nil || d != 1 {
		t.Fatalf("chain dimension = %d, err %v", d, err)
	}
}

func TestAntichainHasDimensionTwo(t *testing.T) {
	o := NewOrder(3) // three incomparable elements
	d, err := o.Dimension(3)
	if err != nil || d != 2 {
		t.Fatalf("antichain dimension = %d, err %v", d, err)
	}
}

// TestCrown2Dimension also cross-checks CrownLowerBound and CrownRealizer
// against the exhaustive search, as TestCrown3NeedsThreeDimensions does.
func TestCrown2Dimension(t *testing.T) {
	o := Crown(2)
	d, err := o.Dimension(4)
	if err != nil || d != 2 {
		t.Fatalf("crown S_2 dimension = %d, err %v", d, err)
	}
	if bound, err := CrownLowerBound(o); err != nil || bound != d {
		t.Fatalf("S_2 lower bound = %d, err %v; the search says %d", bound, err, d)
	}
	if err := CheckCharacterizes(o, Vectors(CrownRealizer(2), o.N)); err != nil {
		t.Fatal(err)
	}
}

// TestCrown3NeedsThreeDimensions is the Charron-Bost core: 2-dimensional
// logical clocks cannot characterize the causality of the 3-process crown,
// but 3-dimensional ones can. The exhaustive search is the cross-check of
// CrownLowerBound and CrownRealizer, which stand in for it past S_3.
func TestCrown3NeedsThreeDimensions(t *testing.T) {
	o := Crown(3)
	if _, err := o.Realizer(2); !errors.Is(err, ErrNoRealizer) {
		t.Fatalf("2-realizer search: %v (expected exhaustive refutation)", err)
	}
	realizer, err := o.Realizer(3)
	if err != nil {
		t.Fatal(err)
	}
	vecs := Vectors(realizer, o.N)
	if err := CheckCharacterizes(o, vecs); err != nil {
		t.Fatal(err)
	}
	if bound, err := CrownLowerBound(o); err != nil || bound != 3 {
		t.Fatalf("S_3 lower bound = %d, err %v; the search says 3", bound, err)
	}
	if err := CheckCharacterizes(o, Vectors(CrownRealizer(3), o.N)); err != nil {
		t.Fatal(err)
	}
}

// TestCrown4NeedsFourDimensions: no 3 linear extensions realize S_4
// (CrownLowerBound), and 4 do (CrownRealizer, its vectors checked).
func TestCrown4NeedsFourDimensions(t *testing.T) {
	o := Crown(4)
	if bound, err := CrownLowerBound(o); err != nil || bound != 4 {
		t.Fatalf("S_4 lower bound = %d, err %v; want 4", bound, err)
	}
	if err := CheckCharacterizes(o, Vectors(CrownRealizer(4), o.N)); err != nil {
		t.Fatal(err)
	}
}

// TestCrownLowerBoundChecksItsPremises: an order that is not a crown gets
// no bound. Without a_1 < b_2 the pairs 1 and 2 form no alternating cycle
// (and S_3 less that relation has a 2-realizer, so a bound of 3 would be
// false); with a_1 < b_1 the first pair is no critical pair.
func TestCrownLowerBoundChecksItsPremises(t *testing.T) {
	missing := Crown(3)
	missing.less[0][4] = false // a1 < b2
	if _, err := CrownLowerBound(missing); err == nil {
		t.Error("a bound for S_3 without a1 < b2")
	}
	if _, err := missing.Realizer(2); err != nil {
		t.Errorf("S_3 without a1 < b2 has no 2-realizer, so the premise is not needed: %v", err)
	}
	extra := Crown(3)
	extra.SetLess(0, 3) // a1 < b1
	if _, err := CrownLowerBound(extra); err == nil {
		t.Error("a bound for S_3 with a1 < b1")
	}
	if _, err := CrownLowerBound(NewOrder(5)); err == nil {
		t.Error("a bound for an odd number of elements")
	}
}

func TestVectorsFromRealizerCharacterize(t *testing.T) {
	o := Crown(2)
	realizer, err := o.Realizer(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckCharacterizes(o, Vectors(realizer, o.N)); err != nil {
		t.Fatal(err)
	}
}

func TestCheckCharacterizesDetectsBadVectors(t *testing.T) {
	o := Crown(2)
	bad := [][]int{{0, 0}, {0, 0}, {0, 0}, {0, 0}} // everything equal
	if err := CheckCharacterizes(o, bad); err == nil {
		t.Fatal("expected mischaracterization")
	}
}

func TestDimensionBudgetExceeded(t *testing.T) {
	o := Crown(3)
	if _, err := o.Dimension(2); err == nil {
		t.Fatal("expected dimension > 2 error")
	}
}

func TestCrownExecutionEmbedding(t *testing.T) {
	for _, n := range []int{2, 3, 5, 8} {
		if err := VerifyCrownEmbedding(n); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

// TestRealizerVectorsCharacterizeCrownExecutionHB ties the two halves of
// the extension together: the realizer-derived vector timestamps of S_n
// characterize happens-before among the a/b do events of the crown
// execution in the message-passing model.
func TestRealizerVectorsCharacterizeCrownExecutionHB(t *testing.T) {
	const n = 3
	o := Crown(n)
	realizer, err := o.Realizer(n)
	if err != nil {
		t.Fatal(err)
	}
	vecs := Vectors(realizer, o.N)

	x, aSeqs, bSeqs := CrownExecution(n)
	hb := execution.ComputeHB(x)
	leq := func(u, v []int) bool {
		eq := true
		for k := range u {
			if u[k] > v[k] {
				return false
			}
			if u[k] != v[k] {
				eq = false
			}
		}
		return !eq
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			want := hb.Before(aSeqs[i], bSeqs[j])
			got := leq(vecs[i], vecs[n+j])
			if want != got {
				t.Fatalf("a%d -hb-> b%d = %v but vectors say %v", i+1, j+1, want, got)
			}
		}
	}
}
