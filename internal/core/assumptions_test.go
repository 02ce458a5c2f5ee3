package core

// Tests that probe the NECESSITY of Theorem 6's assumptions by running its
// construction against stores that each violate exactly one of them, and
// that extend the positive results to a second write-propagating store
// (state-based propagation), showing the theorems are about the assumptions,
// not about one implementation.

import (
	"testing"

	"repro/internal/consistency"
	"repro/internal/gen"
	"repro/internal/spec"
	"repro/internal/store"
	"repro/internal/store/causal"
	"repro/internal/store/kbuffer"
	"repro/internal/store/lww"
	"repro/internal/store/statesync"
)

// TestTheorem6HoldsForStateBasedStore runs the §5.2.2 construction against
// the state-based store: it is write-propagating and provides MVRs, so
// compliance must hold exactly as for the op-based causal store.
func TestTheorem6HoldsForStateBasedStore(t *testing.T) {
	for _, rounds := range []int{1, 2, 4} {
		a := gen.WitnessedConcurrency(rounds, true)
		rep, err := ConstructCompliant(statesync.New(spec.MVRTypes()), a)
		if err != nil {
			t.Fatalf("rounds=%d: %v", rounds, err)
		}
		if !rep.Complies() {
			t.Fatalf("rounds=%d: mismatches %v", rounds, rep.Mismatches)
		}
	}
	occ, complied := 0, 0
	for seed := int64(0); seed < 40; seed++ {
		a := gen.RandomCausal(gen.Config{Seed: seed, Events: 20, Revealing: true})
		if consistency.CheckOCC(a, spec.MVRTypes()) != nil {
			continue
		}
		occ++
		rep, err := ConstructCompliant(statesync.New(spec.MVRTypes()), a)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if rep.Complies() {
			complied++
		}
	}
	if occ == 0 || complied != occ {
		t.Fatalf("compliance %d/%d on OCC inputs", complied, occ)
	}
}

// TestTheorem6FailsWithoutInvisibleReads runs the construction against the
// K-buffer store, which violates Definition 16: delivered writes stay
// withheld, so reads that the OCC input requires to observe them come back
// empty — exactly the §5.3 escape hatch.
func TestTheorem6FailsWithoutInvisibleReads(t *testing.T) {
	a := gen.WitnessedConcurrency(2, true)
	rep, err := ConstructCompliant(kbuffer.New(spec.MVRTypes(), 5), a)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Complies() {
		t.Fatal("the K-buffer store reproduced an OCC execution it should be able to avoid")
	}
}

// TestTheorem6FailsWithoutMVRs runs the construction against the LWW store,
// which does not provide MVRs: reads required to return two concurrent
// writes return a single winner.
func TestTheorem6FailsWithoutMVRs(t *testing.T) {
	a := gen.WitnessedConcurrency(1, true)
	rep, err := ConstructCompliant(lww.New(spec.MVRTypes()), a)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Complies() {
		t.Fatal("the LWW store reproduced an execution with exposed concurrency")
	}
	// The failing event is an MVR read that needed both values.
	found := false
	for _, m := range rep.Mismatches {
		if m.Event.IsRead() && len(m.Event.Rval.Values) >= 2 && len(m.Got.Values) < 2 {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected a collapsed multi-value read among mismatches: %v", rep.Mismatches)
	}
}

// TestTheorem12HoldsForStateBasedStore runs the Figure 4 construction
// against the state-based store: m_g is the encoder's full state, which
// carries g bodily — decoding succeeds without the incremental probe, and
// the message is necessarily large.
func TestTheorem12HoldsForStateBasedStore(t *testing.T) {
	res, err := RunMessageLowerBound(statesync.New(spec.MVRTypes()), LowerBoundConfig{N: 5, S: 4, K: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !res.DecodeOK {
		t.Fatalf("decoded %v, want %v", res.Decoded, res.G)
	}
	if res.MgBits < res.BoundBits {
		t.Fatalf("|m_g| = %d below the bound %d", res.MgBits, res.BoundBits)
	}
}

// TestNoMessageUndercutsTheorem12 runs the Figure 4 construction over
// msgbound's whole grid (BENCH_MSGBOUND's), with dense and with sparse
// dependency clocks: in every cell m_g must decode g and carry at least the
// bound's n'·⌈lg k⌉ bits. The theorem is a proof, so a cell below the bound
// would be a measurement bug — the acceptance of any change that shrinks
// the causal store's messages.
func TestNoMessageUndercutsTheorem12(t *testing.T) {
	for _, opts := range []causal.Options{{}, {SparseDeps: true}} {
		st := func() store.Store { return causal.NewWithOptions(spec.MVRTypes(), opts) }
		points, err := SweepGrid(st, GridNs, GridSs, GridKs, 1, 1)
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		for _, p := range points {
			if !p.DecodeOK || p.MgBits < p.BoundBits {
				t.Errorf("%+v n=%d s=%d k=%d: |m_g| = %d bits against a bound of %d, decoded %v",
					opts, p.N, p.S, p.K, p.MgBits, p.BoundBits, p.DecodeOK)
			}
		}
	}
}

// TestTheorem12StateBasedPaysMore confirms the full-state m_g dwarfs the
// delta-based one on the same construction.
func TestTheorem12StateBasedPaysMore(t *testing.T) {
	cfg := LowerBoundConfig{N: 6, S: 5, K: 32, Seed: 3}
	delta, err := RunMessageLowerBound(causalStore(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	full, err := RunMessageLowerBound(statesync.New(spec.MVRTypes()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if full.MgBits <= delta.MgBits {
		t.Fatalf("full-state m_g (%d bits) not larger than delta m_g (%d bits)", full.MgBits, delta.MgBits)
	}
}
