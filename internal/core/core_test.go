package core

import (
	"testing"

	"repro/internal/consistency"
	"repro/internal/gen"
	"repro/internal/spec"
	"repro/internal/store"
	"repro/internal/store/causal"
	"repro/internal/store/kbuffer"
	"repro/internal/store/lww"
)

func causalStore() store.Store { return causal.New(spec.MVRTypes()) }

func TestFigure2HidingStoreProvablyInconsistent(t *testing.T) {
	rep, err := RunFigure2(lww.New(spec.MVRTypes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.XRead.Values) != 1 {
		t.Fatalf("LWW store read x = %s, expected a single hidden winner", rep.XRead)
	}
	if !rep.HidingImpossible {
		t.Fatal("deductive prover failed to refute the hiding store's history")
	}
	if len(rep.Trace) == 0 {
		t.Fatal("expected a contradiction trace")
	}
}

func TestFigure2ExposingStoreComplies(t *testing.T) {
	rep, err := RunFigure2(causalStore())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.XRead.Values) != 2 {
		t.Fatalf("causal store read x = %s, expected both concurrent writes", rep.XRead)
	}
	if rep.HidingImpossible {
		t.Fatal("prover refuted the exposing store's history, which has a complying causal execution")
	}
	if rep.DerivedCausal != nil {
		t.Fatalf("derived abstract execution not causally consistent: %v", rep.DerivedCausal)
	}
}

func TestFigure3Cases(t *testing.T) {
	cases, err := BuildFigure3()
	if err != nil {
		t.Fatal(err)
	}
	if len(cases) != 3 {
		t.Fatalf("got %d cases, want 3", len(cases))
	}
	for _, c := range cases {
		if c.Causal != nil {
			t.Errorf("case %s not causally consistent: %v", c.Name, c.Causal)
		}
	}
	// 3a and 3b hide successfully (reads return singletons, so OCC is
	// vacuous); 3c exposes concurrency and is OCC, and its hiding variant is
	// provably impossible.
	for _, c := range cases {
		if c.OCC != nil {
			t.Errorf("case %s: OCC check failed: %v", c.Name, c.OCC)
		}
	}
	if !cases[2].HidingImpossible {
		t.Error("case 3c: hiding should be provably impossible")
	}
}

func TestTheorem6WitnessedConcurrencyComplies(t *testing.T) {
	for _, rounds := range []int{1, 2, 4} {
		a := gen.WitnessedConcurrency(rounds, true)
		if err := consistency.CheckOCC(a, spec.MVRTypes()); err != nil {
			t.Fatalf("rounds=%d: generated execution not OCC: %v", rounds, err)
		}
		report, err := ConstructCompliant(causalStore(), a)
		if err != nil {
			t.Fatalf("rounds=%d: %v", rounds, err)
		}
		if !report.Complies() {
			t.Fatalf("rounds=%d: construction mismatches: %v", rounds, report.Mismatches)
		}
		if err := VerifyHBWithinVis(report, a); err != nil {
			t.Fatalf("rounds=%d: %v", rounds, err)
		}
		if err := report.Exec.CheckWellFormed(); err != nil {
			t.Fatalf("rounds=%d: constructed execution ill-formed: %v", rounds, err)
		}
	}
}

func TestTheorem6RandomOCCExecutionsComply(t *testing.T) {
	tried, occ := 0, 0
	for seed := int64(0); seed < 60; seed++ {
		a := gen.RandomCausal(gen.Config{Seed: seed, Events: 24, Revealing: true})
		if err := consistency.CheckCausal(a, spec.MVRTypes()); err != nil {
			t.Fatalf("seed %d: generator produced non-causal execution: %v", seed, err)
		}
		tried++
		if consistency.CheckOCC(a, spec.MVRTypes()) != nil {
			continue // causally consistent but not OCC: out of Theorem 6 scope
		}
		occ++
		report, err := ConstructCompliant(causalStore(), a)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !report.Complies() {
			t.Fatalf("seed %d: construction mismatches: %v\nexecution:\n%s", seed, report.Mismatches, a)
		}
	}
	if occ == 0 {
		t.Fatalf("no OCC executions among %d generated; generator too weak", tried)
	}
	t.Logf("verified compliance on %d/%d OCC executions", occ, tried)
}

func TestTheorem12DecodesG(t *testing.T) {
	res, err := RunMessageLowerBound(causalStore(), LowerBoundConfig{N: 5, S: 4, K: 8, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if !res.DecodeOK {
		t.Fatalf("decode failed: got %v, want %v", res.Decoded, res.G)
	}
	if res.NPrime != 3 {
		t.Fatalf("n' = %d, want 3", res.NPrime)
	}
	if res.MgBits < res.NPrime {
		t.Fatalf("m_g suspiciously small: %d bits", res.MgBits)
	}
	if err := res.Exec.CheckWellFormed(); err != nil {
		t.Fatalf("α_g ill-formed: %v", err)
	}
}

func TestTheorem12ExplicitG(t *testing.T) {
	res, err := RunMessageLowerBound(causalStore(), LowerBoundConfig{N: 4, S: 10, K: 5, G: []int{5, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Decoded[0] != 5 || res.Decoded[1] != 1 {
		t.Fatalf("decoded %v, want [5 1]", res.Decoded)
	}
}

func TestTheorem12MessageGrowsWithK(t *testing.T) {
	points, err := SweepGrid(causalStore, []int{6}, []int{6}, []int{2, 16, 256, 4096}, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(points); i++ {
		if points[i].MgBits < points[i-1].MgBits {
			t.Fatalf("m_g shrank as k grew: %+v", points)
		}
	}
	if points[len(points)-1].MgBits <= points[0].MgBits {
		t.Fatalf("m_g did not grow from k=2 to k=4096: %+v", points)
	}
}

func TestTheorem12MessageGrowsWithMinNS(t *testing.T) {
	// With abundant objects, growing n grows n' and hence m_g.
	byN, err := SweepGrid(causalStore, []int{3, 5, 9}, []int{64}, []int{64}, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(byN); i++ {
		if byN[i].MgBits <= byN[i-1].MgBits {
			t.Fatalf("m_g did not grow with n: %+v", byN)
		}
	}
	// With abundant replicas, growing s grows n' — visible in the sparse
	// dependency encoding, whose m_g carries one entry per writer.
	sparse := func() store.Store {
		return causal.NewWithOptions(spec.MVRTypes(), causal.Options{SparseDeps: true})
	}
	byS, err := SweepGrid(sparse, []int{64}, []int{2, 5, 9}, []int{64}, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(byS); i++ {
		if byS[i].MgBits <= byS[i-1].MgBits {
			t.Fatalf("m_g did not grow with s: %+v", byS)
		}
	}
	// The dense encoding pays Θ(n·lg k) independent of s — exactly the §6
	// gap between the Ω(min{n,s}·lg k) bound and vector-clock algorithms.
	bySDense, err := SweepGrid(causalStore, []int{64}, []int{2, 9}, []int{64}, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	if bySDense[0].MgBits != bySDense[1].MgBits {
		t.Fatalf("dense m_g unexpectedly varied with s: %+v", bySDense)
	}
}

func TestSection53KBufferHidesImmediateRead(t *testing.T) {
	const k = 3
	rep := RunSection53(kbuffer.New(spec.MVRTypes(), k), k)
	if len(rep.ImmediateRead.Values) != 0 {
		t.Fatalf("K-buffer exposed the write immediately: %s", rep.ImmediateRead)
	}
	if rep.InvisibleReadViolations == 0 {
		t.Fatal("K-buffer store should violate invisible reads by design")
	}
	if len(rep.ExposedAfterKReads.Values) != 1 {
		t.Fatalf("K-buffer never exposed the write: %s (eventual consistency lost)", rep.ExposedAfterKReads)
	}
}

func TestSection53CausalStoreExposesImmediately(t *testing.T) {
	rep := RunSection53(causalStore(), 3)
	if len(rep.ImmediateRead.Values) != 1 {
		t.Fatalf("causal store hid an applied write: %s", rep.ImmediateRead)
	}
	if rep.InvisibleReadViolations != 0 {
		t.Fatalf("causal store violated invisible reads %d times", rep.InvisibleReadViolations)
	}
}
