// Package repro's root benchmarks regenerate the cost side of every
// experiment in DESIGN.md §3 — one benchmark per paper artifact (E1–E9) plus
// the ablations of DESIGN.md §5. Run with:
//
//	go test -bench=. -benchmem
package repro

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/charronbost"
	"repro/internal/consistency"
	"repro/internal/core"
	"repro/internal/execution"
	"repro/internal/explore"
	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/store"
	"repro/internal/store/causal"
	"repro/internal/store/gsp"
	"repro/internal/store/kbuffer"
	"repro/internal/store/lww"
	"repro/internal/store/statesync"
)

func causalStore() store.Store { return causal.New(spec.MVRTypes()) }

// BenchmarkFig1SpecEval measures Figure 1 specification evaluation: checking
// an entire generated causal execution against the MVR specification (E1).
func BenchmarkFig1SpecEval(b *testing.B) {
	a := gen.RandomCausal(gen.Config{Seed: 1, Events: 64, Replicas: 4})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := spec.CheckCorrect(a, spec.MVRTypes()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2InferenceSearch measures the deductive impossibility proof on
// the hiding store's Figure 2 history (E2).
func BenchmarkFig2InferenceSearch(b *testing.B) {
	_, history := core.Figure2Schedule(lww.New(spec.MVRTypes()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		impossible, _, err := consistency.ProveNoCausalMVR(history, spec.MVRTypes())
		if err != nil || !impossible {
			b.Fatalf("impossible=%v err=%v", impossible, err)
		}
	}
}

// BenchmarkFig2ExhaustiveSearch measures the complete brute-force search on
// a smaller hiding history (DESIGN.md §5 ablation 3: the two non-compliance
// engines).
func BenchmarkFig2ExhaustiveSearch(b *testing.B) {
	history := []model.Event{
		model.DoEvent(0, "u", model.Write("c"), model.OKResponse()),
		model.DoEvent(0, "x", model.Write("a"), model.OKResponse()),
		model.DoEvent(0, "m", model.Write("d"), model.OKResponse()),
		model.DoEvent(1, "x", model.Write("b"), model.OKResponse()),
		model.DoEvent(1, "u", model.Read(), model.ReadResponse(nil)),
		model.DoEvent(2, "m", model.Read(), model.ReadResponse([]model.Value{"d"})),
		model.DoEvent(2, "x", model.Read(), model.ReadResponse([]model.Value{"b"})),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := consistency.FindComplying(history, spec.MVRTypes(), consistency.SearchOptions{
			RequireCausal: true, MaxNodes: 50_000_000,
		})
		if err != nil || a != nil {
			b.Fatalf("a=%v err=%v", a, err)
		}
	}
}

// BenchmarkFig3OCCCheck measures Definition 18 checking on witnessed
// concurrency executions (E3).
func BenchmarkFig3OCCCheck(b *testing.B) {
	a := gen.WitnessedConcurrency(8, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := consistency.CheckOCC(a, spec.MVRTypes()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTheorem6Construction measures the §5.2.2 recursive construction
// against the causal store, per input size (E4).
func BenchmarkTheorem6Construction(b *testing.B) {
	for _, rounds := range []int{1, 4, 16} {
		a := gen.WitnessedConcurrency(rounds, true)
		b.Run(fmt.Sprintf("rounds=%d", rounds), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep, err := core.ConstructCompliant(causalStore(), a)
				if err != nil || !rep.Complies() {
					b.Fatalf("complies=%v err=%v", rep.Complies(), err)
				}
			}
		})
	}
}

// BenchmarkTheorem12Encoding measures the Figure 4 construction + decode per
// k (E5).
func BenchmarkTheorem12Encoding(b *testing.B) {
	for _, k := range []int{8, 64, 512} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := core.RunMessageLowerBound(causalStore(), core.LowerBoundConfig{N: 5, S: 4, K: k, Seed: 1})
				if err != nil || !res.DecodeOK {
					b.Fatalf("decode=%v err=%v", res.DecodeOK, err)
				}
			}
		})
	}
}

// BenchmarkMessageSizeSweep measures the full k-sweep used for the E9
// upper/lower bound comparison.
func BenchmarkMessageSizeSweep(b *testing.B) {
	ks := []int{2, 16, 128, 1024}
	for i := 0; i < b.N; i++ {
		if _, err := core.SweepGrid(causalStore, []int{6}, []int{6}, ks, 1, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKBufferStore measures the §5.3 counterexample scenario (E6).
func BenchmarkKBufferStore(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := core.RunSection53(kbuffer.New(spec.MVRTypes(), 3), 3)
		if len(rep.ImmediateRead.Values) != 0 {
			b.Fatal("K-buffer exposed immediately")
		}
	}
}

// BenchmarkQuiescentConvergence measures a full workload + quiescence +
// convergence check (E7).
func BenchmarkQuiescentConvergence(b *testing.B) {
	objs := []model.ObjectID{"x", "y", "z"}
	for i := 0; i < b.N; i++ {
		c := sim.NewCluster(causalStore(), 4, int64(i))
		c.RunRandom(sim.WorkloadConfig{Objects: objs, Steps: 200})
		c.Quiesce()
		if err := c.CheckConverged(objs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCharronBost measures the exact dimension computation of crown S_3
// (E8).
func BenchmarkCharronBost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d, err := charronbost.Crown(3).Dimension(4)
		if err != nil || d != 3 {
			b.Fatalf("dim=%d err=%v", d, err)
		}
	}
}

// BenchmarkAblationOutboxBatching contrasts one message relaying the whole
// outbox against per-update messages (DESIGN.md §5 ablation 1).
func BenchmarkAblationOutboxBatching(b *testing.B) {
	run := func(b *testing.B, st store.Store) {
		objs := []model.ObjectID{"x", "y"}
		for i := 0; i < b.N; i++ {
			c := sim.NewCluster(st, 3, 5)
			c.RunRandom(sim.WorkloadConfig{Objects: objs, Steps: 150, SendProb: 0.15})
			c.Quiesce()
		}
	}
	b.Run("batched", func(b *testing.B) { run(b, causal.New(spec.MVRTypes())) })
	b.Run("perupdate", func(b *testing.B) {
		run(b, causal.NewWithOptions(spec.MVRTypes(), causal.Options{PerUpdateMessages: true}))
	})
}

// BenchmarkAblationDepsEncoding contrasts dense and sparse dependency-clock
// encodings on the Theorem 12 construction (DESIGN.md §5 ablation 2).
func BenchmarkAblationDepsEncoding(b *testing.B) {
	bench := func(b *testing.B, st func() store.Store) {
		for i := 0; i < b.N; i++ {
			res, err := core.RunMessageLowerBound(st(), core.LowerBoundConfig{N: 18, S: 64, K: 64, Seed: 1})
			if err != nil || !res.DecodeOK {
				b.Fatalf("decode=%v err=%v", res.DecodeOK, err)
			}
			b.ReportMetric(float64(res.MgBits), "mg-bits")
		}
	}
	b.Run("dense", func(b *testing.B) { bench(b, causalStore) })
	b.Run("sparse", func(b *testing.B) {
		bench(b, func() store.Store {
			return causal.NewWithOptions(spec.MVRTypes(), causal.Options{SparseDeps: true})
		})
	})
}

// BenchmarkCausalStoreOps measures raw store operation cost outside the
// recording harness.
func BenchmarkCausalStoreOps(b *testing.B) {
	b.Run("write", func(b *testing.B) {
		r := causal.New(spec.MVRTypes()).NewReplica(0, 4)
		for i := 0; i < b.N; i++ {
			r.Do("x", model.Write(model.Value(fmt.Sprintf("v%d", i))))
			r.OnSend() // drain the outbox so it does not grow unboundedly
		}
	})
	b.Run("read", func(b *testing.B) {
		r := causal.New(spec.MVRTypes()).NewReplica(0, 4)
		r.Do("x", model.Write("a"))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.Do("x", model.Read())
		}
	})
	b.Run("receive", func(b *testing.B) {
		st := causal.New(spec.MVRTypes())
		src := st.NewReplica(0, 2)
		payloads := make([][]byte, 0, 256)
		for i := 0; i < 256; i++ {
			src.Do("x", model.Write(model.Value(fmt.Sprintf("v%d", i))))
			payloads = append(payloads, slices.Clone(src.PendingMessage()))
			src.OnSend()
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dst := st.NewReplica(1, 2)
			for _, p := range payloads {
				dst.Receive(p)
			}
		}
	})
}

// BenchmarkHappensBefore measures happens-before computation over recorded
// executions.
func BenchmarkHappensBefore(b *testing.B) {
	c := sim.NewCluster(causalStore(), 4, 3)
	c.RunRandom(sim.WorkloadConfig{Objects: []model.ObjectID{"x", "y"}, Steps: 400})
	c.Quiesce()
	x := c.Execution()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		execution.ComputeHB(x)
	}
}

// BenchmarkDerivedAbstract measures deriving and checking the abstract
// execution of a run.
func BenchmarkDerivedAbstract(b *testing.B) {
	c := sim.NewCluster(causalStore(), 3, 3)
	c.RunRandom(sim.WorkloadConfig{Objects: []model.ObjectID{"x", "y"}, Steps: 120})
	c.Quiesce()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := c.DerivedAbstract()
		if err := consistency.CheckCausal(a, spec.MVRTypes()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreZooWorkload measures one identical workload+quiescence cycle
// against every store in the repository.
func BenchmarkStoreZooWorkload(b *testing.B) {
	stores := []store.Store{
		causal.New(spec.MVRTypes()),
		causal.NewWithOptions(spec.MVRTypes(), causal.Options{SparseDeps: true}),
		statesync.New(spec.MVRTypes()),
		lww.New(spec.MVRTypes()),
		kbuffer.New(spec.MVRTypes(), 2),
		gsp.New(spec.MVRTypes()),
	}
	objs := []model.ObjectID{"x", "y"}
	for _, st := range stores {
		b.Run(st.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c := sim.NewCluster(st, 3, 9)
				c.RunRandom(sim.WorkloadConfig{Objects: objs, Steps: 150})
				c.Quiesce()
			}
		})
	}
}

// BenchmarkDeductiveProver measures the order-free impossibility engine on
// the Figure 3c hiding history.
func BenchmarkDeductiveProver(b *testing.B) {
	history := []model.Event{
		model.DoEvent(0, "y1", model.Write("b1"), model.OKResponse()),
		model.DoEvent(0, "x", model.Write("w0"), model.OKResponse()),
		model.DoEvent(0, "y1", model.Write("b1x"), model.OKResponse()),
		model.DoEvent(0, "y0", model.Read(), model.ReadResponse(nil)),
		model.DoEvent(1, "y0", model.Write("b0"), model.OKResponse()),
		model.DoEvent(1, "x", model.Write("w1"), model.OKResponse()),
		model.DoEvent(1, "y0", model.Write("b0x"), model.OKResponse()),
		model.DoEvent(1, "y1", model.Read(), model.ReadResponse(nil)),
		model.DoEvent(2, "y1", model.Read(), model.ReadResponse([]model.Value{"b1x"})),
		model.DoEvent(2, "y0", model.Read(), model.ReadResponse([]model.Value{"b0x"})),
		model.DoEvent(2, "x", model.Read(), model.ReadResponse([]model.Value{"w1"})),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		impossible, _, err := consistency.ProveNoCausalMVR(history, spec.MVRTypes())
		if err != nil || !impossible {
			b.Fatalf("impossible=%v err=%v", impossible, err)
		}
	}
}

// BenchmarkSessionGuarantees measures the session-guarantee checker stack.
func BenchmarkSessionGuarantees(b *testing.B) {
	a := gen.RandomCausal(gen.Config{Seed: 2, Events: 60, Replicas: 4})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v := consistency.CheckSessionGuarantees(a); !v.OK() {
			b.Fatalf("%+v", v)
		}
	}
}

// BenchmarkCrownEmbedding measures the crown-execution bridge.
func BenchmarkCrownEmbedding(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := charronbost.VerifyCrownEmbedding(6); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParallelExplore measures the frontier engine on the largest
// bundled script per worker count. On multicore hardware the 4-worker run
// should scale near-linearly; the per-count outputs are identical by
// construction (see internal/explore).
func BenchmarkParallelExplore(b *testing.B) {
	script := explore.Script{
		Replicas: 3,
		Ops: []explore.Op{
			{Replica: 0, Object: "x", Op: model.Write("a")},
			{Replica: 0, Object: "y", Op: model.Write("b")},
			{Replica: 1, Object: "x", Op: model.Write("c")},
			{Replica: 1, Object: "y", Op: model.Write("d")},
			{Replica: 2, Object: "x", Op: model.Read()},
			{Replica: 2, Object: "y", Op: model.Read()},
		},
	}
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := explore.Explore(script, explore.Config{
					Store: causalStore(), MaxStates: 2_000_000, Parallel: workers,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.States), "states")
			}
		})
	}
}

// BenchmarkParallelSweep measures the Theorem 12 (n, s, k) grid per worker
// count — the embarrassingly parallel experiment surface.
func BenchmarkParallelSweep(b *testing.B) {
	ns := []int{3, 4, 6, 10}
	ss := []int{2, 3, 5, 9}
	ks := []int{2, 16, 128, 1024}
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.SweepGrid(causalStore, ns, ss, ks, 1, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
