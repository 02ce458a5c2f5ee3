package livecheck_test

import (
	"sort"
	"testing"

	"repro/internal/fault"
	"repro/internal/livecheck"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/store"
)

// recordedStream runs the seeded workload behind BENCH_LIVECHECK.json (a
// fault schedule overlapping a delivery-heavy mix on three nodes, then a
// quiescing drain) against the named store and returns every event the tap
// saw, merged into one causally consistent order: by Lamport time, each
// node's own order kept.
func recordedStream(tb testing.TB, storeName string, steps int) []livecheck.Event {
	tb.Helper()
	const nodes, seed = 3, 1
	st, err := store.Open(storeName, spec.MVRTypes(), store.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	rec := livecheck.NewRecorder()
	c := sim.NewCluster(st, nodes, seed)
	c.SetTap(rec.Observe)
	sched := fault.Generate(fault.Config{
		Seed: seed, N: nodes, Steps: steps,
		Partitions: 1, Crashes: 1, LinkFaults: 2,
	})
	c.RunScheduled(sched, sim.WorkloadConfig{
		Objects: []model.ObjectID{"x0", "x1", "x2"}, Steps: steps,
		MutateRatio: 0.4, SendProb: 0.9, DeliverProb: 0.95,
	})
	c.Quiesce()
	var all []livecheck.Event
	for i := 0; i < nodes; i++ {
		all = append(all, rec.PerNode()[model.ReplicaID(i)]...)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Lamport < all[j].Lamport })
	return all
}

// BenchmarkObserve is what the tap costs a serving node per recorded event:
// one Checker.Observe, replaying a recorded stream of the causal store
// (which the checker passes clean) and of lww (which it flags). The checker
// is replaced, off the clock, each time the stream has been replayed once,
// so its tracked state is the stream's own stationary window.
//
//	go test ./internal/livecheck -run '^$' -bench Observe -benchmem
func BenchmarkObserve(b *testing.B) {
	for _, name := range []string{"causal", "lww"} {
		b.Run(name, func(b *testing.B) {
			events := recordedStream(b, name, 4000)
			ck := livecheck.New(3, livecheck.Options{Types: spec.MVRTypes()})
			for _, ev := range events {
				ck.Observe(ev)
			}
			if v := ck.Verdict(); (v.Violations == 0) != (name == "causal") {
				b.Fatalf("%s: %d violations over %d events", name, v.Violations, v.Events)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%len(events) == 0 {
					b.StopTimer()
					ck = livecheck.New(3, livecheck.Options{Types: spec.MVRTypes()})
					b.StartTimer()
				}
				ck.Observe(events[i%len(events)])
			}
		})
	}
}
