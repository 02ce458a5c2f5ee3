package main

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/bench"
	"repro/internal/cli"
	"repro/internal/fault"
	"repro/internal/livecheck"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/store"
)

// runLivebench measures the online checker over every registered store —
// the table behind the tracked BENCH_LIVECHECK.json: a seeded simulator run
// of -ops steps (fault schedule overlapping the workload, then a quiescing
// drain) streams through livecheck, and the table reports how much state
// the checker held at its peak against how many events flowed past it —
// the bounded-memory claim as a number. Everything in the table is a pure
// function of (store, seed, steps, objects): event counts, violation
// counts, and peak tracked state all come from the deterministic simulator,
// never from wall time. What one Observe costs in time is
// internal/livecheck's BenchmarkObserve.
func runLivebench(w io.Writer, cfg benchArgs) error {
	if cfg.ops < 1 || cfg.objects < 1 {
		return fmt.Errorf("livebench needs at least one step and one object")
	}
	objs := objectIDs("x%d", cfg.objects)
	names := store.Names()
	sort.Strings(names)

	const nodes = 3
	t := bench.NewTable(
		fmt.Sprintf("loadgen livebench: %d nodes, seed %d, %d steps", nodes, cfg.seed, cfg.ops),
		"store", "events", "dos", "violations", "peak tracked", "final tracked", "peak/events %")
	for _, name := range names {
		st, err := cli.OpenStore(name, spec.MVRTypes(), store.Options{})
		if err != nil {
			return err
		}
		ck := livecheck.New(nodes, livecheck.Options{Types: spec.MVRTypes()})
		c := sim.NewCluster(st, nodes, cfg.seed)
		c.SetTap(ck.Observe)
		sched := fault.Generate(fault.Config{
			Seed: cfg.seed, N: nodes, Steps: cfg.ops,
			Partitions: 1, Crashes: 1, LinkFaults: 2,
		})
		// Delivery-heavy workload: sends and deliveries keep pace with
		// mints, so the undelivered window — and with it the checker's
		// tracked state — stays stationary instead of growing with the
		// run. (The checker's state is Θ(window); a workload whose window
		// grows linearly would measure the workload, not the checker.)
		c.RunScheduled(sched, sim.WorkloadConfig{
			Objects: objs, Steps: cfg.ops,
			MutateRatio: 0.4, SendProb: 0.9, DeliverProb: 0.95,
		})
		c.Quiesce()
		v := ck.Verdict()
		ratio := 0.0
		if v.Events > 0 {
			ratio = float64(v.PeakTracked) * 100 / float64(v.Events)
		}
		t.AddRow(name, v.Events, v.Dos, v.Violations, v.PeakTracked, v.TrackedDots, ratio)
	}
	return cli.Output(w, cfg.jsonOut).Emit(t)
}
