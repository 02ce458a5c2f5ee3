package main

import (
	"cmp"
	"fmt"
	"io"
	"time"

	"repro/internal/bench"
	"repro/internal/cli"
	"repro/internal/cluster"
	"repro/internal/durable"
	"repro/internal/fault"
	"repro/internal/livecheck"
	"repro/internal/spec"
	"repro/internal/store"
	"repro/internal/supervisor"
)

// chaosConfig parameterizes a -chaos run: a self-hosted cluster (replicating
// over loopback TCP through the fault interceptor) driven by the usual
// client mix while a seeded fault schedule partitions links, shapes them,
// and crash/restarts a node.
type chaosConfig struct {
	store          string
	nodes          int
	clients        int
	ops            int
	mutate         float64
	objects        int
	seed           int64
	quiesceTimeout time.Duration
	jsonOut        bool
	dataDir        string
	churn          int
	shards         int
}

// chaosTick maps fault-schedule steps to wall time. Small enough that the
// default 80-step schedule finishes well inside a test run, large enough
// that partitions overlap real traffic.
const chaosTick = 5 * time.Millisecond

// chaosSchedule derives the run's fault schedule from the root seed alone —
// the reason the fault log is byte-identical across same-seed runs.
func chaosSchedule(cfg chaosConfig) fault.Schedule {
	return fault.Generate(fault.Config{
		Seed: cfg.seed, N: cfg.nodes, Steps: 80,
		Partitions: 1, Crashes: 1, LinkFaults: 2,
		Churns: cfg.churn,
	})
}

// runChaos boots the cluster under a Supervisor, emits the fault log,
// overlaps the schedule with client load, then walks the standard
// post-run pipeline: quiescence, convergence, merged-history audit.
func runChaos(w io.Writer, cfg chaosConfig) error {
	if cfg.shards == 0 {
		cfg.shards = 1 // zero value: the unsharded default
	}
	if cfg.nodes < 2 || cfg.clients < 1 || cfg.ops < 1 || cfg.objects < 1 || cfg.shards < 1 {
		return fmt.Errorf("chaos needs at least two nodes and one client, op, object, and shard")
	}
	objs := objectIDs("x%d", cfg.objects)
	out := cli.Output(w, cfg.jsonOut)

	// Fault log first: it is a pure function of the seed, so rerunning with
	// the same -seed reproduces these lines byte for byte even though the
	// load timings below are wall-clock.
	sched := chaosSchedule(cfg)
	if err := out.Emit(scheduleTable(sched)); err != nil {
		return err
	}

	st, err := cli.OpenStore(cfg.store, spec.MVRTypes(), store.Options{})
	if err != nil {
		return err
	}
	em := fault.NewNetem(cfg.nodes)
	base := cluster.Config{
		Store: st, Seed: cfg.seed, Shards: cfg.shards,
	}
	if cfg.dataDir != "" {
		// Disk-backed chaos: every node journals through internal/durable and
		// every crash/restart directive recovers from the data directory —
		// the kill -9 code path under the fault schedule.
		base.Storage = &durable.Storage{Dir: cfg.dataDir}
	}
	// One cluster-wide checker per shard, fed by every node's shard taps
	// while the run serves load (Observe is mutex-guarded; cross-stream skew
	// is the checker's normal operating mode). The supervisor copies base per
	// incarnation, so restarted nodes keep streaming into it.
	ck := livecheck.NewShardSet(cfg.nodes, cfg.shards, livecheck.Options{Types: spec.MVRTypes()})
	base.Tap = ck.Observe
	sup, err := supervisor.New(base, cfg.nodes, em, chaosTick)
	if err != nil {
		return err
	}
	defer sup.Close()

	// Load and schedule overlap: clients keep issuing operations while
	// links are cut and the victim is down. Operations against a crashed
	// node fail fast with ErrNodeDown and count as errors — downtime is
	// part of the experiment, not a reason to stall the client.
	schedErr := make(chan error, 1)
	start := time.Now()
	go func() { schedErr <- sup.RunSchedule(sched) }()
	lats, errs := drive(cfg.seed, cfg.clients, cfg.ops, cfg.mutate, objs, false, 2*time.Millisecond,
		func(ci int) (cluster.Doer, func(), error) { return sup.Doer(ci % cfg.nodes), func() {}, nil })
	err = <-schedErr
	elapsed := time.Since(start)
	if err != nil {
		return fmt.Errorf("fault schedule: %w", err)
	}
	// Snapshot the live verdict before quiescence: a violation the checker
	// flagged here was caught while the cluster was still serving load, not
	// reconstructed after the fact.
	preQuiesce := ck.Verdict()

	// The schedule healed every fault and restarted every victim on its
	// way out, so the ordinary quiescence/convergence/audit pipeline owes
	// the same clean verdict as a fault-free run (Definition 3 delivery
	// plus Lemma 3 convergence survive transient faults).
	convergence := sup.Settle(cfg.quiesceTimeout, objs)

	var agg cluster.Stats
	for _, nd := range sup.Nodes() {
		agg.Add(nd.Stats())
	}
	crashes, restarts := sup.Crashes()
	leaves, joins := sup.Churn()
	partitions, _, linkFaults := sched.Counts()

	pct := func(p float64) interface{} { return latCell(lats, p) }
	t := bench.NewTable(fmt.Sprintf("loadgen chaos: %s, %d nodes, seed %d", cfg.store, cfg.nodes, cfg.seed),
		"clients", "ops", "errors", "samples", "ops/sec", "p50 ms", "p99 ms",
		"partitions", "crashes", "restarts", "leaves", "joins", "link faults", "retransmits", "reconnects")
	t.AddRow(cfg.clients, cfg.clients*cfg.ops, errs, len(lats),
		float64(len(lats))/elapsed.Seconds(),
		pct(0.50), pct(0.99),
		partitions, crashes, restarts, leaves, joins, linkFaults,
		agg.Retransmits, agg.Reconnects)
	if err := out.Emit(t); err != nil {
		return err
	}

	audits, err := cluster.AuditShards(cfg.shards, sup.Histories, spec.MVRTypes())
	if err != nil {
		return err
	}
	a := bench.NewTable(fmt.Sprintf("loadgen chaos audit: %s, %d nodes, %d shard(s)", cfg.store, cfg.nodes, cfg.shards),
		"metric", "value")
	var events, messages int
	var wellFormed, causal, equivErr error
	causalOwed := false
	for s, sa := range audits {
		a.AddRow(fmt.Sprintf("shard %d events", s), sa.Events)
		events += sa.Events
		messages += len(sa.Exec.Messages)
		wellFormed, causal = cmp.Or(wellFormed, sa.WellFormed), cmp.Or(causal, sa.Causal)
		causalOwed = causalOwed || sa.CausalOwed
		// The live verdict must agree with the post-run one: the same checker
		// over the same events, fed as the run served them and afterwards in
		// merge order — whether or not the store owes Definition 12.
		if live := ck.Shard(s).Verdict(); equivErr == nil && (live.Violations > 0) != (sa.Causal != nil) {
			equivErr = fmt.Errorf("shard %d: live checker says %d violations, post-run audit says %v", s, live.Violations, sa.Causal)
		}
	}
	a.AddRow("recorded events", events)
	a.AddRow("messages broadcast", messages)
	a.AddRow("well-formed execution", bench.Check(wellFormed))
	a.AddRow("converged after quiescence", bench.Check(convergence))
	if causalOwed {
		a.AddRow("derived A causal (Def 12)", bench.Check(causal))
	}
	a.AddRow("§4 property violations", agg.Violations)
	live := ck.Verdict()
	a.AddRow("live events checked", live.Events)
	a.AddRow("live violations (before quiesce)", preQuiesce.Violations)
	a.AddRow("live violations (final)", live.Violations)
	a.AddRow("live peak tracked state", live.PeakTracked)
	a.AddRow("live verdict matches post-run audit", bench.Check(equivErr))
	if err := out.Emit(a); err != nil {
		return err
	}
	return verdict(audits, equivErr, st, agg.Violations, convergence)
}

// scheduleTable renders a fault schedule as the run's fault log: one row per
// directive, built purely from the schedule, so the same seed emits a
// byte-identical log (text or JSON Lines).
func scheduleTable(s fault.Schedule) *bench.Table {
	t := bench.NewTable(fmt.Sprintf("fault schedule: seed %d, %d nodes, %d ticks", s.Seed, s.N, s.Steps), "step", "directive", "detail")
	for _, d := range s.Directives {
		t.AddRow(d.Step, string(d.Kind), d.Detail())
	}
	return t
}
