// Command chaoshunt hunts for adversarial fault schedules: a beam search
// over the schedule seed space (internal/chaossearch) that maximizes a
// chosen stress objective against a store, reusing the explorer's
// level-synchronized parallel frontier. Every evaluation's chaos-metrics
// record feeds the report, so the output doubles as the tracked chaos
// pipeline (BENCH_CHAOS.json): one table row per objective, byte-identical
// for every -parallel value.
//
// Usage:
//
//	chaoshunt -store causal -budget 64
//	chaoshunt -store gsp -objective violations    # hunt §4 violations
//	chaoshunt -objective all -json                # the tracked pipeline rows
//	chaoshunt -store causal -validate             # re-run best on the TCP cluster
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/bench"
	"repro/internal/chaossearch"
	"repro/internal/cli"
	"repro/internal/spec"
	"repro/internal/store"
)

func main() {
	storeName := cli.StoreFlag(flag.CommandLine, "causal")
	seed := cli.SeedFlag(flag.CommandLine, 1)
	parallel := cli.ParallelFlag(flag.CommandLine)
	jsonOut := cli.JSONFlag(flag.CommandLine)
	objective := flag.String("objective", "all", "objective to maximize: convergence, retransmits, redelivery, violations, or all")
	budget := flag.Int("budget", 64, "schedule evaluations per objective")
	steps := flag.Int("steps", 150, "logical steps per candidate schedule")
	k := flag.Int("k", 2, "K for the kbuffer store")
	validate := flag.Bool("validate", false, "re-run each best schedule on the real TCP cluster (wall-clock, nondeterministic)")
	flag.Parse()

	if err := run(os.Stdout, *storeName, *seed, *budget, *steps, *k, *parallel, *objective, *jsonOut, *validate); err != nil {
		fmt.Fprintln(os.Stderr, "chaoshunt:", err)
		os.Exit(1)
	}
}

// objectives resolves the -objective flag ("all" fans out in canonical
// order, so the report's row order is fixed).
func objectives(name string) ([]chaossearch.Objective, error) {
	if name == "all" {
		return chaossearch.Objectives(), nil
	}
	obj, err := chaossearch.ParseObjective(name)
	if err != nil {
		return nil, err
	}
	return []chaossearch.Objective{obj}, nil
}

func run(w io.Writer, storeName string, seed int64, budget, steps, k, parallel int, objective string, jsonOut, validate bool) error {
	objs, err := objectives(objective)
	if err != nil {
		return err
	}
	out := cli.Output(w, jsonOut)

	table := bench.NewTable(
		fmt.Sprintf("adversarial chaos search: store=%s seed=%d budget=%d steps=%d", storeName, seed, budget, steps),
		"objective", "evals", "levels", "best seed", "best score", "uniform median", "uniform max",
		"downtime", "part span", "link span", "blocked", "dup copies", "quiesce rounds", "quiesce deliveries", "violations")
	table.Note = "scores and metrics are deterministic counters: a pure function of the flags, identical for any -parallel"

	type found struct {
		obj  chaossearch.Objective
		seed int64
	}
	var bests []found
	for _, obj := range objs {
		st, err := cli.OpenStore(storeName, spec.MVRTypes(), store.Options{K: k})
		if err != nil {
			return err
		}
		cfg := chaossearch.Config{
			Store: st, Seed: seed, Steps: steps,
			Objective: obj, Budget: budget, Parallel: parallel,
		}
		res, err := chaossearch.Search(cfg)
		if err != nil {
			return err
		}
		// The uniform control: an equal budget of unguided samples from a
		// decorrelated stream. The searched best should beat its median.
		cfg.Store, err = cli.OpenStore(storeName, spec.MVRTypes(), store.Options{K: k})
		if err != nil {
			return err
		}
		base, err := chaossearch.Baseline(cfg)
		if err != nil {
			return err
		}
		median, max := chaossearch.MedianScore(base)
		m := res.Best.Metrics
		table.AddRow(string(obj), res.Evals, res.Levels, res.Best.Seed, res.Best.Score, median, max,
			m.TotalDowntime(), m.PartitionSpan, m.LinkFaultSpan, m.Blocked, m.DupCopies,
			m.QuiesceRounds, m.QuiesceDeliveries, m.Violations)
		bests = append(bests, found{obj, res.Best.Seed})
	}
	if err := out.Emit(table); err != nil {
		return err
	}
	if !validate {
		return nil
	}

	// TCP re-validation rides outside the tracked pipeline: wall-clock
	// scheduling makes every count below run-dependent.
	vt := bench.NewTable(
		fmt.Sprintf("TCP cluster validation: store=%s", storeName),
		"objective", "seed", "verdict", "retransmits", "reconnects", "dup frames", "gap frames", "downtime")
	vt.Note = "wall-clock transport counts: corroborates the simulator's ranking, not byte-reproducible"
	for _, b := range bests {
		st, err := cli.OpenStore(storeName, spec.MVRTypes(), store.Options{K: k})
		if err != nil {
			return err
		}
		cfg := chaossearch.Config{Store: st, Seed: seed, Steps: steps, Objective: b.obj, Budget: budget}
		m, verr := chaossearch.Validate(cfg, b.seed, 2*time.Millisecond)
		if verr != nil {
			vt.AddRow(string(b.obj), b.seed, bench.Check(verr), "-", "-", "-", "-", "-")
			continue
		}
		vt.AddRow(string(b.obj), b.seed, "ok", m.Retransmits, m.Reconnects, m.DupFrames, m.GapFrames, m.TotalDowntime())
	}
	return out.Emit(vt)
}
