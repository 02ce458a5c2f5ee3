// Command msgbound runs the Theorem 12 message-size lower-bound
// construction (the paper's Figure 4) against the causal store and reports
// measured message sizes against the Ω(min{n−2, s−1}·lg k) bound.
//
// Usage:
//
//	msgbound -n 5 -s 4 -k 16            # one construction + decode
//	msgbound -sweep k -n 6 -s 6         # |m_g| vs k
//	msgbound -sweep n -s 64 -k 64       # |m_g| vs n
//	msgbound -sweep s -n 64 -k 64       # |m_g| vs s
//	msgbound -sweep grid                 # full (n, s, k) cross product
//	msgbound -sweep grid -parallel 8     # sweep cells on 8 workers
//	msgbound -encoding sparse            # sparse dependency clocks
//	msgbound -sweep k -json              # JSON Lines instead of tables
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/bench"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/spec"
	"repro/internal/store"
	"repro/internal/store/causal"
)

func main() {
	seed := cli.SeedFlag(flag.CommandLine, 1)
	parallel := cli.ParallelFlag(flag.CommandLine)
	jsonOut := cli.JSONFlag(flag.CommandLine)
	n := flag.Int("n", 5, "number of replicas (≥ 3)")
	s := flag.Int("s", 4, "number of MVR objects (≥ 2)")
	k := flag.Int("k", 16, "per-writer write count; g maps into [1..k]")
	sweep := flag.String("sweep", "", "sweep dimension: k, n, s, or grid")
	encoding := flag.String("encoding", "dense", "dependency encoding: dense or sparse")
	flag.Parse()

	if err := run(os.Stdout, *n, *s, *k, *seed, *parallel, *jsonOut, *sweep, *encoding); err != nil {
		fmt.Fprintln(os.Stderr, "msgbound:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, n, s, k int, seed int64, parallel int, jsonOut bool, sweep, encoding string) error {
	var opts causal.Options
	switch encoding {
	case "dense":
	case "sparse":
		opts.SparseDeps = true
	default:
		return fmt.Errorf("unknown encoding %q", encoding)
	}
	factory := func() store.Store { return causal.NewWithOptions(spec.MVRTypes(), opts) }
	out := cli.Output(w, jsonOut)

	switch sweep {
	case "":
		res, err := core.RunMessageLowerBound(factory(), core.LowerBoundConfig{N: n, S: s, K: k, Seed: seed})
		if err != nil {
			return err
		}
		t := bench.NewTable("Theorem 12 construction (Figure 4)",
			"n", "s", "k", "n'", "g", "|m_g| bits", "bound bits", "max β msg bits", "messages", "decoded", "ok")
		t.AddRow(res.N, res.S, res.K, res.NPrime, fmt.Sprintf("%v", res.G), res.MgBits,
			res.BoundBits, res.BetaMaxBits, res.TotalMessages, fmt.Sprintf("%v", res.Decoded), res.DecodeOK)
		return out.Emit(t)
	case "k":
		points, err := core.SweepGrid(factory, []int{n}, []int{s}, []int{2, 8, 32, 128, 512, 2048, 8192, 32768}, seed, parallel)
		if err != nil {
			return err
		}
		return emitSweep(out, fmt.Sprintf("|m_g| vs k (n=%d, s=%d, %s)", n, s, encoding), "k", points,
			func(p core.SweepPoint) int { return p.K })
	case "n":
		points, err := core.SweepGrid(factory, []int{3, 4, 6, 10, 18, 34, 66}, []int{s}, []int{k}, seed, parallel)
		if err != nil {
			return err
		}
		return emitSweep(out, fmt.Sprintf("|m_g| vs n (s=%d, k=%d, %s)", s, k, encoding), "n", points,
			func(p core.SweepPoint) int { return p.N })
	case "s":
		points, err := core.SweepGrid(factory, []int{n}, []int{2, 3, 5, 9, 17, 33, 65}, []int{k}, seed, parallel)
		if err != nil {
			return err
		}
		return emitSweep(out, fmt.Sprintf("|m_g| vs s (n=%d, k=%d, %s)", n, k, encoding), "s", points,
			func(p core.SweepPoint) int { return p.S })
	case "grid":
		points, err := core.SweepGrid(factory, core.GridNs, core.GridSs, core.GridKs, seed, parallel)
		if err != nil {
			return err
		}
		t := bench.NewTable(fmt.Sprintf("|m_g| over the (n, s, k) grid (%s)", encoding),
			"n", "s", "k", "n'", "|m_g| bits", "bound bits", "bits/writer", "decode ok")
		for _, p := range points {
			t.AddRow(p.N, p.S, p.K, p.NPrime, p.MgBits, p.BoundBits, p.BitsPerCoordinate, p.DecodeOK)
		}
		return out.Emit(t)
	default:
		return fmt.Errorf("unknown sweep dimension %q", sweep)
	}
}

func emitSweep(out bench.Output, title, dim string, points []core.SweepPoint, key func(core.SweepPoint) int) error {
	t := bench.NewTable(title, dim, "n'", "|m_g| bits", "bound bits", "bits/writer", "decode ok")
	for _, p := range points {
		t.AddRow(key(p), p.NPrime, p.MgBits, p.BoundBits, p.BitsPerCoordinate, p.DecodeOK)
	}
	return out.Emit(t)
}
