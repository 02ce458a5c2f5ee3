// Command explore exhaustively model-checks a named scripted workload
// against a store: every interleaving of operations and deliveries is
// enumerated by the parallel frontier engine, invariants are checked in
// every reachable state, and every fully-drained final state is checked for
// convergence. Output is byte-identical for every -parallel value.
//
// Usage:
//
//	explore -store causal -script twowriter
//	explore -store lww -script twowriter      # finds the inversion schedule
//	explore -store gsp -script race
//	explore -parallel 8 -script fourwriter    # spread replays over 8 workers
//	explore -json -store lww                  # machine-readable verdict
//	explore -list
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/cli"
	"repro/internal/explore"
	"repro/internal/model"
	"repro/internal/spec"
	"repro/internal/store"
)

// scripts is the registry of named workloads.
var scripts = map[string]explore.Script{
	// twowriter: a dependent write chain racing a concurrent writer.
	"twowriter": {
		Replicas: 3,
		Ops: []explore.Op{
			{Replica: 0, Object: "x", Op: model.Write("a")},
			{Replica: 0, Object: "y", Op: model.Write("b")},
			{Replica: 1, Object: "x", Op: model.Write("c")},
			{Replica: 2, Object: "x", Op: model.Read()},
			{Replica: 2, Object: "y", Op: model.Read()},
		},
	},
	// race: three replicas write the same register concurrently.
	"race": {
		Replicas: 3,
		Ops: []explore.Op{
			{Replica: 0, Object: "x", Op: model.Write("a")},
			{Replica: 1, Object: "x", Op: model.Write("b")},
			{Replica: 2, Object: "x", Op: model.Write("c")},
		},
	},
	// chain: a three-link causal chain across objects and replicas.
	"chain": {
		Replicas: 3,
		Ops: []explore.Op{
			{Replica: 0, Object: "x", Op: model.Write("a")},
			{Replica: 1, Object: "x", Op: model.Read()},
			{Replica: 1, Object: "y", Op: model.Write("b")},
			{Replica: 2, Object: "y", Op: model.Read()},
			{Replica: 2, Object: "z", Op: model.Write("c")},
		},
	},
	// fourwriter: four replicas write two objects concurrently — a much
	// larger frontier (~135k states) for exercising parallel exploration.
	"fourwriter": {
		Replicas: 4,
		Ops: []explore.Op{
			{Replica: 0, Object: "x", Op: model.Write("a")},
			{Replica: 1, Object: "y", Op: model.Write("b")},
			{Replica: 2, Object: "x", Op: model.Write("c")},
			{Replica: 3, Object: "y", Op: model.Write("d")},
		},
	},
}

func main() {
	storeName := cli.StoreFlag(flag.CommandLine, "causal")
	parallel := cli.ParallelFlag(flag.CommandLine)
	jsonOut := cli.JSONFlag(flag.CommandLine)
	scriptName := flag.String("script", "twowriter", "named script (see -list)")
	k := flag.Int("k", 2, "K for the kbuffer store")
	maxStates := flag.Int("maxstates", 200000, "state budget")
	list := flag.Bool("list", false, "list available scripts")
	flag.Parse()

	if *list {
		names := make([]string, 0, len(scripts))
		for name := range scripts {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Printf("%-10s %d replicas, %d ops\n", name, scripts[name].Replicas, len(scripts[name].Ops))
		}
		return
	}
	if err := run(os.Stdout, *storeName, *scriptName, *k, *maxStates, *parallel, *jsonOut); err != nil {
		fmt.Fprintln(os.Stderr, "explore:", err)
		os.Exit(1)
	}
}

// report is the machine-readable exploration verdict emitted with -json.
type report struct {
	Store       string `json:"store"`
	Script      string `json:"script"`
	States      int    `json:"states"`
	FinalStates int    `json:"final_states"`
	Transitions int    `json:"transitions"`
	// Verdict is "ok" when every reachable state satisfied the invariants
	// and every final state converged, else "violation".
	Verdict   string `json:"verdict"`
	Violation string `json:"violation,omitempty"`
}

func run(w io.Writer, storeName, scriptName string, k, maxStates, parallel int, jsonOut bool) error {
	script, ok := scripts[scriptName]
	if !ok {
		return fmt.Errorf("unknown script %q (use -list)", scriptName)
	}
	st, err := cli.OpenStore(storeName, spec.MVRTypes(), store.Options{K: k})
	if err != nil {
		return err
	}
	res, expErr := explore.Explore(script, explore.Config{Store: st, MaxStates: maxStates, Parallel: parallel})
	if errors.Is(expErr, explore.ErrBudgetExceeded) {
		return expErr // a resource limit, not a finding about the store
	}
	if jsonOut {
		rep := report{Store: st.Name(), Script: scriptName, Verdict: "ok"}
		if res != nil {
			rep.States, rep.FinalStates, rep.Transitions = res.States, res.FinalStates, res.Transitions
		}
		if expErr != nil {
			rep.Verdict = "violation"
			rep.Violation = expErr.Error()
		}
		data, err := json.Marshal(rep)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, string(data))
		return nil
	}
	if res != nil {
		fmt.Fprintf(w, "store %s, script %s: %d states, %d final states, %d transitions\n",
			st.Name(), scriptName, res.States, res.FinalStates, res.Transitions)
	}
	if expErr != nil {
		fmt.Fprintf(w, "VIOLATION: %v\n", expErr)
		return nil // the violation itself is the (successful) finding
	}
	fmt.Fprintln(w, "all reachable states satisfy the invariants; all final states converged")
	return nil
}
