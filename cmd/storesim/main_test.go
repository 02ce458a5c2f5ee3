package main

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/store"
)

func TestRunEveryStore(t *testing.T) {
	for _, name := range store.Names() {
		var sb strings.Builder
		if err := run(&sb, name, 3, 120, 3, 7, 2, sim.Faults{}, 1, 1, false); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !strings.Contains(sb.String(), "client operations") {
			t.Fatalf("%s: unexpected output:\n%s", name, sb.String())
		}
	}
}

func TestRunWithFaults(t *testing.T) {
	var sb strings.Builder
	if err := run(&sb, "causal", 3, 100, 2, 3, 2, sim.Faults{DupProb: 0.3, Reorder: true}, 1, 1, false); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "converged after quiescence") {
		t.Fatal("missing convergence row")
	}
}

func TestRunRejectsUnknownStore(t *testing.T) {
	var sb strings.Builder
	if err := run(&sb, "nope", 2, 10, 1, 1, 1, sim.Faults{}, 1, 1, false); err == nil {
		t.Fatal("expected unknown store error")
	}
}

// TestRunMultiRunDeterministic pins the split-seed multi-run mode: the
// concatenated report is byte-identical for every worker count, and each
// run's table carries its own split stream seed.
func TestRunMultiRunDeterministic(t *testing.T) {
	var seq strings.Builder
	if err := run(&seq, "causal", 3, 60, 2, 7, 2, sim.Faults{}, 3, 1, false); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(seq.String(), "client operations"); n != 3 {
		t.Fatalf("expected 3 run tables, got %d", n)
	}
	for _, workers := range []int{2, 4} {
		var par strings.Builder
		if err := run(&par, "causal", 3, 60, 2, 7, 2, sim.Faults{}, 3, workers, false); err != nil {
			t.Fatal(err)
		}
		if par.String() != seq.String() {
			t.Errorf("parallel=%d output differs from sequential", workers)
		}
	}
}

func TestRunJSON(t *testing.T) {
	var sb strings.Builder
	if err := run(&sb, "causal", 3, 60, 2, 7, 2, sim.Faults{}, 1, 1, true); err != nil {
		t.Fatal(err)
	}
	var table struct {
		Title string     `json:"title"`
		Rows  [][]string `json:"rows"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &table); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, sb.String())
	}
	if !strings.Contains(table.Title, "storesim") || len(table.Rows) == 0 {
		t.Fatalf("unexpected JSON table: %+v", table)
	}
}
