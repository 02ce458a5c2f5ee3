package main

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/store"
)

// TestRunLivebenchDeterministic: the tracked BENCH_LIVECHECK table must be
// byte-identical across runs of the same flags and seed (everything in it
// comes from the deterministic simulator), with one row per registered store, clean verdicts on
// the causal stores, and violations actually flagged on the weak ones.
func TestRunLivebenchDeterministic(t *testing.T) {
	cfg := benchArgs{seed: 3, ops: 400, objects: 3, jsonOut: true}
	var a, b bytes.Buffer
	if err := runLivebench(&a, cfg); err != nil {
		t.Fatal(err)
	}
	if err := runLivebench(&b, cfg); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("same seed produced different livebench tables:\n%s\n%s", a.String(), b.String())
	}

	var table struct {
		Columns []string   `json:"columns"`
		Rows    [][]string `json:"rows"`
	}
	if err := json.Unmarshal(a.Bytes(), &table); err != nil {
		t.Fatalf("livebench JSON does not parse: %v\n%s", err, a.String())
	}
	if len(table.Rows) != len(store.Names()) {
		t.Fatalf("%d rows, want one per registered store (%d)", len(table.Rows), len(store.Names()))
	}
	col := map[string]int{}
	for i, c := range table.Columns {
		col[c] = i
	}
	for _, row := range table.Rows {
		name, violations := row[col["store"]], row[col["violations"]]
		peak, events := row[col["peak tracked"]], row[col["events"]]
		switch name {
		case "causal", "kbuffer", "statesync":
			if violations != "0" {
				t.Errorf("%s: %s live violations on a causally safe store", name, violations)
			}
		case "lww", "gsp":
			if violations == "0" {
				t.Errorf("%s: expected the live checker to flag violations under faults", name)
			}
		}
		if peak == "0" || events == "0" {
			t.Errorf("%s: empty measurement (peak %s, events %s)", name, peak, events)
		}
	}
}
