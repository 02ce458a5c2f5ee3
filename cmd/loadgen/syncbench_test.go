package main

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestRunSyncbenchDeterministic: the tracked BENCH_SYNC table must be
// byte-identical across runs of the same flags and seed, and its rows must
// show catch-up cost proportional to the missing suffix (monotone pull
// bytes, fixed full-transfer baseline).
func TestRunSyncbenchDeterministic(t *testing.T) {
	cfg := benchArgs{store: "causal", ops: 120, seed: 7, objects: 3, jsonOut: true}
	var a, b bytes.Buffer
	if err := runSyncbench(&a, cfg); err != nil {
		t.Fatal(err)
	}
	if err := runSyncbench(&b, cfg); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("same seed produced different sync tables:\n%s\n%s", a.String(), b.String())
	}

	var table struct {
		Columns []string        `json:"columns"`
		Rows    [][]json.Number `json:"rows"`
	}
	if err := json.Unmarshal(a.Bytes(), &table); err != nil {
		t.Fatalf("syncbench JSON does not parse: %v\n%s", err, a.String())
	}
	col := map[string]int{}
	for i, c := range table.Columns {
		col[c] = i
	}
	if len(table.Rows) != len(syncbenchPrefixes) {
		t.Fatalf("%d rows, want one per prefix, %d", len(table.Rows), len(syncbenchPrefixes))
	}
	prevPull := int64(-1)
	full := ""
	for i, row := range table.Rows {
		pull, err := row[col["pull B"]].Int64()
		if err != nil {
			t.Fatal(err)
		}
		if prevPull >= 0 && pull >= prevPull {
			t.Fatalf("row %d: pull bytes %d did not shrink below %d", i, pull, prevPull)
		}
		prevPull = pull
		if f := row[col["full B"]].String(); full == "" {
			full = f
		} else if f != full {
			t.Fatalf("row %d: full-transfer baseline moved: %s != %s", i, f, full)
		}
	}
	if prevPull != 0 {
		t.Fatalf("a caught-up joiner pulled %d bytes, want 0", prevPull)
	}
}
