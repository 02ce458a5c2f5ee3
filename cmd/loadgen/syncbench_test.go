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
	cfg := benchArgs{store: "causal", ops: 120, batch: 64, seed: 7, objects: 3, jsonOut: true}
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
	if want := len(syncbenchPrefixes) * len(syncbenchWindows); len(table.Rows) != want {
		t.Fatalf("%d rows, want %d", len(table.Rows), want)
	}
	prevPull := int64(-1)
	full := ""
	for i, row := range table.Rows {
		pull, err := row[col["pull B"]].Int64()
		if err != nil {
			t.Fatal(err)
		}
		win, err := row[col["win"]].Int64()
		if err != nil {
			t.Fatal(err)
		}
		// Rows pair up per prefix (one per window): bytes shrink between
		// prefixes, stay equal within a pair.
		if i%len(syncbenchWindows) == 0 {
			if prevPull >= 0 && pull >= prevPull {
				t.Fatalf("row %d: pull bytes %d did not shrink below %d", i, pull, prevPull)
			}
			prevPull = pull
		} else if pull != prevPull {
			t.Fatalf("row %d: window %d changed pull bytes %d != %d", i, win, pull, prevPull)
		}
		if f := row[col["full B"]].String(); full == "" {
			full = f
		} else if f != full {
			t.Fatalf("row %d: full-transfer baseline moved: %s != %s", i, f, full)
		}
	}

	// The window column must pay off where it matters: for any multi-chunk
	// pull, windowed RTTs strictly below stop-and-wait.
	windowedWins := 0
	for i := 0; i+1 < len(table.Rows); i += len(syncbenchWindows) {
		chunks, _ := table.Rows[i][col["chunks"]].Int64()
		swRTT, _ := table.Rows[i][col["rtts"]].Int64()
		winRTT, _ := table.Rows[i+1][col["rtts"]].Int64()
		if chunks > 1 {
			if winRTT >= swRTT {
				t.Fatalf("row %d: windowed rtts %d not below stop-and-wait %d (%d chunks)", i, winRTT, swRTT, chunks)
			}
			windowedWins++
		}
	}
	if windowedWins == 0 {
		t.Fatal("no multi-chunk scenario exercised the window")
	}
}
