package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/spec"
	"repro/internal/store"

	_ "repro/internal/store/causal"
	_ "repro/internal/store/kbuffer"
)

// bootCluster starts an in-process 3-node causal cluster for loadgen to
// target over loopback TCP — the same code path as external served
// processes, minus process management.
func bootCluster(t *testing.T) []string {
	return bootClusterOf(t, "causal", store.Options{})
}

// bootClusterOf is bootCluster for the named store built with opts.
func bootClusterOf(t *testing.T, name string, opts store.Options) []string {
	t.Helper()
	nodes, err := cluster.BootMesh(3, func(int) cluster.Config {
		st, err := store.Open(name, spec.MVRTypes(), opts)
		if err != nil {
			t.Fatal(err)
		}
		return cluster.Config{
			Store: st, Listen: "127.0.0.1:0",
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, nd := range nodes {
			nd.Close()
		}
	})
	addrs := make([]string, len(nodes))
	for i, nd := range nodes {
		addrs[i] = nd.Addr()
	}
	return addrs
}

// TestRunJSONEmitsValidBenchTables is the -json acceptance check: the
// report must be valid JSON Lines bench tables carrying throughput,
// latency percentile, wire-byte, and retransmit columns, and the audited
// run must come back clean.
func TestRunJSONEmitsValidBenchTables(t *testing.T) {
	addrs := bootCluster(t)
	var buf bytes.Buffer
	cfg := config{
		nodes:          addrs,
		clients:        4,
		ops:            40,
		mutate:         0.5,
		objects:        3,
		seed:           7,
		audit:          true,
		quiesceTimeout: 30 * time.Second,
		jsonOut:        true,
	}
	if err := run(&buf, cfg); err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, buf.String())
	}

	type table struct {
		Title   string     `json:"title"`
		Columns []string   `json:"columns"`
		Rows    [][]string `json:"rows"`
	}
	var tables []table
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var tb table
		if err := json.Unmarshal(sc.Bytes(), &tb); err != nil {
			t.Fatalf("line %q is not a JSON bench table: %v", sc.Text(), err)
		}
		tables = append(tables, tb)
	}
	if len(tables) != 3 {
		t.Fatalf("want workload + audit + verdict tables, got %d", len(tables))
	}

	load := tables[0]
	for _, col := range []string{"ops/sec", "p50 ms", "p95 ms", "p99 ms", "wire KB", "frames", "updates/batch frame", "meta B/update", "retransmits"} {
		found := false
		for _, c := range load.Columns {
			if c == col {
				found = true
			}
		}
		if !found {
			t.Fatalf("workload table missing column %q: %v", col, load.Columns)
		}
	}
	if len(load.Rows) != 1 {
		t.Fatalf("workload rows = %v", load.Rows)
	}

	// The audit table carries one row per shard (one here: unsharded).
	audit := tables[1]
	if len(audit.Rows) != 1 || len(audit.Rows[0]) != 5 {
		t.Fatalf("audit rows = %v, want one 5-column shard row", audit.Rows)
	}
	if wf, causal := audit.Rows[0][3], audit.Rows[0][4]; wf != "ok" || causal != "ok" {
		t.Fatalf("shard row well-formed = %q, causal = %q", wf, causal)
	}
	verdict := tables[2]
	cell := func(metric string) string {
		for _, row := range verdict.Rows {
			if len(row) == 2 && row[0] == metric {
				return row[1]
			}
		}
		t.Fatalf("verdict table missing metric %q: %v", metric, verdict.Rows)
		return ""
	}
	if got := cell("converged after quiescence"); got != "ok" {
		t.Fatalf("converged = %q", got)
	}
	if got := cell("§4 property violations"); got != "0" {
		t.Fatalf("violations = %q", got)
	}
}

// TestRunTextReport smoke-tests the aligned-text renderer path.
func TestRunTextReport(t *testing.T) {
	addrs := bootCluster(t)
	var buf bytes.Buffer
	cfg := config{
		nodes:          addrs,
		clients:        2,
		ops:            15,
		mutate:         0.6,
		objects:        2,
		seed:           3,
		quiesceTimeout: 30 * time.Second,
	}
	if err := run(&buf, cfg); err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, buf.String())
	}
	out := buf.String()
	if !strings.Contains(out, "loadgen: causal, 3 nodes") || !strings.Contains(out, "retransmits") {
		t.Fatalf("unexpected report:\n%s", out)
	}
}

// TestRunAgainstServedK: loadgen settles and audits the store the cluster
// runs, options included — here a K-buffer built with K 3, whose reads age
// received updates and whose §4 violations are declared. It used to open
// the store by its report name, kbuffer(k=3), which names no registered
// store, and so settled and audited it as a store that declares nothing.
func TestRunAgainstServedK(t *testing.T) {
	addrs := bootClusterOf(t, "kbuffer", store.Options{K: 3})
	var buf bytes.Buffer
	cfg := config{
		nodes:          addrs,
		clients:        3,
		ops:            30,
		mutate:         0.5,
		objects:        3,
		seed:           5,
		audit:          true,
		quiesceTimeout: 30 * time.Second,
	}
	if err := run(&buf, cfg); err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, buf.String())
	}
	if out := buf.String(); !strings.Contains(out, "loadgen: kbuffer(k=3), 3 nodes") {
		t.Fatalf("unexpected report:\n%s", out)
	}
}
