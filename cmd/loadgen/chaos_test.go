package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/cli"
)

// TestPercentileNearestRank pins the percentile fix: nearest-rank semantics
// (smallest sample with ≥ p of the mass at or below it), exercised at the
// sample counts where the old int(p*(n-1)) truncation under-read the tail.
func TestPercentileNearestRank(t *testing.T) {
	ms := func(vs ...int) []time.Duration {
		out := make([]time.Duration, len(vs))
		for i, v := range vs {
			out[i] = time.Duration(v) * time.Millisecond
		}
		return out
	}
	seq := func(n int) []time.Duration {
		out := make([]time.Duration, n)
		for i := range out {
			out[i] = time.Duration(i+1) * time.Millisecond
		}
		return out
	}
	cases := []struct {
		name string
		lats []time.Duration
		p    float64
		want time.Duration
	}{
		// p95 of 20 samples is the 19th order statistic (ceil(.95*20)=19),
		// i.e. the second-largest — the old code read index 18 of 0..19,
		// which is the largest only by accident of the off-by-one.
		{"p95 of 20", seq(20), 0.95, 19 * time.Millisecond},
		// p99 of 100 samples must be the 99th order statistic; the old
		// truncation gave index 98 (the p98 slot).
		{"p99 of 100", seq(100), 0.99, 99 * time.Millisecond},
		{"p50 odd", ms(1, 2, 3), 0.50, 2 * time.Millisecond},
		{"p50 even", ms(1, 2, 3, 4), 0.50, 2 * time.Millisecond},
		{"max", seq(7), 1.0, 7 * time.Millisecond},
		{"single sample", ms(5), 0.99, 5 * time.Millisecond},
		{"empty", nil, 0.5, 0},
		{"p0 clamps to min", seq(10), 0, 1 * time.Millisecond},
	}
	for _, tc := range cases {
		if got := percentile(tc.lats, tc.p); got != tc.want {
			t.Errorf("%s: percentile(%d samples, %v) = %v, want %v",
				tc.name, len(tc.lats), tc.p, got, tc.want)
		}
	}
}

// TestLatCellZeroSamples pins the all-errors rendering fix: a run where
// every operation failed must still render its stats row — "-" latency
// cells, zero-valued counters — instead of aborting before the table (and
// before the quiescence/audit pipeline) with "every operation failed".
func TestLatCellZeroSamples(t *testing.T) {
	if got := latCell(nil, 0.99); got != "-" {
		t.Fatalf("latCell(nil) = %v, want \"-\"", got)
	}
	if got := latCell([]time.Duration{}, 0.50); got != "-" {
		t.Fatalf("latCell(empty) = %v, want \"-\"", got)
	}
	if got := latCell([]time.Duration{4 * time.Millisecond}, 0.50); got != 4.0 {
		t.Fatalf("latCell(4ms sample) = %v, want 4.0", got)
	}
	// The cell must survive table rendering in both output modes.
	var buf bytes.Buffer
	tb := bench.NewTable("zero-sample row", "samples", "ops/sec", "p99 ms")
	tb.AddRow(0, 0.0, latCell(nil, 0.99))
	if err := cli.Output(&buf, false).Emit(tb); err != nil {
		t.Fatalf("text render: %v", err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("-")) {
		t.Fatalf("text output lacks the \"-\" cell:\n%s", buf.String())
	}
	buf.Reset()
	if err := cli.Output(&buf, true).Emit(tb); err != nil {
		t.Fatalf("json render: %v", err)
	}
	var doc map[string]interface{}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("json output invalid: %v\n%s", err, buf.String())
	}
}

// TestRunChaosDeterministicFaultLog is the acceptance check for -chaos: a
// seeded run whose schedule holds at least one partition and one
// crash/restart must audit clean, and rerunning with the same seed must
// emit a byte-identical JSON fault log (the first output line).
func TestRunChaosDeterministicFaultLog(t *testing.T) {
	cfg := chaosConfig{
		store:          "causal",
		nodes:          3,
		clients:        3,
		ops:            40,
		mutate:         0.5,
		objects:        3,
		seed:           42,
		quiesceTimeout: 30 * time.Second,
		jsonOut:        true,
	}

	sched := chaosSchedule(cfg)
	partitions, crashes, linkFaults := sched.Counts()
	if partitions < 1 || crashes < 1 || linkFaults < 1 {
		t.Fatalf("schedule too tame: %d partitions, %d crashes, %d link faults",
			partitions, crashes, linkFaults)
	}

	faultLog := func() string {
		var buf bytes.Buffer
		if err := runChaos(&buf, cfg); err != nil {
			t.Fatalf("runChaos: %v\noutput:\n%s", err, buf.String())
		}
		sc := bufio.NewScanner(&buf)
		if !sc.Scan() {
			t.Fatalf("no output")
		}
		return sc.Text()
	}
	first := faultLog()
	second := faultLog()
	if first != second {
		t.Fatalf("fault log not reproducible for seed %d:\n%s\nvs\n%s", cfg.seed, first, second)
	}

	// The fault log is a bench table whose rows cover every directive.
	var tb struct {
		Title   string     `json:"title"`
		Columns []string   `json:"columns"`
		Rows    [][]string `json:"rows"`
	}
	if err := json.Unmarshal([]byte(first), &tb); err != nil {
		t.Fatalf("fault log is not a JSON bench table: %v", err)
	}
	if len(tb.Rows) != len(sched.Directives) {
		t.Fatalf("fault log rows = %d, schedule has %d directives", len(tb.Rows), len(sched.Directives))
	}
}

// TestRunChaosDiskBacked runs the same chaos pipeline with
// -chaos-data-dir: histories journal to disk and the schedule's
// crash/restart recovers through durable.Open. The run must still audit
// clean, and every node must leave a journal behind.
func TestRunChaosDiskBacked(t *testing.T) {
	dataDir := t.TempDir()
	cfg := chaosConfig{
		store:          "causal",
		nodes:          3,
		clients:        2,
		ops:            30,
		mutate:         0.5,
		objects:        2,
		seed:           42,
		quiesceTimeout: 30 * time.Second,
		jsonOut:        true,
		dataDir:        dataDir,
	}
	var buf bytes.Buffer
	if err := runChaos(&buf, cfg); err != nil {
		t.Fatalf("runChaos: %v\noutput:\n%s", err, buf.String())
	}
	for i := 0; i < cfg.nodes; i++ {
		wal := filepath.Join(dataDir, fmt.Sprintf("node%d", i), "wal.log")
		info, err := os.Stat(wal)
		if err != nil {
			t.Fatalf("node %d left no journal: %v", i, err)
		}
		if info.Size() == 0 {
			t.Fatalf("node %d journal is empty", i)
		}
	}
}

// TestRunChaosFullReport checks the complete chaos report shape and the
// clean audit verdicts on the text path.
func TestRunChaosFullReport(t *testing.T) {
	cfg := chaosConfig{
		store:          "causal",
		nodes:          3,
		clients:        2,
		ops:            30,
		mutate:         0.6,
		objects:        2,
		seed:           7,
		quiesceTimeout: 30 * time.Second,
		jsonOut:        true,
	}
	var buf bytes.Buffer
	if err := runChaos(&buf, cfg); err != nil {
		t.Fatalf("runChaos: %v\noutput:\n%s", err, buf.String())
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
		t.Fatalf("want fault log + report + audit tables, got %d", len(tables))
	}

	report := tables[1]
	col := func(name string) string {
		for i, c := range report.Columns {
			if c == name && len(report.Rows) == 1 && i < len(report.Rows[0]) {
				return report.Rows[0][i]
			}
		}
		t.Fatalf("report missing column %q: %v", name, report.Columns)
		return ""
	}
	if got := col("crashes"); got != "1" {
		t.Fatalf("crashes = %q, want 1", got)
	}
	if got := col("restarts"); got != "1" {
		t.Fatalf("restarts = %q, want 1", got)
	}
	if got := col("partitions"); got == "0" {
		t.Fatalf("partitions = %q, want ≥1", got)
	}
	if col("samples") == "0" {
		t.Fatal("no latency samples collected")
	}

	audit := tables[2]
	cell := func(metric string) string {
		for _, row := range audit.Rows {
			if len(row) == 2 && row[0] == metric {
				return row[1]
			}
		}
		t.Fatalf("audit table missing metric %q: %v", metric, audit.Rows)
		return ""
	}
	if got := cell("well-formed execution"); got != "ok" {
		t.Fatalf("well-formed = %q", got)
	}
	if got := cell("converged after quiescence"); got != "ok" {
		t.Fatalf("converged = %q", got)
	}
	if got := cell("derived A causal (Def 12)"); got != "ok" {
		t.Fatalf("causal = %q", got)
	}
	if got := cell("§4 property violations"); got != "0" {
		t.Fatalf("violations = %q", got)
	}
}

// TestRunChaosLiveAudit runs the chaos pipeline, whose streaming checker is
// tapped into every node: the run must stay clean on the causal store, the
// checker must actually see the run's events, and the live-vs-post-run
// equivalence row must come out ok.
func TestRunChaosLiveAudit(t *testing.T) {
	cfg := chaosConfig{
		store:          "causal",
		nodes:          3,
		clients:        2,
		ops:            30,
		mutate:         0.6,
		objects:        2,
		seed:           9,
		quiesceTimeout: 30 * time.Second,
		jsonOut:        true,
	}
	var buf bytes.Buffer
	if err := runChaos(&buf, cfg); err != nil {
		t.Fatalf("runChaos: %v\noutput:\n%s", err, buf.String())
	}
	type table struct {
		Title string     `json:"title"`
		Rows  [][]string `json:"rows"`
	}
	var audit table
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var tb table
		if err := json.Unmarshal(sc.Bytes(), &tb); err != nil {
			t.Fatalf("line %q is not a JSON bench table: %v", sc.Text(), err)
		}
		if strings.Contains(tb.Title, "audit") {
			audit = tb
		}
	}
	cell := func(metric string) string {
		for _, row := range audit.Rows {
			if len(row) == 2 && row[0] == metric {
				return row[1]
			}
		}
		t.Fatalf("audit table missing metric %q: %v", metric, audit.Rows)
		return ""
	}
	if got := cell("live events checked"); got == "0" {
		t.Fatal("live checker saw no events")
	}
	if got := cell("live violations (final)"); got != "0" {
		t.Fatalf("live violations = %q on the causal store", got)
	}
	if got := cell("live verdict matches post-run audit"); got != "ok" {
		t.Fatalf("equivalence row = %q", got)
	}
	if got := cell("live peak tracked state"); got == "0" {
		t.Fatal("peak tracked state never rose above zero")
	}
}

// TestRunChaosShardedChurn is `loadgen -chaos -shards 2 -churn 1 -seed 3`:
// sharding, churn and the live checker compose in the one self-hosted
// driver. The rejoin catches up shard by shard, every shard's
// histories are audited and hold events, and the live verdict agrees with
// each shard's audit.
func TestRunChaosShardedChurn(t *testing.T) {
	cfg := chaosConfig{
		store:          "causal",
		nodes:          3,
		clients:        3,
		ops:            40,
		mutate:         0.5,
		objects:        3,
		seed:           3,
		quiesceTimeout: 30 * time.Second,
		jsonOut:        true,
		churn:          1,
		shards:         2,
	}
	var buf bytes.Buffer
	if err := runChaos(&buf, cfg); err != nil {
		t.Fatalf("runChaos: %v\noutput:\n%s", err, buf.String())
	}
	var report, audit struct {
		Columns []string   `json:"columns"`
		Rows    [][]string `json:"rows"`
	}
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-2], &report); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(lines[len(lines)-1], &audit); err != nil {
		t.Fatal(err)
	}
	for i, c := range report.Columns {
		if (c == "leaves" || c == "joins") && report.Rows[0][i] != "1" {
			t.Fatalf("%s = %q, want 1", c, report.Rows[0][i])
		}
	}
	cells := map[string]string{}
	for _, row := range audit.Rows {
		cells[row[0]] = row[1]
	}
	for s := 0; s < cfg.shards; s++ {
		if got := cells[fmt.Sprintf("shard %d events", s)]; got == "" || got == "0" {
			t.Fatalf("shard %d audited %q events: %v", s, got, audit.Rows)
		}
	}
	for metric, want := range map[string]string{
		"well-formed execution":               "ok",
		"converged after quiescence":          "ok",
		"derived A causal (Def 12)":           "ok",
		"live verdict matches post-run audit": "ok",
	} {
		if got := cells[metric]; got != want {
			t.Fatalf("%s = %q, want %q", metric, got, want)
		}
	}
}

// TestRunChaosDeclaredDeviations runs the chaos pipeline on the two stores
// that deviate from §4 by design. kbuffer withholds what it receives until
// reads elapse, so the run converges only if settling surfaces the aged
// reads (loadgen's own copy of the pipeline skipped them and reported
// "diverged after quiescence"); and for a store whose store.Conformance
// declares a §4 violation the count is a figure in its row, not the run's
// error.
func TestRunChaosDeclaredDeviations(t *testing.T) {
	for _, name := range []string{"kbuffer", "gsp"} {
		cfg := chaosConfig{
			store:          name,
			nodes:          3,
			clients:        3,
			ops:            40,
			mutate:         0.5,
			objects:        3,
			seed:           1,
			quiesceTimeout: 30 * time.Second,
			jsonOut:        true,
		}
		var buf bytes.Buffer
		if err := runChaos(&buf, cfg); err != nil {
			t.Fatalf("%s: runChaos: %v\noutput:\n%s", name, err, buf.String())
		}
		var audit struct {
			Rows [][]string `json:"rows"`
		}
		lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
		if err := json.Unmarshal(lines[len(lines)-1], &audit); err != nil {
			t.Fatal(err)
		}
		cells := map[string]string{}
		for _, row := range audit.Rows {
			cells[row[0]] = row[1]
		}
		if got := cells["converged after quiescence"]; got != "ok" {
			t.Fatalf("%s: converged = %q", name, got)
		}
		if got := cells["§4 property violations"]; got == "" || got == "0" {
			t.Fatalf("%s: §4 violations = %q; the store deviates by design and the row must say so", name, got)
		}
	}
}
