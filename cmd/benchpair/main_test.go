package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
)

// testSpec declares two gated metrics and one ungated, as BENCHMARK.json does.
var testSpec = spec{
	Workloads: []struct {
		Name string `json:"name"`
	}{{"w1"}},
	EndToEnd: []metricSpec{{Name: "setup_s", Better: "lower", Bound: 0.25}, {Name: "alloc_bytes_per_op", Better: "lower", Bound: 0.05}},
	PerLayer: []metricSpec{{Name: "throughput_ops_s", Better: "higher"}},
}

// fakeTree is a tree whose benchmark/run.sh prints what the real one does,
// scripted: setup_s is setup + seed/1000, alloc_bytes_per_op is alloc, and
// throughput is 1000. Each run appends "<name> <workload> <seed>"
// to log. Seed voidSeed prints correct:false, and seed failSeed exits 1.
func fakeTree(t *testing.T, name, log string, setup, alloc float64, voidSeed, failSeed int) string {
	t.Helper()
	dir := t.TempDir()
	script := fmt.Sprintf(`set -eu
seed=$4
echo "%s $2 $seed" >> %q
if [ "$seed" = %d ]; then echo "benchmark: the cluster did not converge" >&2; exit 1; fi
correct=true
if [ "$seed" = %d ]; then correct=false; fi
setup=$(awk "BEGIN { print %g + $seed / 1000 }")
echo "workload $2 seed $seed window 20s"
echo "  end-to-end metrics (untraced run):"
echo "metric setup_s                                  $setup s"
echo "metric alloc_bytes_per_op                    %g B"
echo "  ungated metrics of the same window:"
echo "metric throughput_ops_s                       1000.0000 ops/s"
echo "{\"correct\":$correct,\"attempted\":4000,\"failed\":0,\"metrics\":{\"setup_s\":{\"value\":$setup,\"unit\":\"s\"}}}"
`, name, log, failSeed, voidSeed, setup, alloc)
	if err := os.MkdirAll(filepath.Join(dir, "benchmark"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "benchmark", "run.sh"), []byte(script), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// rowOf returns the row of metric in the table, by column name.
func rowOf(t *testing.T, tb *bench.Table, metric string) map[string]string {
	t.Helper()
	for _, row := range tb.Rows {
		if row[0] == metric {
			cells := map[string]string{}
			for i, c := range tb.Columns {
				cells[c] = row[i]
			}
			return cells
		}
	}
	t.Fatalf("no row for %s in %+v", metric, tb.Rows)
	return nil
}

// TestComparePairsAlternateAndVoid drives compare over two fake trees: ten
// pairs on seeds 1–10, the ref first on even pairs and the change first on
// odd ones; the pair whose change run is incorrect and the pair whose ref run
// fails are void, and the other eight are reported. The change is 20 ms
// faster to set up in every valid pair, a gain within setup_s's bound; its
// alloc_bytes_per_op is 10 % higher, worse than that metric's 5 % bound,
// which makes compare fail.
func TestComparePairsAlternateAndVoid(t *testing.T) {
	log := filepath.Join(t.TempDir(), "runs.log")
	cfg := config{
		spec:      testSpec,
		refDir:    fakeTree(t, "ref", log, 0.120, 100, 0, 7),
		changeDir: fakeTree(t, "change", log, 0.100, 110, 4, 0),
		pairs:     10,
		seed:      1,
		progress:  &bytes.Buffer{},
	}
	var out bytes.Buffer
	err := compare(bench.Output{W: &out, JSON: true}, cfg)
	if err == nil || !strings.Contains(err.Error(), "w1 alloc_bytes_per_op") {
		t.Fatalf("compare returned %v, want alloc_bytes_per_op named worse than its bound", err)
	}

	runs, err := os.ReadFile(log)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for i := range 10 {
		seed := i + 1
		first, second := "ref", "change"
		if i%2 == 1 {
			first, second = second, first
		}
		want = append(want, fmt.Sprintf("%s w1 %d", first, seed))
		if seed != 4 && seed != 7 { // a void first run voids the pair at once
			want = append(want, fmt.Sprintf("%s w1 %d", second, seed))
		}
	}
	if got := strings.Split(strings.TrimSpace(string(runs)), "\n"); strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("runs made:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}

	var tb bench.Table
	if err := json.Unmarshal(out.Bytes(), &tb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tb.Note, "8 of 10 pairs valid") || !strings.Contains(tb.Note, "seed 4: change: correct false") ||
		!strings.Contains(tb.Note, "seed 7: ref: exit status 1: benchmark: the cluster did not converge") {
		t.Fatalf("note %q does not name the two void pairs and why", tb.Note)
	}
	// Valid seeds 1 2 3 5 6 8 9 10: the ref's setup_s is 0.121 … 0.130,
	// median 0.1255 and IQR (exclusive quartiles) 0.12875 − 0.12225.
	setup := rowOf(t, &tb, "setup_s")
	for col, want := range map[string]string{"unit": "s", "ref": "0.1255", "change": "0.1055", "lower": "8/8",
		"ref IQR": "0.0065", "bound": "25%", "verdict": "ok", "gain": "yes"} {
		if setup[col] != want {
			t.Errorf("setup_s %s = %q, want %q (row %v)", col, setup[col], want, setup)
		}
	}
	alloc := rowOf(t, &tb, "alloc_bytes_per_op")
	if alloc["verdict"] != "WORSE" || alloc["ratio"] != "1.100" || alloc["lower"] != "0/8" || alloc["gain"] != "-" {
		t.Errorf("alloc_bytes_per_op row %v, want ratio 1.100, lower 0/8, WORSE and no gain", alloc)
	}
	if tp := rowOf(t, &tb, "throughput_ops_s"); tp["verdict"] != "-" || tp["bound"] != "-" || tp["gain"] != "-" {
		t.Errorf("an ungated metric with no change got row %v, want no verdict and no gain", tp)
	}
}

// TestParseRunReadsEveryMetricLine: the last line is the verdict, and every
// metric line above it is read, gated or not; output without a verdict line
// is an error.
func TestParseRunReadsEveryMetricLine(t *testing.T) {
	out := "workload w1 seed 1\nmetric setup_s   0.1110 s\nmetric cpu_us_per_op  41.5000 us\n" +
		`{"correct":true,"attempted":10,"failed":0,"metrics":{"setup_s":{"value":0.111,"unit":"s"}}}` + "\n"
	r, err := parseRun([]byte(out))
	if err != nil {
		t.Fatal(err)
	}
	if !r.Correct || r.Attempted != 10 || r.metrics["setup_s"] != 0.111 || r.metrics["cpu_us_per_op"] != 41.5 || r.units["cpu_us_per_op"] != "us" {
		t.Fatalf("parsed %+v", r)
	}
	if _, err := parseRun([]byte("metric setup_s 0.1 s\n")); err == nil {
		t.Fatal("output with no verdict line parsed")
	}
}

// TestCheckoutClonesTheRef: checkout clones the repository it runs in and
// checks the ref out, whatever the working tree holds.
func TestCheckoutClonesTheRef(t *testing.T) {
	repo := t.TempDir()
	git := func(args ...string) string {
		t.Helper()
		cmd := exec.Command("git", append([]string{"-c", "user.name=t", "-c", "user.email=t@t"}, args...)...)
		cmd.Dir = repo
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("git %v: %v: %s", args, err, out)
		}
		return strings.TrimSpace(string(out))
	}
	git("init", "-q")
	for _, v := range []string{"one", "two"} {
		if err := os.WriteFile(filepath.Join(repo, "f"), []byte(v), 0o644); err != nil {
			t.Fatal(err)
		}
		git("add", "f")
		git("commit", "-q", "-m", v)
	}
	if err := os.WriteFile(filepath.Join(repo, "f"), []byte("uncommitted"), 0o644); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(repo, ".bench_build", "ref")
	if err := checkout(repo, "HEAD~1", dir); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(filepath.Join(dir, "f")); err != nil || string(got) != "one" {
		t.Fatalf("the clone holds %q, %v; want the ref's %q", got, err, "one")
	}
}
