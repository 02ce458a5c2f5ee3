// Command benchpair compares two trees of this repository on the benchmark
// under benchmark/, run as a black box: for each workload and each of N
// seeds it runs both trees' `bash benchmark/run.sh -workload W -seed s`,
// alternating which goes first, and reports per metric the two medians, the
// paired median ratio (change over ref), the pairs in which the change was
// lower, the ref's interquartile range, a verdict against BENCHMARK.json's
// bound for the gated metrics (the change's median against the ref's), and
// whether the change is a gain: better in at least nine pairs of ten, by a
// median gap wider than the ref's interquartile range. A run that is not
// correct, or failed an operation, voids its pair.
//
// Usage, from the repository root:
//
//	benchpair -ref 69827df                       # this tree against a commit
//	benchpair -ref cbae576 -change 22b8ed1       # one commit against another
//	benchpair -ref HEAD~1 -workloads mixed-small-closed,read-populated -pairs 10 -seed 1
//
// A ref is checked out by `git clone` of this repository into
// .bench_build/ref (the change, when it is a ref too, into
// .bench_build/change), removed when the comparison ends; each tree's
// run.sh builds under its own .bench_build. It exits 1 when a gated metric
// is worse than its bound.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"repro/internal/bench"
	"repro/internal/cli"
)

func main() {
	ref := flag.String("ref", "", "git ref of the tree to compare against (required)")
	change := flag.String("change", "", "git ref of the changed tree (default: this working tree)")
	workloads := flag.String("workloads", "", "comma-separated workloads (default: every one in BENCHMARK.json)")
	pairs := flag.Int("pairs", 10, "pairs of runs per workload")
	seed := flag.Int64("seed", 1, "seed of the first pair; pair i runs seed+i")
	jsonOut := cli.JSONFlag(flag.CommandLine)
	flag.Parse()
	if *ref == "" || *pairs < 1 || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}
	err := func() error {
		spec, err := readSpec("BENCHMARK.json")
		if err != nil {
			return err
		}
		// The clones go when the comparison ends: a tree of Go files inside
		// this one would be walked by every `gofmt -l .` after it.
		refDir := filepath.Join(".bench_build", "ref")
		defer os.RemoveAll(refDir)
		if err := checkout(".", *ref, refDir); err != nil {
			return err
		}
		changeDir := "."
		if *change != "" {
			changeDir = filepath.Join(".bench_build", "change")
			defer os.RemoveAll(changeDir)
			if err := checkout(".", *change, changeDir); err != nil {
				return err
			}
		}
		cfg := config{spec: spec, refDir: refDir, changeDir: changeDir, ref: *ref, change: *change,
			pairs: *pairs, seed: *seed, progress: os.Stderr}
		if *workloads != "" {
			cfg.workloads = strings.Split(*workloads, ",")
		}
		return compare(cli.Output(os.Stdout, *jsonOut), cfg)
	}()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchpair:", err)
		os.Exit(1)
	}
}

// spec is what benchpair reads of BENCHMARK.json.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// metricSpec is one metric's declaration; only gated metrics have a bound.
type metricSpec struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(path string) (spec, error) {
	var s spec
	data, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(data, &s)
	}
	if err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// checkout clones the repository at root into dir, afresh, and checks out
// ref there.
func checkout(root, ref, dir string) error {
	sha, err := exec.Command("git", "-C", root, "rev-parse", "--verify", ref+"^{commit}").Output()
	if err != nil {
		return fmt.Errorf("git rev-parse %s: %w", ref, err)
	}
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	for _, args := range [][]string{
		{"clone", "-q", "--no-checkout", root, dir},
		{"-C", dir, "checkout", "-q", "--detach", strings.TrimSpace(string(sha))},
	} {
		if out, err := exec.Command("git", args...).CombinedOutput(); err != nil {
			return fmt.Errorf("git %s: %w: %s", strings.Join(args, " "), err, out)
		}
	}
	return nil
}

// config is one comparison: the trees and what they were checked out from
// (change: "" for the working tree), the workloads (nil: every one the spec
// declares) and the pairs to run of each.
type config struct {
	spec              spec
	refDir, changeDir string
	ref, change       string
	workloads         []string
	pairs             int
	seed              int64
	progress          io.Writer
}

// run is what one benchmark run printed: its verdict line and its metrics.
type run struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	metrics   map[string]float64
	units     map[string]string
}

// pair is one seed's two runs, or why it is void.
type pair struct {
	seed        int64
	ref, change run
	void        string
}

func compare(out bench.Output, cfg config) error {
	workloads := cfg.workloads
	if workloads == nil {
		for _, w := range cfg.spec.Workloads {
			workloads = append(workloads, w.Name)
		}
	}
	var worse []string
	for _, w := range workloads {
		var ps []pair
		for i := range cfg.pairs {
			p := pair{seed: cfg.seed + int64(i)}
			// Even pairs run the ref first, odd ones the change, so that
			// neither tree always runs on a machine the other just warmed.
			sides := []struct {
				name string
				dir  string
				into *run
			}{{"ref", cfg.refDir, &p.ref}, {"change", cfg.changeDir, &p.change}}
			if i%2 == 1 {
				slices.Reverse(sides)
			}
			for _, s := range sides {
				r, err := runTree(s.dir, w, p.seed)
				switch {
				case err != nil:
					p.void = fmt.Sprintf("seed %d: %s: %v", p.seed, s.name, err)
				case !r.Correct || r.Failed > 0:
					p.void = fmt.Sprintf("seed %d: %s: correct %v, %d of %d ops failed", p.seed, s.name, r.Correct, r.Failed, r.Attempted)
				}
				*s.into = r
				if p.void != "" {
					break
				}
			}
			fmt.Fprintf(cfg.progress, "benchpair: %s pair %d/%d seed %d %s\n", w, i+1, cfg.pairs, p.seed, orDone(p.void))
			ps = append(ps, p)
		}
		t, bad := table(w, cfg, ps)
		if err := out.Emit(t); err != nil {
			return err
		}
		worse = append(worse, bad...)
	}
	if len(worse) > 0 {
		return fmt.Errorf("worse than the bound: %s", strings.Join(worse, ", "))
	}
	return nil
}

func orDone(void string) string {
	if void == "" {
		return "done"
	}
	return "void: " + void
}

// runTree runs one workload once in a tree and parses what it printed.
func runTree(dir, workload string, seed int64) (run, error) {
	cmd := exec.Command("bash", "benchmark/run.sh", "-workload", workload, "-seed", strconv.FormatInt(seed, 10))
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.Output()
	if err != nil {
		return run{}, fmt.Errorf("%w: %s", err, lastLine(stderr.Bytes()))
	}
	return parseRun(stdout)
}

// parseRun reads a run's output: the last line is its verdict, and each
// `metric <name> <value> <unit>` line above it one metric, gated or not.
func parseRun(stdout []byte) (run, error) {
	r := run{metrics: map[string]float64{}, units: map[string]string{}}
	if err := json.Unmarshal([]byte(lastLine(stdout)), &r); err != nil {
		return r, fmt.Errorf("the last line is not a verdict: %w", err)
	}
	for _, line := range strings.Split(string(stdout), "\n") {
		var name, unit string
		var v float64
		if n, _ := fmt.Sscanf(line, "metric %s %g %s", &name, &v, &unit); n == 3 {
			r.metrics[name], r.units[name] = v, unit
		}
	}
	return r, nil
}

func lastLine(b []byte) string {
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	return lines[len(lines)-1]
}

// table reports one workload's valid pairs, metric by metric, in
// BENCHMARK.json's order and then any the spec does not declare; it also
// returns the gated metrics worse than their bound.
func table(workload string, cfg config, ps []pair) (*bench.Table, []string) {
	change := cfg.change
	if change == "" {
		change = "the working tree"
	}
	t := bench.NewTable(fmt.Sprintf("benchpair %s: %s against %s", workload, cfg.ref, change),
		"metric", "unit", "ref", "change", "ratio", "lower", "ref IQR", "bound", "verdict", "gain")
	var valid []pair
	var voids []string
	for _, p := range ps {
		if p.void != "" {
			voids = append(voids, p.void)
		} else {
			valid = append(valid, p)
		}
	}
	t.Note = fmt.Sprintf("%d of %d pairs valid; ratio is the median of change/ref per pair; gain: better in ≥ 9 of 10 pairs by a median gap wider than the ref's IQR", len(valid), len(ps))
	if len(voids) > 0 {
		t.Note += "; void: " + strings.Join(voids, "; ")
	}
	if len(valid) == 0 {
		return t, []string{workload + ": no valid pair"}
	}
	decls := append(append([]metricSpec(nil), cfg.spec.EndToEnd...), cfg.spec.PerLayer...)
	var names []string
	for _, d := range decls {
		names = append(names, d.Name)
	}
	var extra []string
	for name := range valid[0].ref.metrics {
		if !slices.Contains(names, name) {
			extra = append(extra, name)
		}
	}
	slices.Sort(extra)
	var worse []string
	for _, name := range append(names, extra...) {
		var d metricSpec
		if i := slices.IndexFunc(decls, func(m metricSpec) bool { return m.Name == name }); i >= 0 {
			d = decls[i]
		}
		var refs, changes, ratios []float64
		lower, better := 0, 0
		for _, p := range valid {
			a, okA := p.ref.metrics[name]
			b, okB := p.change.metrics[name]
			if !okA || !okB {
				continue
			}
			refs, changes = append(refs, a), append(changes, b)
			if b < a {
				lower++
			}
			if (d.Better == "lower" && b < a) || (d.Better == "higher" && b > a) {
				better++
			}
			if a != 0 {
				ratios = append(ratios, b/a)
			} else if b == 0 {
				ratios = append(ratios, 1)
			}
		}
		if len(refs) == 0 {
			continue
		}
		refMed, changeMed, ratio := median(refs), median(changes), median(ratios)
		q1, _, q3 := quartiles(refs)
		bound, verdict := "-", "-"
		if d.Bound > 0 {
			// The bound holds the change's median to the ref's.
			bound = fmt.Sprintf("%g%%", 100*d.Bound)
			verdict = "ok"
			if (d.Better == "lower" && changeMed > refMed*(1+d.Bound)) || (d.Better == "higher" && changeMed < refMed*(1-d.Bound)) {
				verdict = "WORSE"
				worse = append(worse, workload+" "+name)
			}
		}
		gain := "-"
		if 10*better >= 9*len(refs) && math.Abs(changeMed-refMed) > q3-q1 &&
			(d.Better == "lower") == (changeMed < refMed) {
			gain = "yes"
		}
		t.AddRow(name, valid[0].ref.units[name], num(refMed), num(changeMed), fmt.Sprintf("%.3f", ratio),
			fmt.Sprintf("%d/%d", lower, len(refs)), num(q3-q1), bound, verdict, gain)
	}
	return t, worse
}

func num(v float64) string { return strconv.FormatFloat(v, 'g', 4, 64) }

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := slices.Clone(vs)
	slices.Sort(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// quartiles cuts values as Python's statistics.quantiles(values, n=4)
// does (the exclusive method), as benchmark -repeat does. Fewer than two
// values have no spread: all three cuts are the one value.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := slices.Clone(vs)
	slices.Sort(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}
