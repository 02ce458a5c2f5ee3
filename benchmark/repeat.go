package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// runRepeat is the -repeat mode: the repeatability check a driver makes,
// run by hand. It runs this program once per (repetition, workload) in a
// child process — workloads interleaved, repetition i on seed+i — reads
// what each child printed, and reports for every metric the median, the
// quartiles, the interquartile range and the full range as shares of the
// median. A gated metric whose interquartile range exceeds its bound is
// flagged: its median cannot be held to that bound.
// pass is the parent's other flags, which the children inherit.
func runRepeat(out io.Writer, ws []workload, n int, seed int64, pass []string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := make(map[string]map[string][]float64) // workload → metric → one value per repetition
	for i := 0; i < n; i++ {
		for _, w := range ws {
			args := append([]string{"-workload", w.name, "-seed", strconv.FormatInt(seed+int64(i), 10)}, pass...)
			cmd := exec.Command(self, args...)
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output() // waits for the child to end
			if err != nil {
				return fmt.Errorf("repetition %d of %s: %w", i+1, w.name, err)
			}
			lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
			var res result
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
				return fmt.Errorf("repetition %d of %s: result line: %w", i+1, w.name, err)
			}
			if values[w.name] == nil {
				values[w.name] = make(map[string][]float64)
			}
			// The result line carries the gated metrics; the metric lines
			// above it carry those and the ungated ones the run printed.
			for _, line := range lines {
				var name, unit string
				var v float64
				if n, _ := fmt.Sscanf(string(line), "metric %s %g %s", &name, &v, &unit); n == 3 {
					values[w.name][name] = append(values[w.name][name], v)
				}
			}
			fmt.Fprintf(out, "repetition %d/%d %-20s seed %d attempted %d failed %d\n", i+1, n, w.name, seed+int64(i), res.Attempted, res.Failed)
		}
	}
	bounds := make(map[string]float64)
	for _, d := range endToEndDefs {
		bounds[d.name] = d.bound
	}
	for _, w := range ws {
		fmt.Fprintf(out, "\n%s, %d runs\n%-36s %14s %14s %14s %8s %8s\n", w.name, n, "metric", "q1", "median", "q3", "iqr/med", "rng/med")
		names := make([]string, 0, len(values[w.name]))
		for name := range values[w.name] {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			vs := append([]float64(nil), values[w.name][name]...)
			sort.Float64s(vs)
			q1, med, q3 := quartiles(vs)
			iqr, rng := 0.0, 0.0
			if med != 0 {
				iqr, rng = (q3-q1)/med, (vs[len(vs)-1]-vs[0])/med
			}
			flag := ""
			if b, gated := bounds[name]; gated && iqr > b {
				flag = fmt.Sprintf("  NOT REPEATABLE within its bound of %.0f%%", 100*b)
			}
			fmt.Fprintf(out, "%-36s %14.4f %14.4f %14.4f %7.1f%% %7.1f%%%s\n", name, q1, med, q3, 100*iqr, 100*rng, flag)
		}
	}
	return nil
}

// quartiles cuts sorted values as Python's statistics.quantiles(values,
// n=4) does (the exclusive method), so a spread computed here is the one a
// driver using that function computes. Fewer than two values have no
// spread: all three cuts are the one value.
func quartiles(sorted []float64) (q1, q2, q3 float64) {
	n := len(sorted)
	if n < 2 {
		if n == 1 {
			return sorted[0], sorted[0], sorted[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := i*(n+1) - j*4
		return (sorted[j-1]*float64(4-delta) + sorted[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}
