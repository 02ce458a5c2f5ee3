package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"
)

// contract is BENCHMARK.json as a driver reads it.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []contractMetric `json:"end_to_end"`
	PerLayer   []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name, Unit, Better string
	Bound              float64
}

func readContract(t *testing.T) contract {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestContractMatchesTables holds BENCHMARK.json and the program's own
// tables together: same workloads and reasons, same metrics, units,
// directions and bounds, in the same order.
func TestContractMatchesTables(t *testing.T) {
	c := readContract(t)
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(c.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if c.Workloads[i].Name != w.name || c.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the program {%s %s}", i, c.Workloads[i], w.name, w.why)
		}
	}
	same := func(kind string, got []contractMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("BENCHMARK.json has %d %s metrics, the program %d", len(got), kind, len(want))
		}
		for i, d := range want {
			if got[i] != (contractMetric{d.name, d.unit, d.better, d.bound}) {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the program %+v", kind, i, got[i], d)
			}
		}
	}
	same("end-to-end", c.EndToEnd, endToEndDefs)
	same("per-layer", c.PerLayer, perLayerDefs)
	if c.EndToEnd[0].Name != "setup_s" {
		t.Errorf("the first end-to-end metric must be setup_s, got %s", c.EndToEnd[0].Name)
	}
}

var metricLine = regexp.MustCompile(`^metric (\S+)\s+(\S+) (\S+)$`)

// TestQuickPass runs every workload once untraced and once traced on short
// windows and checks what the runs print: every metric BENCHMARK.json names
// for that kind of run exactly once with its unit, the result carrying
// exactly those metrics, the verification having run, a span file whose
// parents all resolve, an empty journal directory afterwards, and no
// goroutine left behind. It asserts no timing.
func TestQuickPass(t *testing.T) {
	c := readContract(t)
	goroutines := runtime.NumGoroutine()
	for i := range workloads {
		w := &workloads[i]
		for _, traced := range []bool{false, true} {
			want := c.EndToEnd
			if traced {
				want = c.PerLayer
			}
			var out bytes.Buffer
			journals, spansDir := t.TempDir(), t.TempDir()
			res, err := run(config{
				w: w, seed: 42, seconds: 0.5, trace: traced, traceOut: spansDir,
				work: t.TempDir(), journals: journals, quick: true, out: &out,
			})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s traced=%v: result %+v", w.name, traced, res)
			}
			if !strings.Contains(out.String(), "verification passed") {
				t.Errorf("%s traced=%v: the run does not say its verification passed", w.name, traced)
			}
			printed := make(map[string]string)
			for _, line := range strings.Split(out.String(), "\n") {
				if m := metricLine.FindStringSubmatch(line); m != nil {
					if _, twice := printed[m[1]]; twice {
						t.Errorf("%s traced=%v: metric %s printed twice", w.name, traced, m[1])
					}
					printed[m[1]] = m[3]
				}
			}
			for _, m := range want {
				if unit, ok := printed[m.Name]; !ok || unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s printed with unit %q (printed: %v), want %q", w.name, traced, m.Name, unit, ok, m.Unit)
				}
				if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: result lacks metric %s in %s", w.name, traced, m.Name, m.Unit)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: result has %d metrics, want exactly the %d named", w.name, traced, len(res.Metrics), len(want))
			}
			if left, _ := os.ReadDir(journals); len(left) != 0 {
				t.Errorf("%s traced=%v: journal directory not cleaned up: %v", w.name, traced, left)
			}
			if traced {
				checkSpanFile(t, filepath.Join(spansDir, "spans.jsonl"))
				if w.durable == (res.Metrics["durable.appends_per_op"].Value == 0) {
					t.Errorf("%s: durable=%v but durable.appends_per_op is %v", w.name, w.durable, res.Metrics["durable.appends_per_op"].Value)
				}
			}
		}
	}
	// Node.Close waits for its goroutines; give the runtime a moment to
	// retire the ones that were already returning.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines before the runs, %d after:\n%s", goroutines, n, buf[:runtime.Stack(buf, true)])
	}
}

// checkSpanFile reads a span file back and checks its written form: every
// line a span with every field, every parent present, roots present.
func checkSpanFile(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var spans []span
	roots := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		dec := json.NewDecoder(bytes.NewReader(sc.Bytes()))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&s); err != nil {
			t.Fatalf("%s: %v in line %q", path, err, sc.Text())
		}
		if s.Layer == "" || s.Name == "" {
			t.Fatalf("%s: span without layer or name: %q", path, sc.Text())
		}
		if s.Parent == 0 {
			roots++
			if s.Name != "client.do" || s.Op != s.ID {
				t.Fatalf("%s: root span is not a client.do naming itself as op: %q", path, sc.Text())
			}
		}
		spans = append(spans, s)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if roots == 0 || len(spans) <= roots {
		t.Fatalf("%s: %d spans, %d roots", path, len(spans), roots)
	}
	if err := checkSpans(spans); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	sum := 0.0
	for _, share := range layerShares(spans) {
		sum += share
	}
	if sum < 99.999 || sum > 100.001 {
		t.Errorf("%s: layer shares sum to %v, want 100", path, sum)
	}
}

func stream(w *workload, seed int64, client, n int) []request {
	g := newGenerator(w, seed, client)
	rs := make([]request, n)
	for i := range rs {
		rs[i] = g.next()
	}
	return rs
}

func TestGeneratorIsDeterministic(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		for client := 0; client < clients; client++ {
			a, b := stream(w, 7, client, 500), stream(w, 7, client, 500)
			if !reflect.DeepEqual(a, b) {
				t.Errorf("%s client %d: the same seed gave two different streams", w.name, client)
			}
			if reflect.DeepEqual(a, stream(w, 8, client, 500)) {
				t.Errorf("%s client %d: seeds 7 and 8 gave the same stream", w.name, client)
			}
		}
		if reflect.DeepEqual(stream(w, 7, 0, 500), stream(w, 7, 1, 500)) {
			t.Errorf("%s: the two clients of one seed send the same stream", w.name)
		}
		writes := 0
		for _, r := range stream(w, 7, 0, 500) {
			if r.key < 0 || r.key >= w.keys {
				t.Fatalf("%s: key %d outside %d keys", w.name, r.key, w.keys)
			}
			if r.write {
				writes++
				if len(r.value) != w.valueBytes {
					t.Fatalf("%s: value %q is %d bytes, want %d", w.name, r.value, len(r.value), w.valueBytes)
				}
			}
		}
		if got := float64(writes) / 500; got < w.writeFrac-0.1 || got > w.writeFrac+0.1 {
			t.Errorf("%s: %v of requests are writes, want about %v", w.name, got, w.writeFrac)
		}
	}
}

func TestOpenSchedule(t *testing.T) {
	for _, c := range []struct {
		client, k int
		want      time.Duration
	}{
		{0, 0, 0}, {1, 0, 250 * time.Microsecond},
		{0, 1, 500 * time.Microsecond}, {1, 1, 750 * time.Microsecond},
		{0, 4000, 2 * time.Second}, {1, 3, 1750 * time.Microsecond},
	} {
		if got := openDue(c.client, c.k, 4000); got != c.want {
			t.Errorf("request %d of client %d at 4000 ops/s is due at %v, want %v", c.k, c.client, got, c.want)
		}
	}
}

func TestPercentileIsNearestRank(t *testing.T) {
	seq := func(n int) []int64 {
		s := make([]int64, n)
		for i := range s {
			s[i] = int64(i + 1)
		}
		return s
	}
	for _, c := range []struct {
		n    int
		p    float64
		want int64
	}{
		{20, 0.95, 19}, {20, 0.50, 10}, {100, 0.99, 99}, {100, 0.999, 100},
		{4, 0.50, 2}, {5, 0.50, 3}, {1, 0.99, 1}, {10, 0, 1}, {10, 1, 10}, {0, 0.5, 0},
	} {
		if got := percentile(seq(c.n), c.p); got != c.want {
			t.Errorf("p%v of 1..%d = %d, want %d", 100*c.p, c.n, got, c.want)
		}
	}
}

func TestQuartilesCutAsPythonDoes(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Errorf("quartiles of 1,2,4,8,16 = %v %v %v, want 1.5 4 12", q1, q2, q3)
	}
}

// TestSelfTimeArithmetic checks self times and layer shares on a span tree
// built by hand: children inside their parent, a grandchild, and a peer's
// span that outlives the request.
func TestSelfTimeArithmetic(t *testing.T) {
	spans := []span{
		{ID: 100, Op: 100, Layer: "cluster", Name: "client.do", Node: 0, Start: 0, End: 100},
		{ID: 1, Parent: 100, Op: 100, Layer: "store", Name: "store.state_digest", Node: 0, Start: 10, End: 30},
		{ID: 2, Parent: 100, Op: 100, Layer: "durable", Name: "durable.append", Node: 0, Start: 40, End: 90},
		{ID: 3, Parent: 2, Op: 100, Layer: "store", Name: "store.pending_message", Node: 0, Start: 50, End: 60},
		{ID: 4, Parent: 100, Op: 100, Layer: "store", Name: "store.receive", Node: 1, Start: 20, End: 200},
	}
	if err := checkSpans(spans); err != nil {
		t.Fatal(err)
	}
	self := selfTimes(spans)
	for id, want := range map[uint64]int64{100: 30, 1: 20, 2: 40, 3: 10, 4: 180} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	shares := layerShares(spans)
	for layer, want := range map[string]float64{"cluster": 30, "store": 30, "durable": 40} {
		if shares[layer] != want {
			t.Errorf("share of %s = %v, want %v", layer, shares[layer], want)
		}
	}
	if got := nameShare(spans, "store.state_digest"); got != 20 {
		t.Errorf("share of store.state_digest = %v, want 20", got)
	}

	orphan := append(append([]span(nil), spans...), span{ID: 5, Parent: 77, Op: 77, Layer: "store", Name: "store.do_read", Start: 1, End: 2})
	if checkSpans(orphan) == nil {
		t.Error("a span whose parent does not exist passed the check")
	}
	outside := append(append([]span(nil), spans...), span{ID: 5, Parent: 100, Op: 100, Layer: "store", Name: "store.do_read", Node: 0, Start: 90, End: 110})
	if checkSpans(outside) == nil {
		t.Error("a child that ends after its parent on the same node passed the check")
	}
}
