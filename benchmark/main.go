// Command benchmark is the repository's benchmark: it boots a 3-node causal
// cluster in this process over loopback TCP, drives it from two pinned
// clients with one of four seeded workloads, checks the outputs, and prints
// every metric by name with its unit. README.md in this directory defines
// the workloads and metrics; BENCHMARK.json at the repository root is the
// contract a driver reads.
//
//	bash benchmark/run.sh -workload mixed-small-open -seed 7
//	bash benchmark/run.sh -workload write-durable -seed 7 -trace 1
//	bash benchmark/run.sh -repeat 10            # all workloads, interleaved
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// metricDef names one metric. bound is the share of the median by which an
// end-to-end metric may worsen before a change counts as a regression;
// per-layer metrics have none. BENCHMARK.json repeats these tables and
// bench_test.go holds the two together.
type metricDef struct {
	name, unit, better string
	bound              float64
}

var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"alloc_bytes_per_op", "B", "lower", 0.05},
	{"wire_bytes_per_op", "B", "lower", 0.05},
}

// The first four per-layer metrics are end-to-end in kind — what a client
// of the store feels — but not gated: on the shared two-vCPU host the
// benchmark was written on, neighbours slow the CPU by 10-40 % for minutes
// at a time, and no time-based metric repeated within its bound (README.md,
// "Demoted metrics"). They are measured in every run and printed by both
// kinds of run.
var perLayerDefs = []metricDef{
	{name: "throughput_ops_s", unit: "ops/s", better: "higher"},
	{name: "read_ms_p50", unit: "ms", better: "lower"},
	{name: "write_ms_p50", unit: "ms", better: "lower"},
	{name: "cpu_us_per_op", unit: "us", better: "lower"},
	{name: "store.do_read_us_p50", unit: "us", better: "lower"},
	{name: "store.do_write_us_p50", unit: "us", better: "lower"},
	{name: "store.receive_us_p50", unit: "us", better: "lower"},
	{name: "store.pending_message_us_p50", unit: "us", better: "lower"},
	{name: "store.sees_calls_per_op", unit: "count", better: "lower"},
	{name: "store.state_digest_us_p50", unit: "us", better: "lower"},
	{name: "store.state_digest_calls_per_read", unit: "count", better: "lower"},
	{name: "store.busy_frac", unit: "frac", better: "lower"},
	{name: "durable.append_us_p50", unit: "us", better: "lower"},
	{name: "durable.append_us_p99", unit: "us", better: "lower"},
	{name: "durable.appends_per_op", unit: "count", better: "lower"},
	{name: "durable.busy_frac", unit: "frac", better: "lower"},
	{name: "durable.disk_bytes_per_op", unit: "B", better: "lower"},
	{name: "durable.recover_ms_per_kevent", unit: "ms", better: "lower"},
	{name: "durable.device_append_us_p50", unit: "us", better: "lower"},
	{name: "cluster.client_do_us_p50", unit: "us", better: "lower"},
	{name: "cluster.node_do_us_p50", unit: "us", better: "lower"},
	{name: "cluster.transport_us_p50", unit: "us", better: "lower"},
	{name: "cluster.self_us_p50", unit: "us", better: "lower"},
	{name: "cluster.events_per_op", unit: "count", better: "lower"},
	{name: "cluster.sends_per_write", unit: "count", better: "lower"},
	{name: "cluster.frames_per_op", unit: "count", better: "lower"},
	{name: "cluster.updates_per_frame", unit: "count", better: "higher"},
	{name: "cluster.replication_lag_ms_p50", unit: "ms", better: "lower"},
	{name: "cluster.replication_lag_ms_p99", unit: "ms", better: "lower"},
	{name: "client.drain_ms", unit: "ms", better: "lower"},
	{name: "cluster.retransmits", unit: "count", better: "lower"},
	{name: "cluster.reconnects", unit: "count", better: "lower"},
	{name: "cluster.dup_frames", unit: "count", better: "lower"},
	{name: "cluster.gap_frames", unit: "count", better: "lower"},
	{name: "cluster.failed_links", unit: "count", better: "lower"},
	{name: "cluster.restart_s", unit: "s", better: "lower"},
	{name: "wire.batch_encode_ns_per_update", unit: "ns", better: "lower"},
	{name: "wire.batch_bytes_per_update", unit: "B", better: "lower"},
	{name: "wire.event_encode_ns", unit: "ns", better: "lower"},
	{name: "wire.event_decode_ns", unit: "ns", better: "lower"},
	{name: "wire.deflate_mb_s", unit: "MB/s", better: "higher"},
	{name: "wire.inflate_mb_s", unit: "MB/s", better: "higher"},
	{name: "membership.forest_append_ns", unit: "ns", better: "lower"},
	{name: "membership.root_us", unit: "us", better: "lower"},
	{name: "livecheck.observe_us_p50", unit: "us", better: "lower"},
	{name: "livecheck.events", unit: "count", better: "higher"},
	{name: "livecheck.peak_tracked", unit: "count", better: "lower"},
	{name: "livecheck.violations", unit: "count", better: "lower"},
	{name: "audit.build_audit_ms", unit: "ms", better: "lower"},
	{name: "audit.check_causal_ms", unit: "ms", better: "lower"},
	{name: "client.read_ms_p99", unit: "ms", better: "lower"},
	{name: "client.read_ms_p999", unit: "ms", better: "lower"},
	{name: "client.write_ms_p99", unit: "ms", better: "lower"},
	{name: "client.write_ms_p999", unit: "ms", better: "lower"},
	{name: "client.samples_read", unit: "count", better: "higher"},
	{name: "client.samples_write", unit: "count", better: "higher"},
	{name: "client.gen_late_ms_p50", unit: "ms", better: "lower"},
	{name: "client.gen_late_ms_p99", unit: "ms", better: "lower"},
	{name: "process.retained_bytes_per_op", unit: "B", better: "lower"},
	{name: "process.gc_cpu_frac", unit: "frac", better: "lower"},
	{name: "process.heap_peak_mb", unit: "MB", better: "lower"},
	{name: "trace.overhead_pct", unit: "%", better: "lower"},
	{name: "trace.spans", unit: "count", better: "higher"},
	{name: "trace.share_cluster_pct", unit: "%", better: "lower"},
	{name: "trace.share_store_pct", unit: "%", better: "lower"},
	{name: "trace.share_store_digest_pct", unit: "%", better: "lower"},
	{name: "trace.share_durable_pct", unit: "%", better: "lower"},
	{name: "trace.share_livecheck_pct", unit: "%", better: "lower"},
}

// config is one run's settings.
type config struct {
	w        *workload
	seed     int64
	seconds  float64 // the timed window of an untraced run
	trace    bool
	traceOut string // where a traced run keeps its span file; "" keeps none
	work     string // this run's own directory for everything it writes
	journals string // where durable workloads journal
	quick    bool   // smoke run: one set-up, one preload round, short side loops
	out      io.Writer
}

func (c config) window() time.Duration {
	d := time.Duration(c.seconds * float64(time.Second))
	if c.trace {
		// A traced run spends its seconds on several shorter windows: the
		// untraced reference, the traced one, and on the durable workload
		// one more on the device directory.
		d /= 4
	}
	return d
}

func (c config) warmUp() time.Duration { return time.Duration(c.seconds * float64(time.Second) / 10) }

// gateOps is the request range of the window that the gated per-request
// costs are measured over: the workload's figure for a 20 s window, scaled
// to this run's.
func (c config) gateOps() int64 { return max(int64(float64(c.w.gateOps)*c.seconds/20), 1) }

// warm runs the warm-up: a fixed number of requests, an eighth of gateOps
// (about a tenth of -seconds at the speed gateOps was sized for), not a
// fixed time, so that the history the window starts from is as long on a
// slow host as on a fast one. Five warm-up times cap it.
func (c config) warm(r *rig, gens []*generator) {
	r.drive(gens, 5*c.warmUp(), max(c.gateOps()/8, 1), nil, nil)
}

func (c config) rounds() int {
	if c.quick {
		return 1
	}
	return c.w.rounds
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() { os.Exit(realMain()) }

func realMain() int {
	var (
		name     = flag.String("workload", "all", "workload to run, or all")
		seed     = flag.Int64("seed", 1, "workload seed: the same seed gives the same requests")
		seconds  = flag.Float64("seconds", 20, "timed window of an untraced run, in seconds; warm-up is a tenth of it, a traced window a quarter")
		trace    = flag.Int("trace", 0, "1 runs the traced variant and prints the per-layer metrics")
		traceOut = flag.String("trace-out", "", "directory to keep the traced run's spans.jsonl in (default: written to the scratch directory, checked, removed)")
		scratch  = flag.String("scratch", os.TempDir(), "directory under which the run creates, and on exit removes, its own working directory")
		journal  = flag.String("journal", "", "directory under which durable workloads journal (default: /dev/shm when it exists, else the scratch directory)")
		quick    = flag.Bool("quick", false, "smoke run: one set-up, one preload round per key, short side loops; combine with a small -seconds")
		repeat   = flag.Int("repeat", 0, "run each workload this many times in child processes, seeds seed..seed+N-1, and report medians, quartiles and spreads")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected argument %q\n", flag.Arg(0))
		return 2
	}
	ws := workloads
	if *name != "all" {
		w, err := workloadByName(*name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		ws = []workload{*w}
	}
	if *repeat > 0 {
		var pass []string
		flag.Visit(func(f *flag.Flag) {
			if f.Name != "repeat" && f.Name != "workload" && f.Name != "seed" {
				pass = append(pass, "-"+f.Name, f.Value.String())
			}
		})
		if err := runRepeat(os.Stdout, ws, *repeat, *seed, pass); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		return 0
	}

	if err := os.MkdirAll(*scratch, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	work, err := os.MkdirTemp(*scratch, "benchmark-run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	// Everything the run writes is under dirs, removed when realMain
	// returns and when a signal ends the process first (a closed output
	// pipe included), so that no exit path leaves a directory behind.
	dirs := []string{work}
	journals := *journal
	if journals == "" {
		journals = work
		if tmpfs, err := os.MkdirTemp("/dev/shm", "benchmark-run-"); err == nil {
			dirs = append(dirs, tmpfs)
			journals = tmpfs
		}
	}
	cleanUp := func() {
		for _, d := range dirs {
			os.RemoveAll(d)
		}
	}
	defer cleanUp()
	signals := make(chan os.Signal, 1)
	signal.Notify(signals, os.Interrupt, syscall.SIGTERM, syscall.SIGPIPE)
	go func() {
		<-signals
		cleanUp()
		os.Exit(1)
	}()

	for i := range ws {
		cfg := config{
			w: &ws[i], seed: *seed, seconds: *seconds, trace: *trace != 0, traceOut: *traceOut,
			work: work, journals: journals, quick: *quick, out: os.Stdout,
		}
		res, err := run(cfg)
		if err != nil {
			// A failed run prints no metrics: its numbers describe a
			// cluster that did not do what was asked of it.
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		fmt.Fprintf(os.Stdout, "%s\n", line)
	}
	return 0
}

// run executes one workload once and returns its result. Metrics are
// printed to cfg.out only after every check has passed. An untraced run
// prints, after the gated metrics that make its result, every ungated
// metric it measured as well.
func run(cfg config) (*result, error) {
	if cfg.seconds <= 0 {
		return nil, errors.New("-seconds must be positive")
	}
	runner, defs, heading := runUntraced, endToEndDefs, "end-to-end metrics (untraced run)"
	if cfg.trace {
		runner, defs, heading = runTraced, perLayerDefs, "per-layer metrics (traced run)"
	}
	win, values, err := runner(cfg)
	if err != nil {
		return nil, err
	}
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "default"
	}
	fmt.Fprintf(cfg.out, "workload %s seed %d window %v warm-up %d requests GOGC=%s GOMAXPROCS=%d journals %s\n",
		cfg.w.name, cfg.seed, cfg.window(), max(cfg.gateOps()/8, 1), gogc, runtime.GOMAXPROCS(0), cfg.journalNote())
	fmt.Fprintf(cfg.out, "  why: %s\n", cfg.w.why)
	fmt.Fprintf(cfg.out, "  ops attempted %d failed %d; verification passed\n", win.attempted(), win.failed())
	fmt.Fprintf(cfg.out, "  by slice of the window:\n")
	fmt.Fprintf(cfg.out, "    throughput ops/s %.0f\n", win.eachSlice(win.sliceThroughput))
	fmt.Fprintf(cfg.out, "    cpu us/op        %.1f\n", win.eachSlice(perOpOf(func(c counters) float64 { return c.cpu * 1e6 })))
	fmt.Fprintf(cfg.out, "    read p50 ms      %.4f\n", win.sliceP50s(false))
	fmt.Fprintf(cfg.out, "    write p50 ms     %.4f\n", win.sliceP50s(true))
	fmt.Fprintf(cfg.out, "  %s:\n", heading)
	res := &result{Correct: true, Attempted: win.attempted(), Failed: win.failed(), Metrics: make(map[string]metricValue)}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("%s: metric %s was not measured", cfg.w.name, d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		printMetric(cfg.out, d.name, v, d.unit)
	}
	if !cfg.trace {
		fmt.Fprintf(cfg.out, "  ungated metrics of the same window:\n")
		for _, d := range perLayerDefs {
			if v, ok := values[d.name]; ok {
				printMetric(cfg.out, d.name, v, d.unit)
			}
		}
	}
	return res, nil
}

func printMetric(w io.Writer, name string, v float64, unit string) {
	fmt.Fprintf(w, "metric %-36s %16.4f %s\n", name, v, unit)
}

func (c config) journalNote() string {
	if !c.w.durable {
		return "none (in-memory)"
	}
	return "under " + c.journals
}

// runUntraced is the gated run: set up (five times, reporting the median,
// so that one slow boot does not decide setup_s; the last rig is the one
// measured), warm up, measure one window, verify.
func runUntraced(cfg config) (*window, map[string]float64, error) {
	setUps := 5
	if cfg.quick {
		setUps = 1
	}
	var r *rig
	var times []float64
	for i := 0; i < setUps; i++ {
		if r != nil {
			r.close()
		}
		t0 := time.Now()
		var err error
		if r, err = setUp(cfg.w, cfg.seed, cfg.journals, cfg.rounds(), nil); err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	defer func() { r.close() }()
	gens := newGenerators(cfg.w, cfg.seed)
	cfg.warm(r, gens)
	win := r.measure(gens, cfg.window(), cfg.gateOps(), nil)
	if err := r.gate(win, cfg.seed); err != nil {
		return nil, nil, err
	}
	values := win.endToEnd()
	for k, v := range win.clientTails() {
		values[k] = v
	}
	sort.Float64s(times)
	values["setup_s"] = times[len(times)/2]
	return win, values, nil
}

func newGenerators(w *workload, seed int64) []*generator {
	gens := make([]*generator, clients)
	for i := range gens {
		gens[i] = newGenerator(w, seed, i)
	}
	return gens
}

// check is the correctness gate every run must pass before it may print a
// number: no wrong answer in the window, then the cluster-wide checks.
func (r *rig) check(win *window, seed int64) error {
	for ci, l := range win.logs {
		if l.wrong > 0 {
			return fmt.Errorf("%s: client %d got %d wrong answers (a write not acknowledged, or a read of a preloaded key returning nothing)", r.w.name, ci, l.wrong)
		}
	}
	if win.attempted() == win.failed() {
		return fmt.Errorf("%s: every request failed", r.w.name)
	}
	return r.verify(seed)
}

// gate is check and, on the durable workload, recovery from the journal,
// which closes the rig.
func (r *rig) gate(win *window, seed int64) error {
	if err := r.check(win, seed); err != nil {
		return err
	}
	if r.w.durable {
		return r.verifyRecovery()
	}
	return nil
}

// dirSize sums the sizes of the regular files under dir; "" is 0.
func dirSize(dir string) float64 {
	if dir == "" {
		return 0
	}
	var n int64
	filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		// A file compaction removed mid-walk is not an error worth a run.
		if err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return float64(n)
}
