// Command loadgen drives a running served cluster (internal/cluster) with
// k concurrent clients issuing a seeded Put/Get mix, waits for quiescence,
// verifies convergence, and reports throughput, latency percentiles,
// bytes on the wire, and retransmission counts as a bench.Table. With
// -audit it additionally downloads every node's recorded history, merges
// it, and replays the run through the repository's checkers: well-formed
// execution, §4 property violations, and — for the causal stores — the
// causal checker (internal/livecheck) over the merged events.
//
// With -chaos it instead self-hosts an in-process cluster (still replicating
// over loopback TCP) and runs a seeded fault schedule — partitions, link
// shaping, a crash/restart — against it while the clients drive load; the
// fault log is emitted first and is byte-identical for a given -seed. Every
// node's events stream through the same checker while the run serves load,
// and its live verdict must match the post-run audit's.
//
// Usage:
//
//	loadgen -nodes :7000,:7001,:7002 -clients 8 -ops 200
//	loadgen -nodes :7000,:7001,:7002 -json -audit
//	loadgen -chaos -store causal -seed 42 -json
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/cli"
	"repro/internal/cluster"
	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/spec"
	"repro/internal/store"
)

func main() {
	seed := cli.SeedFlag(flag.CommandLine, 1)
	jsonOut := cli.JSONFlag(flag.CommandLine)
	nodes := flag.String("nodes", "127.0.0.1:7000", "cluster node addresses, comma-separated")
	clients := flag.Int("clients", 4, "concurrent clients (assigned to nodes round-robin)")
	ops := flag.Int("ops", 100, "operations per client")
	mutate := flag.Float64("mutate", 0.5, "fraction of operations that are writes")
	objects := flag.Int("objects", 3, "number of objects")
	keys := flag.Int("keys", 0, "size of a k%06d keyspace (overrides -objects; convergence is verified on a seeded sample when large)")
	zipfDist := flag.Bool("zipf", false, "draw keys from a zipfian popularity curve (s=1.1) instead of uniformly")
	shards := flag.Int("shards", 1, "shard count of the target cluster (of the self-hosted one with -chaos); -audit then downloads and checks each shard's histories separately")
	audit := flag.Bool("audit", false, "download histories and replay the run through the checkers")
	quiesceTimeout := flag.Duration("quiesce-timeout", 30*time.Second, "how long to wait for cluster quiescence")
	chaos := flag.Bool("chaos", false, "self-host an in-process cluster and run a seeded fault schedule against it (-nodes is ignored)")
	storeName := cli.StoreFlag(flag.CommandLine, "causal")
	chaosNodes := flag.Int("chaos-nodes", 3, "cluster size for -chaos runs")
	chaosDataDir := flag.String("chaos-data-dir", "", "journal -chaos node histories to this directory; crash/restart directives then recover from disk (in-memory if empty)")
	opTimeout := flag.Duration("op-timeout", 10*time.Second, "per-operation deadline for client round trips (0 = unbounded)")
	churn := flag.Int("churn", 0, "leave→join windows in the -chaos schedule (victims disjoint from the crash victims)")
	benchOn := make([]*bool, len(benches))
	for i, b := range benches {
		benchOn[i] = flag.Bool(b.flag, false, b.usage)
	}
	flag.Parse()

	for i, b := range benches {
		if !*benchOn[i] {
			continue
		}
		err := b.run(os.Stdout, benchArgs{
			store: *storeName, seed: *seed, ops: *ops, objects: *objects,
			keys: *keys, shards: *shards, jsonOut: *jsonOut,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "loadgen:", err)
			os.Exit(1)
		}
		return
	}

	if *chaos {
		ccfg := chaosConfig{
			store:          *storeName,
			nodes:          *chaosNodes,
			clients:        *clients,
			ops:            *ops,
			mutate:         *mutate,
			objects:        *objects,
			seed:           *seed,
			quiesceTimeout: *quiesceTimeout,
			jsonOut:        *jsonOut,
			dataDir:        *chaosDataDir,
			churn:          *churn,
			shards:         *shards,
		}
		if err := runChaos(os.Stdout, ccfg); err != nil {
			fmt.Fprintln(os.Stderr, "loadgen:", err)
			os.Exit(1)
		}
		return
	}

	cfg := config{
		nodes:          strings.Split(*nodes, ","),
		clients:        *clients,
		ops:            *ops,
		mutate:         *mutate,
		objects:        *objects,
		keys:           *keys,
		zipf:           *zipfDist,
		shards:         *shards,
		seed:           *seed,
		audit:          *audit,
		quiesceTimeout: *quiesceTimeout,
		jsonOut:        *jsonOut,
		opTimeout:      *opTimeout,
	}
	if err := run(os.Stdout, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

// benchArgs is what the -*bench modes read of the command line; each takes
// the fields it needs. Their tables are pure functions of these — no
// sockets, no clocks — which is what lets `make json` track them
// (BENCH_*.json) and the drift gate compare them byte for byte. Wall-clock
// measurement is benchmark/'s.
type benchArgs struct {
	store   string
	seed    int64
	ops     int
	objects int
	keys    int
	shards  int
	jsonOut bool
}

// benches maps each -*bench flag to the table it prints.
var benches = []struct {
	flag, usage string
	run         func(io.Writer, benchArgs) error
}{
	{"wirebench", "measure wire-format costs: deterministic encode-path table (bytes/op, frames, allocs/op) for batched updates, range chunks, history frames and journal records", runWirebench},
	{"syncbench", "measure anti-entropy catch-up costs: deterministic digest/range-pull table per joiner prefix", runSyncbench},
	{"livebench", "measure the online checker: deterministic per-store table of events checked, violations, and peak tracked state vs history length", runLivebench},
	{"shardbench", "measure keyspace sharding: deterministic routing-balance table (per-shard op spread and speedup bound for uniform and zipfian draws)", runShardbench},
}

type config struct {
	nodes          []string
	clients        int
	ops            int
	mutate         float64
	objects        int
	keys           int
	zipf           bool
	shards         int
	seed           int64
	audit          bool
	quiesceTimeout time.Duration
	jsonOut        bool
	opTimeout      time.Duration
}

func run(w io.Writer, cfg config) error {
	if len(cfg.nodes) == 0 || cfg.clients < 1 || cfg.ops < 1 || cfg.objects < 1 {
		return fmt.Errorf("need at least one node, client, op, and object")
	}
	if cfg.shards == 0 {
		cfg.shards = 1 // zero value: the unsharded default
	}
	if cfg.shards < 1 {
		return fmt.Errorf("-shards %d: need at least 1", cfg.shards)
	}
	// -keys switches to the sharding workload's k%06d keyspace; the legacy
	// x%d naming stays the default so existing invocations are unchanged.
	objs := objectIDs("x%d", cfg.objects)
	if cfg.keys > 0 {
		objs = objectIDs("k%06d", cfg.keys)
	}

	// One control connection per node: quiescence polling, stats,
	// convergence reads, history downloads. The op timeout keeps a wedged
	// node from hanging the control plane forever.
	control := make([]*cluster.Client, len(cfg.nodes))
	for i, addr := range cfg.nodes {
		c, err := cluster.Dial(addr, 0)
		if err != nil {
			return err
		}
		defer c.Close()
		c.SetOpTimeout(cfg.opTimeout)
		control[i] = c
	}

	// Workload connections: each client dials its own, to the nodes
	// round-robin.
	start := time.Now()
	lats, errs := drive(cfg.seed, cfg.clients, cfg.ops, cfg.mutate, objs, cfg.zipf, 0,
		func(ci int) (cluster.Doer, func(), error) {
			c, err := cluster.Dial(cfg.nodes[ci%len(cfg.nodes)], 0)
			if err != nil {
				return nil, nil, err
			}
			c.SetOpTimeout(cfg.opTimeout)
			return c, func() { c.Close() }, nil
		})
	elapsed := time.Since(start)

	// What the cluster serves decides what settling and auditing it owe: the
	// store is opened by its registered name — a report name like
	// kbuffer(k=3) spells its options after it — and the options the nodes
	// report. A store this build does not know settles and audits as one
	// that declares nothing.
	first, err := control[0].Stats()
	if err != nil {
		return err
	}
	storeName := first.Store
	registered, _, _ := strings.Cut(storeName, "(")
	st, _ := cli.OpenStore(registered, spec.MVRTypes(), first.Options)

	// A million-key run cannot afford a read of every key from every node;
	// verify a seeded sample instead (quiescence already implies every
	// update was delivered, so a converged sample is strong evidence the
	// rest converged too). The sample stream is split off after the client
	// streams so adding clients never reshuffles it.
	checkObjs := objs
	if len(objs) > 64 {
		srng := rand.New(rand.NewSource(gen.SplitSeed(cfg.seed, cfg.clients)))
		checkObjs = make([]model.ObjectID, 64)
		for i := range checkObjs {
			checkObjs[i] = objs[srng.Intn(len(objs))]
		}
	}
	quiesce := func() error {
		return cluster.PollQuiesced(func() (bool, error) {
			for _, c := range control {
				if s, err := c.Stats(); err != nil || !s.Quiesced {
					return false, err
				}
			}
			return true, nil
		}, cfg.quiesceTimeout)
	}
	convergence := cluster.Settle(quiesce, st, cluster.Doers(control), checkObjs)

	var agg cluster.Stats
	for _, c := range control {
		s, err := c.Stats()
		if err != nil {
			return err
		}
		agg.Add(s)
	}

	out := cli.Output(w, cfg.jsonOut)
	pct := func(p float64) interface{} { return latCell(lats, p) }
	done := len(lats)
	// Per batch frame, the updates the cluster received through one (all it
	// received but what joiners pulled in range chunks); per such update, the
	// batch bytes that were not store payload: the replication metadata
	// Theorem 12 bounds from below, framing included.
	perBatch, metaPerUpdate := interface{}("-"), interface{}("-")
	if batched := agg.Receives - agg.SyncPulled; agg.BatchFrames > 0 && batched > 0 {
		perBatch = float64(batched) / float64(agg.BatchFrames)
		metaPerUpdate = float64(agg.BatchBytes-agg.BatchPayloadBytes) / float64(batched)
	}
	t := bench.NewTable(fmt.Sprintf("loadgen: %s, %d nodes, seed %d", storeName, len(cfg.nodes), cfg.seed),
		"clients", "ops", "errors", "samples", "ops/sec", "p50 ms", "p95 ms", "p99 ms", "max ms",
		"wire KB", "frames", "updates/batch frame", "meta B/update", "retransmits", "reconnects", "dup frames")
	t.AddRow(cfg.clients, done, errs, len(lats),
		float64(done)/elapsed.Seconds(),
		pct(0.50), pct(0.95), pct(0.99), pct(1.0),
		float64(agg.BytesOut)/1024.0, agg.FramesOut, perBatch, metaPerUpdate,
		agg.Retransmits, agg.Reconnects, agg.DupFrames)
	if err := out.Emit(t); err != nil {
		return err
	}

	if !cfg.audit {
		return convergence
	}

	audits, err := cluster.AuditShards(cfg.shards, cluster.HistoriesOf(control), spec.MVRTypes())
	if err != nil {
		return err
	}
	a := bench.NewTable(fmt.Sprintf("loadgen audit: %s, %d nodes, %d shard(s)", storeName, len(cfg.nodes), cfg.shards),
		"shard", "events", "messages", "well-formed", "causal (Def 12)")
	for s, sa := range audits {
		causalCell := interface{}("-")
		if sa.CausalOwed {
			causalCell = bench.Check(sa.Causal)
		}
		a.AddRow(s, sa.Events, len(sa.Exec.Messages), bench.Check(sa.WellFormed), causalCell)
	}
	v := bench.NewTable("loadgen audit verdict", "metric", "value")
	v.AddRow("converged after quiescence", bench.Check(convergence))
	v.AddRow("§4 property violations", agg.Violations)
	if err := out.Emit(a); err != nil {
		return err
	}
	if err := out.Emit(v); err != nil {
		return err
	}
	return verdict(audits, nil, st, agg.Violations, convergence)
}

// objectIDs names n objects by their index.
func objectIDs(format string, n int) []model.ObjectID {
	objs := make([]model.ObjectID, n)
	for i := range objs {
		objs[i] = model.ObjectID(fmt.Sprintf(format, i))
	}
	return objs
}

// drive runs the seeded client mix: clients goroutines, client ci on the
// replica connect(ci) hands it (and releases when it is done), each issuing
// ops operations — a write with probability mutate, else a read — on objects
// drawn uniformly or, with zipf, from a zipfian popularity curve, pausing
// pace after each. Every client draws from its own split-seed stream, so a
// run is reproducible for any client count. It returns the latencies of the
// operations that succeeded, sorted, and how many failed; a client that
// cannot connect fails all of its operations.
func drive(seed int64, clients, ops int, mutate float64, objs []model.ObjectID, zipf bool, pace time.Duration,
	connect func(ci int) (cluster.Doer, func(), error)) ([]time.Duration, int) {
	type result struct {
		latencies []time.Duration
		errs      int
	}
	results := make([]result, clients)
	var wg sync.WaitGroup
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(gen.SplitSeed(seed, ci)))
			var z *rand.Zipf
			if zipf && len(objs) > 1 {
				z = rand.NewZipf(rng, 1.1, 1, uint64(len(objs)-1))
			}
			d, release, err := connect(ci)
			if err != nil {
				results[ci].errs = ops
				return
			}
			defer release()
			for i := 0; i < ops; i++ {
				var obj model.ObjectID
				if z != nil {
					obj = objs[z.Uint64()]
				} else {
					obj = objs[rng.Intn(len(objs))]
				}
				op := model.Read()
				if rng.Float64() < mutate {
					op = model.Write(model.Value(fmt.Sprintf("c%d.v%d", ci, i)))
				}
				t0 := time.Now()
				if _, err := d.Do(obj, op); err != nil {
					results[ci].errs++
				} else {
					results[ci].latencies = append(results[ci].latencies, time.Since(t0))
				}
				time.Sleep(pace)
			}
		}(ci)
	}
	wg.Wait()

	var lats []time.Duration
	errs := 0
	for _, r := range results {
		lats = append(lats, r.latencies...)
		errs += r.errs
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	return lats, errs
}

// verdict is a run's error once its tables are out: the first failed audit
// verdict, a live checker that disagrees with the audit, a §4 violation the
// store does not declare, then divergence.
func verdict(audits []cluster.ShardAudit, liveDisagrees error, st store.Store, violations int, convergence error) error {
	for _, a := range audits {
		if err := a.Err(); err != nil {
			return err
		}
	}
	if liveDisagrees != nil {
		return liveDisagrees
	}
	if err := cluster.PropertyErr(st, violations); err != nil {
		return err
	}
	return convergence
}

// latCell renders one latency-percentile table cell: "-" when no operation
// succeeded (an all-error run still owes its stats row — aborting before
// rendering used to hide the error count and skip the quiescence and audit
// pipeline entirely), otherwise the percentile in milliseconds.
func latCell(lats []time.Duration, p float64) interface{} {
	if len(lats) == 0 {
		return "-"
	}
	return float64(percentile(lats, p).Microseconds()) / 1000.0
}

// percentile reads the p-th percentile from sorted latencies by nearest
// rank: the smallest sample with at least a p fraction of the samples at or
// below it. The previous int(p*(n-1)) truncation systematically under-read
// the tail — p95 of 20 samples indexed 18 of 0..19 (the 90th percentile)
// and p99 needed 100+ samples before it ever left the p98 slot.
func percentile(lats []time.Duration, p float64) time.Duration {
	if len(lats) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(lats)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(lats) {
		i = len(lats) - 1
	}
	return lats[i]
}
