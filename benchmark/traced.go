package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/cluster"
)

// runTraced is the per-layer run: an untraced reference window first, then
// the same workload on a rig built from the wrappers in trace.go, then the
// side measurements of layers.go, then the span file.
func runTraced(cfg config) (*window, map[string]float64, error) {
	values := make(map[string]float64)
	for _, d := range perLayerDefs {
		values[d.name] = 0 // a layer that does not run on this workload reads 0
	}
	refWin, err := referenceWindow(cfg, values)
	if err != nil {
		return nil, nil, err
	}
	tr := newTracer(cfg.w.shards)
	win, err := tracedWindow(cfg, tr, refWin, values)
	if err != nil {
		return nil, nil, err
	}
	if err := sideMeasurements(cfg, values); err != nil {
		return nil, nil, err
	}
	if err := spanReport(cfg, tr, values); err != nil {
		return nil, nil, err
	}
	return win, values, nil
}

// referenceWindow measures an untraced window on a plain rig, gate and all.
// It supplies what tracing would distort — the demoted end-to-end metrics,
// the generator's tails, the process's memory — and the figure the traced
// window's overhead is taken against.
func referenceWindow(cfg config, values map[string]float64) (*window, error) {
	ref, err := setUp(cfg.w, cfg.seed, cfg.journals, cfg.rounds(), nil)
	if err != nil {
		return nil, err
	}
	defer ref.close()
	gens := newGenerators(cfg.w, cfg.seed)
	cfg.warm(ref, gens)
	win := ref.measure(gens, cfg.window(), cfg.gateOps(), nil)
	if err := ref.gate(win, cfg.seed); err != nil {
		return nil, err
	}
	for k, v := range win.clientTails() {
		values[k] = v
	}
	for k, v := range win.endToEnd() {
		if _, perLayer := values[k]; perLayer {
			values[k] = v
		}
	}
	values["process.retained_bytes_per_op"] = (float64(win.heapAfter) - float64(win.heapBefore)) / win.completed()
	if cpu := win.after().totalCPU - win.before().totalCPU; cpu > 0 {
		values["process.gc_cpu_frac"] = (win.after().gcCPU - win.before().gcCPU) / cpu
	}
	values["process.heap_peak_mb"] = float64(win.after().heapSys) / 1e6
	return win, nil
}

// tracedWindow measures the traced window and what follows it on the same
// rig: drain, in-process calls, the correctness gate with the streaming
// checker's verdict, the restart of one node, and on the durable workload
// recovery from the journal and the window once more on the device.
func tracedWindow(cfg config, tr *tracer, refWin *window, values map[string]float64) (*window, error) {
	w, seed := cfg.w, cfg.seed
	r, err := setUp(w, seed, cfg.journals, cfg.rounds(), tr)
	if err != nil {
		return nil, err
	}
	defer r.close()
	gens := newGenerators(w, seed)
	cfg.warm(r, gens)
	diskBefore := dirSize(r.dir)
	win := r.measure(gens, cfg.window(), cfg.gateOps(), tr)
	t0 := time.Now()
	if !cluster.WaitQuiesced(r.nodes, quiesceTimeout) {
		return nil, fmt.Errorf("%s: cluster did not quiesce within %v", w.name, quiesceTimeout)
	}
	values["client.drain_ms"] = ms(int64(time.Since(t0)))
	diskBytes := dirSize(r.dir) - diskBefore
	nodeDoP50, err := r.nodeDo(gens[0], 2000, cfg.warmUp())
	if err != nil {
		return nil, err
	}

	if err := r.check(win, seed); err != nil {
		return nil, err
	}
	verdict := tr.check.Verdict()
	if !verdict.Clean {
		return nil, fmt.Errorf("%s: streaming checker verdict is not clean: %d violations", w.name, verdict.Violations)
	}
	values["livecheck.events"] = float64(verdict.Events)
	values["livecheck.peak_tracked"] = float64(verdict.PeakTracked)
	values["livecheck.violations"] = float64(verdict.Violations)

	// Restart the node no client writes through; the streaming checker has
	// given its verdict and does not watch the new incarnation.
	openNs, openEvents := tr.openNs, tr.openEvents
	restart, err := r.restart(clusterSize-1, seed)
	if err != nil {
		return nil, err
	}
	values["cluster.restart_s"] = restart.Seconds()
	if ev := tr.openEvents - openEvents; ev > 0 {
		values["durable.recover_ms_per_kevent"] = ms(tr.openNs-openNs) / (float64(ev) / 1000)
	}
	for _, s := range r.stats() {
		values["cluster.failed_links"] += float64(s.FailedLinks)
	}
	if w.durable {
		// A journaled node must come back with all it had. An in-memory
		// node comes back empty — its peers pruned what it had acked — so
		// there the restart is timed and nothing more is asked of it.
		if err := r.verify(seed); err != nil {
			return nil, err
		}
		if err := r.verifyRecovery(); err != nil {
			return nil, err
		}
	}
	r.close() // the recordings may be read once the shard loops have exited
	tracedValues(values, tr, win, refWin, nodeDoP50, diskBytes)

	values["durable.device_append_us_p50"] = values["durable.append_us_p50"]
	if w.durable && cfg.journals != cfg.work {
		// The journals were on tmpfs: the same traced window once more
		// with them on the scratch directory's device.
		if values["durable.device_append_us_p50"], err = deviceAppend(cfg); err != nil {
			return nil, err
		}
	}
	return win, nil
}

// deviceAppend repeats the traced window with the journals under the
// working directory and returns the median journal append in µs.
func deviceAppend(cfg config) (float64, error) {
	tr := newTracer(cfg.w.shards)
	r, err := setUp(cfg.w, cfg.seed, cfg.work, cfg.rounds(), tr)
	if err != nil {
		return 0, err
	}
	defer r.close()
	gens := newGenerators(cfg.w, cfg.seed)
	cfg.warm(r, gens)
	win := r.measure(gens, cfg.window(), cfg.gateOps(), tr)
	if err := r.gate(win, cfg.seed); err != nil {
		return 0, err
	}
	if err := tr.check.Err(); err != nil {
		return 0, err
	}
	return us(percentile(tr.durations()[kAppend], 0.50)), nil
}

// sideMeasurements runs the timed loops of layers.go on payloads this
// workload's writes produce.
func sideMeasurements(cfg config, values map[string]float64) error {
	n, reps, appends, auditOps := 4096, 8, 10000, 1000
	if cfg.quick {
		n, reps, appends, auditOps = 256, 1, 1000, 200
	}
	payloads := replicationPayloads(cfg.w, cfg.seed, n)
	wireM, err := wireLayer(payloads, reps)
	if err != nil {
		return err
	}
	membershipM, err := membershipLayer(payloads, appends)
	if err != nil {
		return err
	}
	auditM, err := auditLayer(cfg.seed, auditOps)
	if err != nil {
		return err
	}
	for _, m := range []map[string]float64{wireM, membershipM, auditM} {
		for k, v := range m {
			values[k] = v
		}
	}
	return nil
}

// spanReport resolves the recordings into spans, checks them, writes the
// span file, and splits client.do among the layers.
func spanReport(cfg config, tr *tracer, values map[string]float64) error {
	router := cluster.NewShardRouter(cfg.w.shards)
	keys := keyNames(cfg.w.keys)
	spans, dropped := tr.resolve(func(key int) int { return router.Route(keys[key]) })
	if err := checkSpans(spans); err != nil {
		return err
	}
	dir := cfg.traceOut
	if dir == "" {
		dir = cfg.work
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, "spans.jsonl")
	if err := writeSpans(path, spans); err != nil {
		return err
	}
	fmt.Fprintf(cfg.out, "trace: %d spans written to %s, %d recorded spans dropped for lack of a request to belong to\n", len(spans), path, dropped)

	values["trace.spans"] = float64(len(spans))
	self := selfTimes(spans)
	var rootSelf []int64
	for i := range spans {
		if spans[i].Parent == 0 {
			rootSelf = append(rootSelf, self[spans[i].ID])
		}
	}
	sort.Slice(rootSelf, func(i, j int) bool { return rootSelf[i] < rootSelf[j] })
	values["cluster.self_us_p50"] = us(percentile(rootSelf, 0.50))
	shares := layerShares(spans)
	values["trace.share_cluster_pct"] = shares["cluster"]
	values["trace.share_store_pct"] = shares["store"]
	values["trace.share_durable_pct"] = shares["durable"]
	values["trace.share_livecheck_pct"] = shares["livecheck"]
	values["trace.share_store_digest_pct"] = nameShare(spans, kindNames[kDigest].name)
	return nil
}
