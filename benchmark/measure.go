package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/cluster"
)

// clientLog is what one generator observed in a recorded phase.
type clientLog struct {
	// Latencies in ns, one list per slice of the window (by completion
	// time); open loop: from the due time.
	read, write [slices][]int64
	late        []int64 // open loop: how long after its due time a request was sent
	attempted   int
	failed      int // returned an error
	wrong       int // answered, but not what the request must get
	// Running counts the slice sampler reads while the phase runs.
	completed atomic.Int64 // answered without error
	good      atomic.Int64 // open loop: completed within openGoodWithin of the due time
	// onCompleted, shared by the window's clients, counts the requests they
	// completed and snapshots the counters at request number gateOps.
	onCompleted func()
}

// drive runs the generators against the rig for dur and returns the wall
// time until the last request completed. Closed loop: each client sends
// its next request when the previous one returns. Open loop: each client
// sends on its own fixed schedule, sleeping until a request is due and
// sending late, never skipping, when it has fallen behind. logs may be nil
// (warm-up). tr, when non-nil, receives one root span per request. With
// maxOps positive the phase also ends once that many requests were sent.
func (r *rig) drive(gens []*generator, dur time.Duration, maxOps int64, logs []*clientLog, tr *tracer) time.Duration {
	start := time.Now()
	var sent atomic.Int64
	var wg sync.WaitGroup
	for ci := range gens {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			var log *clientLog
			if logs != nil {
				log = logs[ci]
			}
			r.driveClient(ci, gens[ci], start, dur, maxOps, &sent, log, tr)
		}(ci)
	}
	wg.Wait()
	return time.Since(start)
}

func (r *rig) driveClient(ci int, g *generator, start time.Time, dur time.Duration, maxOps int64, sent *atomic.Int64, log *clientLog, tr *tracer) {
	c := r.clients[ci]
	end := start.Add(dur)
	open := r.w.openRate > 0
	now := time.Now()
	for k := 0; ; k++ {
		due := now
		if open {
			due = start.Add(openDue(ci, k, r.w.openRate))
			if !due.Before(end) {
				return
			}
			if d := due.Sub(now); d > 0 {
				time.Sleep(d)
			}
		} else if !now.Before(end) {
			return
		}
		if n := sent.Add(1); maxOps > 0 && n > maxOps {
			return
		}
		req := g.next()
		issued := time.Now()
		if !open {
			due = issued
		}
		var id uint64
		if tr != nil && log != nil {
			id = uint64(ci+1)<<40 | uint64(len(tr.ops[ci])+1)
			tr.curOp[ci].Store(id)
		}
		resp, err := c.Do(r.keys[req.key], req.op())
		now = time.Now()
		if log == nil {
			continue
		}
		if id != 0 {
			tr.curOp[ci].Store(0)
			tr.ops[ci] = append(tr.ops[ci], opRec{
				id: id, key: int32(req.key), write: req.write,
				start: int64(issued.Sub(tr.epoch)), end: int64(now.Sub(tr.epoch)),
			})
		}
		log.attempted++
		if err != nil {
			log.failed++
			continue
		}
		// Every key was preloaded, so a read that returns nothing is as
		// wrong as a write that is not acknowledged.
		if (req.write && !resp.OK) || (!req.write && len(resp.Values) == 0) {
			log.wrong++
		}
		log.completed.Add(1)
		log.onCompleted()
		lat := int64(now.Sub(due))
		slice := min(int(now.Sub(start)*slices/dur), slices-1)
		if req.write {
			log.write[slice] = append(log.write[slice], lat)
		} else {
			log.read[slice] = append(log.read[slice], lat)
		}
		if open {
			log.late = append(log.late, int64(issued.Sub(due)))
			if lat <= int64(openGoodWithin) {
				log.good.Add(1)
			}
		}
	}
}

// counters is a snapshot of every cumulative count the per-op costs are
// deltas of.
type counters struct {
	at       time.Time
	done     int64   // requests answered without error so far in the phase
	good     int64   // open loop: of those, within the latency limit
	cpu      float64 // process user+system CPU seconds (getrusage)
	gcCPU    float64 // runtime's estimate of CPU seconds spent in the collector
	totalCPU float64 // runtime's estimate of CPU seconds available
	alloc    uint64  // MemStats.TotalAlloc
	heapSys  uint64
	stats    []cluster.Stats
}

func (r *rig) snapshot(logs []*clientLog) counters {
	c := counters{at: time.Now()}
	for _, l := range logs {
		c.done += l.completed.Load()
		c.good += l.good.Load()
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
		c.cpu = tv(ru.Utime) + tv(ru.Stime)
	}
	samples := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(samples)
	if samples[0].Value.Kind() == metrics.KindFloat64 && samples[1].Value.Kind() == metrics.KindFloat64 {
		c.gcCPU, c.totalCPU = samples[0].Value.Float64(), samples[1].Value.Float64()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.alloc, c.heapSys = ms.TotalAlloc, ms.HeapSys
	c.stats = r.stats()
	return c
}

// liveHeap forces a collection and returns the bytes still reachable.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// slices is how many equal parts a window is cut into. The per-op costs
// and the throughput are reported as the median over the slices, so that a
// burst of noise from a neighbour on the shared host, or one slice that
// held a snapshot rewrite more than the others, does not decide the run.
const slices = 10

// window is one recorded phase with the counters at its slice boundaries.
type window struct {
	w      *workload
	wall   time.Duration
	logs   []*clientLog
	points []counters // slices+1 of them; the first is taken before the phase
	// gate is the counters when the window's request number gateOps
	// completed; nil if the window ended before that.
	gate       *counters
	heapBefore uint64 // live heap after a forced collection
	heapAfter  uint64
}

func (win *window) before() counters { return win.points[0] }
func (win *window) after() counters  { return win.points[len(win.points)-1] }

// measure runs one recorded phase. The collections on either side are
// outside the timed interval; they make retained bytes a difference of
// live heaps and start every window from the same heap state.
func (r *rig) measure(gens []*generator, dur time.Duration, gateOps int64, tr *tracer) *window {
	win := &window{w: r.w, logs: make([]*clientLog, len(gens))}
	var total atomic.Int64
	onCompleted := func() {
		if total.Add(1) == gateOps {
			c := r.snapshot(win.logs)
			c.done = gateOps // exactly: the clients' own counts may lag by a request in flight
			win.gate = &c
		}
	}
	for i := range win.logs {
		win.logs[i] = &clientLog{onCompleted: onCompleted}
	}
	win.heapBefore = liveHeap()
	win.points = append(win.points, r.snapshot(win.logs))
	if tr != nil {
		tr.on.Store(true)
	}
	// The sampler snapshots the counters at the inner slice boundaries.
	stop, sampled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(sampled)
		start := win.points[0].at
		for i := 1; i < slices; i++ {
			select {
			case <-time.After(time.Until(start.Add(dur * time.Duration(i) / slices))):
				win.points = append(win.points, r.snapshot(win.logs))
			case <-stop:
				return
			}
		}
	}()
	win.wall = r.drive(gens, dur, 0, win.logs, tr)
	close(stop)
	<-sampled
	if tr != nil {
		tr.on.Store(false)
	}
	win.points = append(win.points, r.snapshot(win.logs))
	win.heapAfter = liveHeap()
	return win
}

// eachSlice evaluates f on every slice: two consecutive snapshots.
func (win *window) eachSlice(f func(a, b counters) float64) []float64 {
	vs := make([]float64, 0, slices)
	for i := 1; i < len(win.points); i++ {
		vs = append(vs, f(win.points[i-1], win.points[i]))
	}
	return vs
}

// perSlice returns the median of f over the slices.
func (win *window) perSlice(f func(a, b counters) float64) float64 {
	vs := win.eachSlice(f)
	sort.Float64s(vs)
	return vs[len(vs)/2]
}

func (win *window) attempted() (n int) {
	for _, l := range win.logs {
		n += l.attempted
	}
	return n
}

func (win *window) failed() (n int) {
	for _, l := range win.logs {
		n += l.failed
	}
	return n
}

// completed is the number of requests answered correctly in the window:
// the divisor of every per-op cost.
func (win *window) completed() float64 { return float64(win.attempted() - win.failed()) }

// throughput is, per slice, completed requests per second on a closed loop
// and on an open loop goodput: requests completed within the latency limit
// of their due time, so a late, failed or refused request counts as a miss.
func (win *window) throughput() float64 { return win.perSlice(win.sliceThroughput) }

func (win *window) sliceThroughput(a, b counters) float64 {
	n := b.done - a.done
	if win.w.openRate > 0 {
		n = b.good - a.good
	}
	return float64(n) / b.at.Sub(a.at).Seconds()
}

// perOp is the median over the slices of a cumulative cost's growth divided
// by the requests completed in the slice: a run that completes more
// requests is not charged for them.
func (win *window) perOp(cost func(counters) float64) float64 { return win.perSlice(perOpOf(cost)) }

func perOpOf(cost func(counters) float64) func(a, b counters) float64 {
	return func(a, b counters) float64 {
		return (cost(b) - cost(a)) / float64(max(b.done-a.done, 1))
	}
}

// perGatedOp is a cumulative cost's growth per request over the workload's
// fixed request range: from the start of the window to its request number
// gateOps. Costs that depend on how much history the cluster has
// accumulated (snapshot rewrites, checkpoints) are then compared over the
// same stretch of history however fast the host ran. A window too short to
// reach that request is measured whole.
func (win *window) perGatedOp(cost func(counters) float64) float64 {
	end := win.after()
	if win.gate != nil {
		end = *win.gate
	}
	return perOpOf(cost)(win.before(), end)
}

func bytesOut(c counters) float64 {
	var n int64
	for _, s := range c.stats {
		n += s.BytesOut
	}
	return float64(n)
}

// delta sums one Stats counter over the nodes and returns its growth over
// the window.
func (win *window) delta(f func(cluster.Stats) int64) float64 {
	var d int64
	before, after := win.before(), win.after()
	for i := range after.stats {
		d += f(after.stats[i]) - f(before.stats[i])
	}
	return float64(d)
}

// latencies returns the sorted read or write latencies of one slice of the
// window, or of the whole window when slice is negative.
func (win *window) latencies(write bool, slice int) []int64 {
	var all []int64
	for _, l := range win.logs {
		lists := &l.read
		if write {
			lists = &l.write
		}
		for i := range lists {
			if slice < 0 || slice == i {
				all = append(all, lists[i]...)
			}
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	return all
}

// sampleCount is how many reads or writes the window completed.
func (win *window) sampleCount(write bool) (n int) {
	for _, l := range win.logs {
		lists := &l.read
		if write {
			lists = &l.write
		}
		for i := range lists {
			n += len(lists[i])
		}
	}
	return n
}

// sliceP50s returns the median read or write latency of every slice, in ms.
func (win *window) sliceP50s(write bool) []float64 {
	vs := make([]float64, slices)
	for i := range vs {
		vs[i] = ms(percentile(win.latencies(write, i), 0.50))
	}
	return vs
}

// percentile reads the p-th percentile of sorted samples by nearest rank,
// the rule cmd/loadgen documents: the smallest sample with at least a p
// fraction of the samples at or below it. No samples read as 0.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }
func us(ns int64) float64 { return float64(ns) / 1e3 }

// endToEnd computes a window's end-to-end metrics — all seven but setup_s,
// gated or not.
func (win *window) endToEnd() map[string]float64 {
	return map[string]float64{
		"throughput_ops_s":   win.throughput(),
		"read_ms_p50":        ms(percentile(win.latencies(false, -1), 0.50)),
		"write_ms_p50":       ms(percentile(win.latencies(true, -1), 0.50)),
		"cpu_us_per_op":      win.perOp(func(c counters) float64 { return c.cpu * 1e6 }),
		"alloc_bytes_per_op": win.perGatedOp(func(c counters) float64 { return float64(c.alloc) }),
		"wire_bytes_per_op":  win.perGatedOp(bytesOut),
	}
}

// clientTails computes the generator-side per-layer metrics, which every
// run can report.
func (win *window) clientTails() map[string]float64 {
	reads, writes := win.latencies(false, -1), win.latencies(true, -1)
	var late []int64
	for _, l := range win.logs {
		late = append(late, l.late...)
	}
	sort.Slice(late, func(i, j int) bool { return late[i] < late[j] })
	return map[string]float64{
		"client.read_ms_p99":     ms(percentile(reads, 0.99)),
		"client.read_ms_p999":    ms(percentile(reads, 0.999)),
		"client.write_ms_p99":    ms(percentile(writes, 0.99)),
		"client.write_ms_p999":   ms(percentile(writes, 0.999)),
		"client.samples_read":    float64(len(reads)),
		"client.samples_write":   float64(len(writes)),
		"client.gen_late_ms_p50": ms(percentile(late, 0.50)),
		"client.gen_late_ms_p99": ms(percentile(late, 0.99)),
	}
}
