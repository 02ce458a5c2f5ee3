package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/livecheck"
	"repro/internal/membership"
	"repro/internal/model"
	"repro/internal/spec"
	"repro/internal/store"
)

// This file is the traced run's instrumentation. Nothing inside the
// repository's packages is touched: every span is taken here, around a
// call into a layer's public entry point — a store.Store/store.Replica
// wrapper handed to the node as Config.Store, a cluster.NodeStorage
// wrapper around durable.Storage, the Config.Tap callback, and the
// generator's own call of Client.Do.

// span is one timed call into a layer, as written to the span file.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"` // 0 on a root
	Op     uint64 `json:"op"`     // the root span's id: shared by all spans of one request
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Node   int    `json:"node"`
	Shard  int    `json:"shard"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

// spanKind indexes the wrapped entry points.
type spanKind uint8

const (
	kClientDo spanKind = iota
	kDoRead
	kDoWrite
	kReceive
	kPending
	kOnSend
	kDigest
	kAppend
	kObserve
	numKinds
)

var kindNames = [numKinds]struct{ layer, name string }{
	kClientDo: {"cluster", "client.do"},
	kDoRead:   {"store", "store.do_read"},
	kDoWrite:  {"store", "store.do_write"},
	kReceive:  {"store", "store.receive"},
	kPending:  {"store", "store.pending_message"},
	kOnSend:   {"store", "store.on_send"},
	kDigest:   {"store", "store.state_digest"},
	kAppend:   {"durable", "durable.append"},
	kObserve:  {"livecheck", "livecheck.observe"},
}

// rawSpan is a span as recorded on a shard loop: which loop turn it fell
// in, not yet which request caused it.
type rawSpan struct {
	kind       spanKind
	turn       uint32
	start, end int64
}

// turnCause is what the tap learned about one loop turn. A turn that
// recorded a do or send event served the request outstanding at that
// node's pinned client; a turn that recorded a receive applied the update
// (origin, seq), whose request is whoever minted it.
type turnCause struct {
	served bool
	op     uint64 // served: the request's id
	origin int    // not served: the applied update
	seq    uint64
	tapped bool
}

// repEvent is a send or receive of update (origin, seq) seen by the tap.
type repEvent struct {
	origin int
	seq    uint64
	at     int64
	op     uint64 // sends: the request that minted the update
}

// loopTrace collects what one shard loop of one node recorded. Only that
// loop's goroutine writes it while the node runs; it is read after Close.
type loopTrace struct {
	node, shard int
	spans       []rawSpan
	turns       []turnCause // indexed by turn; the last one is open
	sends       []repEvent
	recvs       []repEvent
	sees        int64 // VisReporter.Sees calls, counted but not timed
}

func (lt *loopTrace) add(k spanKind, start, end int64) {
	lt.spans = append(lt.spans, rawSpan{kind: k, turn: uint32(len(lt.turns) - 1), start: start, end: end})
}

// opRec is one request as its generator saw it.
type opRec struct {
	id         uint64
	key        int32
	write      bool
	start, end int64
}

// tracer owns a traced rig's recordings and its streaming checker.
type tracer struct {
	epoch  time.Time
	shards int
	on     atomic.Bool
	// curOp[i] is the request outstanding at client i, which is pinned to
	// node i and has one request in flight at a time: whatever node i's
	// shard loops do for a client between that request's send and its
	// reply, they do for it. It stays 0 for a node without a client.
	curOp [clusterSize]atomic.Uint64
	loops [clusterSize][]*loopTrace
	ops   [clients][]opRec
	check *livecheck.ShardSet

	// Storage.Open timings, for durable.recover_ms_per_kevent. Open runs
	// inside NewNode, never concurrently for one tracer.
	openNs     int64
	openEvents int64
}

func newTracer(shards int) *tracer {
	t := &tracer{
		epoch: time.Now(), shards: shards,
		check: livecheck.NewShardSet(clusterSize, shards, livecheck.Options{Types: spec.MVRTypes()}),
	}
	for i := range t.loops {
		t.loops[i] = make([]*loopTrace, shards)
		for s := range t.loops[i] {
			t.loops[i][s] = &loopTrace{node: i, shard: s, turns: make([]turnCause, 1)}
		}
	}
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// ---- store wrapper ----

type tracedStore struct {
	store.Store
	t     *tracer
	node  int
	built int // replicas built so far
}

// wrapStore wraps a store for one NewNode call. NewNode builds its shards'
// replicas in shard order, which is how a replica learns its shard.
func (t *tracer) wrapStore(st store.Store, node int) store.Store {
	return &tracedStore{Store: st, t: t, node: node}
}

// WireCodec forwards store.PayloadCodec, which the embedded interface hides.
func (s *tracedStore) WireCodec() string { return store.PreferredWireCodec(s.Store) }

func (s *tracedStore) NewReplica(id model.ReplicaID, n int) store.Replica {
	lt := s.t.loops[s.node][s.built%s.t.shards]
	s.built++
	inner := s.Store.NewReplica(id, n)
	r := &tracedReplica{Replica: inner, t: s.t, lt: lt}
	r.vis, _ = inner.(store.VisReporter)
	r.dots, _ = inner.(store.DotReporter)
	return r
}

type tracedReplica struct {
	store.Replica
	vis  store.VisReporter
	dots store.DotReporter
	t    *tracer
	lt   *loopTrace
}

func (r *tracedReplica) Do(obj model.ObjectID, op model.Operation) model.Response {
	if !r.t.on.Load() {
		return r.Replica.Do(obj, op)
	}
	k := kDoRead
	if op.Kind.IsMutator() {
		k = kDoWrite
	}
	s := r.t.now()
	resp := r.Replica.Do(obj, op)
	r.lt.add(k, s, r.t.now())
	return resp
}

func (r *tracedReplica) Receive(payload []byte) {
	if !r.t.on.Load() {
		r.Replica.Receive(payload)
		return
	}
	s := r.t.now()
	r.Replica.Receive(payload)
	r.lt.add(kReceive, s, r.t.now())
}

// PendingMessage also closes loop turns: the shard loop's last call into
// the store in every turn is the PendingMessage that finds nothing more to
// broadcast, after the turn's events were recorded and tapped.
func (r *tracedReplica) PendingMessage() []byte {
	if !r.t.on.Load() {
		return r.Replica.PendingMessage()
	}
	s := r.t.now()
	p := r.Replica.PendingMessage()
	lt := r.lt
	lt.add(kPending, s, r.t.now())
	if p == nil && lt.turns[len(lt.turns)-1].tapped {
		lt.turns = append(lt.turns, turnCause{})
	}
	return p
}

func (r *tracedReplica) OnSend() {
	if !r.t.on.Load() {
		r.Replica.OnSend()
		return
	}
	s := r.t.now()
	r.Replica.OnSend()
	r.lt.add(kOnSend, s, r.t.now())
}

func (r *tracedReplica) StateDigest() string {
	if !r.t.on.Load() {
		return r.Replica.StateDigest()
	}
	s := r.t.now()
	d := r.Replica.StateDigest()
	r.lt.add(kDigest, s, r.t.now())
	return d
}

// Sees and LastDot forward the optional traits the node probes for. The
// wrapped store must have both (causal does): a wrapper cannot drop a
// trait it claims by having the method.
func (r *tracedReplica) Sees(d model.Dot) bool {
	if r.t.on.Load() {
		r.lt.sees++
	}
	return r.vis.Sees(d)
}

func (r *tracedReplica) LastDot() (model.Dot, bool) { return r.dots.LastDot() }

// ---- storage wrapper ----

type tracedStorage struct {
	inner cluster.NodeStorage
	t     *tracer
}

func (t *tracer) wrapStorage(inner cluster.NodeStorage) cluster.NodeStorage {
	return &tracedStorage{inner: inner, t: t}
}

func (s *tracedStorage) Open(id model.ReplicaID, n int, storeName string, shard, shards int) (func(cluster.Event) error, *cluster.History, *membership.Forest, func() error, error) {
	t := s.t
	t0 := time.Now()
	journal, hist, tree, closeLog, err := s.inner.Open(id, n, storeName, shard, shards)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	t.openNs += int64(time.Since(t0))
	if hist != nil {
		t.openEvents += int64(len(hist.Events))
	}
	lt := t.loops[id][shard]
	timed := func(ev cluster.Event) error {
		if !t.on.Load() {
			return journal(ev)
		}
		start := t.now()
		err := journal(ev)
		lt.add(kAppend, start, t.now())
		return err
	}
	return timed, hist, tree, closeLog, nil
}

// ---- tap ----

// tap returns node's Config.Tap: it feeds the streaming checker (always,
// so the checker sees the stream from the first event), and while
// recording it times that call, notes what the turn was for, and
// timestamps sends and receives for the replication lag.
func (t *tracer) tap(node int) func(shard int, ev livecheck.Event) {
	return func(shard int, ev livecheck.Event) {
		if !t.on.Load() {
			t.check.Observe(shard, ev)
			return
		}
		lt := t.loops[node][shard]
		s := t.now()
		t.check.Observe(shard, ev)
		lt.add(kObserve, s, t.now())
		c := &lt.turns[len(lt.turns)-1]
		c.tapped = true
		switch ev.Kind {
		case model.ActDo:
			c.served, c.op = true, t.curOp[node].Load()
		case model.ActSend:
			c.served, c.op = true, t.curOp[node].Load()
			lt.sends = append(lt.sends, repEvent{origin: node, seq: ev.Seq, at: s, op: c.op})
		case model.ActReceive:
			c.origin, c.seq = int(ev.Origin), ev.Seq
			lt.recvs = append(lt.recvs, repEvent{origin: int(ev.Origin), seq: ev.Seq, at: s})
		}
	}
}

// ---- resolution ----

// resolve turns the recordings into spans whose parents all exist. A
// served turn's spans take the request the tap named. A receive turn's
// spans take the request whose write minted the applied update, found
// through the origin's send event. Spans of turns the tap never closed
// (recording stopped mid-turn, a Stats poll) and of updates minted before
// recording began have no request to belong to and are dropped; the count
// is returned.
func (t *tracer) resolve(keyShard func(key int) int) (spans []span, dropped int) {
	type interval struct {
		node       int
		start, end int64
	}
	roots := make(map[uint64]interval)
	for ci := range t.ops {
		for _, o := range t.ops[ci] {
			roots[o.id] = interval{ci, o.start, o.end}
			spans = append(spans, span{
				ID: o.id, Op: o.id, Layer: kindNames[kClientDo].layer, Name: kindNames[kClientDo].name,
				Node: ci, Shard: keyShard(int(o.key)), Start: o.start, End: o.end,
			})
		}
	}
	type updateID struct {
		shard, origin int
		seq           uint64
	}
	minted := make(map[updateID]uint64)
	for _, loops := range t.loops {
		for _, lt := range loops {
			for _, s := range lt.sends {
				minted[updateID{lt.shard, s.origin, s.seq}] = s.op
			}
		}
	}
	next := uint64(1) // request ids start at 1<<40, so child ids never collide
	for _, loops := range t.loops {
		for _, lt := range loops {
			for _, rs := range lt.spans {
				c := lt.turns[rs.turn]
				op := c.op
				if c.tapped && !c.served {
					op = minted[updateID{lt.shard, c.origin, c.seq}]
				}
				root, ok := roots[op]
				// A span left over from a turn that began before recording
				// did can precede the request its turn was closed for.
				if !c.tapped || !ok || (root.node == lt.node && (rs.start < root.start || rs.end > root.end)) {
					dropped++
					continue
				}
				spans = append(spans, span{
					ID: next, Parent: op, Op: op, Layer: kindNames[rs.kind].layer, Name: kindNames[rs.kind].name,
					Node: lt.node, Shard: lt.shard, Start: rs.start, End: rs.end,
				})
				next++
			}
		}
	}
	return spans, dropped
}

// checkSpans verifies the written form's promises: ids are unique, every
// parent exists, and a child on its parent's node lies inside it. (A child
// on another node is replication, which outlives the request.)
func checkSpans(spans []span) error {
	byID := make(map[uint64]*span, len(spans))
	for i := range spans {
		s := &spans[i]
		if s.ID == 0 || byID[s.ID] != nil {
			return fmt.Errorf("trace: span id %d is zero or used twice", s.ID)
		}
		if s.End < s.Start {
			return fmt.Errorf("trace: span %d ends before it starts", s.ID)
		}
		byID[s.ID] = s
	}
	for i := range spans {
		s := &spans[i]
		if s.Parent == 0 {
			continue
		}
		p := byID[s.Parent]
		if p == nil {
			return fmt.Errorf("trace: span %d names parent %d, which does not exist", s.ID, s.Parent)
		}
		if s.Node == p.Node && (s.Start < p.Start || s.End > p.End) {
			return fmt.Errorf("trace: span %d (%s) is not inside its parent %d on the same node", s.ID, s.Name, p.ID)
		}
	}
	return nil
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children on the same node cover. A child on
// another node runs beside its parent, not in its place, and covers
// nothing.
func selfTimes(spans []span) map[uint64]int64 {
	byID := make(map[uint64]*span, len(spans))
	kids := make(map[uint64][]*span)
	for i := range spans {
		s := &spans[i]
		byID[s.ID] = s
	}
	for i := range spans {
		s := &spans[i]
		if p := byID[s.Parent]; p != nil && p.Node == s.Node {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[uint64]int64, len(spans))
	for i := range spans {
		p := &spans[i]
		ks := kids[p.ID]
		sort.Slice(ks, func(a, b int) bool { return ks[a].Start < ks[b].Start })
		covered, upTo := int64(0), p.Start
		for _, k := range ks {
			lo, hi := max(k.Start, upTo), min(k.End, p.End)
			if hi > lo {
				covered += hi - lo
				upTo = hi
			}
		}
		self[p.ID] = p.End - p.Start - covered
	}
	return self
}

// layerShares splits the roots' total duration among the layers: each
// span's self time goes to its layer if it descends from a root on the
// root's own node. Children that ran inside the root take their time out
// of the root's self time, so the shares sum to 100.
func layerShares(spans []span) map[string]float64 {
	self := selfTimes(spans)
	byID := make(map[uint64]*span, len(spans))
	for i := range spans {
		byID[spans[i].ID] = &spans[i]
	}
	var total int64
	byLayer := make(map[string]int64)
	for i := range spans {
		s := &spans[i]
		root := byID[s.Op]
		if root == nil || root.Node != s.Node {
			continue
		}
		if s.Parent == 0 {
			total += s.End - s.Start
		}
		byLayer[s.Layer] += self[s.ID]
	}
	shares := make(map[string]float64)
	for l, ns := range byLayer {
		shares[l] = 100 * float64(ns) / float64(max(total, 1))
	}
	return shares
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	var b []byte
	field := func(name string, v uint64) {
		b = append(b, name...)
		b = strconv.AppendUint(b, v, 10)
	}
	for i := range spans {
		s := &spans[i]
		b = b[:0]
		field(`{"id":`, s.ID)
		field(`,"parent":`, s.Parent)
		field(`,"op":`, s.Op)
		b = append(b, `,"layer":"`...)
		b = append(b, s.Layer...)
		b = append(b, `","name":"`...)
		b = append(b, s.Name...)
		b = append(b, `","node":`...)
		b = strconv.AppendInt(b, int64(s.Node), 10)
		b = append(b, `,"shard":`...)
		b = strconv.AppendInt(b, int64(s.Shard), 10)
		b = append(b, `,"start_ns":`...)
		b = strconv.AppendInt(b, s.Start, 10)
		b = append(b, `,"end_ns":`...)
		b = strconv.AppendInt(b, s.End, 10)
		b = append(b, "}\n"...)
		w.Write(b) // a failed write surfaces at Flush
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ---- metrics from the recordings ----

// durations returns the sorted durations of the recorded spans, by kind.
func (t *tracer) durations() [numKinds][]int64 {
	var ds [numKinds][]int64
	for _, loops := range t.loops {
		for _, lt := range loops {
			for _, rs := range lt.spans {
				ds[rs.kind] = append(ds[rs.kind], rs.end-rs.start)
			}
		}
	}
	for _, d := range ds {
		sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	}
	return ds
}

func sum(ds []int64) (n int64) {
	for _, d := range ds {
		n += d
	}
	return n
}

// lags matches every receive the tap saw with the send of the same update
// at its origin and returns the sorted send-to-receive delays.
func (t *tracer) lags() []int64 {
	var lags []int64
	for shard := 0; shard < t.shards; shard++ {
		sent := make(map[[2]uint64]int64)
		for node := range t.loops {
			for _, s := range t.loops[node][shard].sends {
				sent[[2]uint64{uint64(s.origin), s.seq}] = s.at
			}
		}
		for node := range t.loops {
			for _, r := range t.loops[node][shard].recvs {
				if at, ok := sent[[2]uint64{uint64(r.origin), r.seq}]; ok {
					lags = append(lags, r.at-at)
				}
			}
		}
	}
	sort.Slice(lags, func(i, j int) bool { return lags[i] < lags[j] })
	return lags
}

// nameShare is the share of the roots' total duration that spans of one
// name, on their root's node, cover.
func nameShare(spans []span, name string) float64 {
	rootNode := make(map[uint64]int)
	var total, covered int64
	for i := range spans {
		if s := &spans[i]; s.Parent == 0 {
			rootNode[s.ID] = s.Node
			total += s.End - s.Start
		}
	}
	for i := range spans {
		if s := &spans[i]; s.Name == name && rootNode[s.Op] == s.Node {
			covered += s.End - s.Start
		}
	}
	return 100 * float64(covered) / float64(max(total, 1))
}

// tracedValues fills in the per-layer metrics that come from the traced
// window: span percentiles, counts at the wrapped boundaries, Stats
// deltas, and the comparison with the untraced reference window.
func tracedValues(v map[string]float64, t *tracer, win, ref *window, nodeDoP50 int64, diskBytes float64) {
	ops := win.completed()
	reads, writes := float64(win.sampleCount(false)), float64(win.sampleCount(true))
	// Busy fractions are of the CPU time the window had: wall time times
	// the processors the runtime may use.
	capacity := float64(win.wall) * float64(runtime.GOMAXPROCS(0))

	ds := t.durations()
	p50 := func(k spanKind) float64 { return us(percentile(ds[k], 0.50)) }
	v["store.do_read_us_p50"] = p50(kDoRead)
	v["store.do_write_us_p50"] = p50(kDoWrite)
	v["store.receive_us_p50"] = p50(kReceive)
	v["store.pending_message_us_p50"] = p50(kPending)
	v["store.state_digest_us_p50"] = p50(kDigest)
	var sees, storeBusy int64
	for _, loops := range t.loops {
		for _, lt := range loops {
			sees += lt.sees
		}
	}
	for _, k := range []spanKind{kDoRead, kDoWrite, kReceive, kPending, kOnSend, kDigest} {
		storeBusy += sum(ds[k])
	}
	v["store.sees_calls_per_op"] = float64(sees) / ops
	if reads > 0 {
		v["store.state_digest_calls_per_read"] = float64(len(ds[kDigest])) / reads
	}
	v["store.busy_frac"] = float64(storeBusy) / capacity

	appends := ds[kAppend]
	v["durable.append_us_p50"] = us(percentile(appends, 0.50))
	v["durable.append_us_p99"] = us(percentile(appends, 0.99))
	v["durable.appends_per_op"] = float64(len(appends)) / ops
	v["durable.busy_frac"] = float64(sum(appends)) / capacity
	v["durable.disk_bytes_per_op"] = diskBytes / ops

	var all []int64
	for ci := range t.ops {
		for _, o := range t.ops[ci] {
			all = append(all, o.end-o.start)
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	clientDo := percentile(all, 0.50)
	v["cluster.client_do_us_p50"] = us(clientDo)
	v["cluster.node_do_us_p50"] = us(nodeDoP50)
	v["cluster.transport_us_p50"] = us(clientDo - nodeDoP50)

	v["cluster.events_per_op"] = win.delta(func(s cluster.Stats) int64 { return s.Events }) / ops
	sends := win.delta(func(s cluster.Stats) int64 { return s.Sends })
	frames := win.delta(func(s cluster.Stats) int64 { return s.FramesOut })
	if writes > 0 {
		v["cluster.sends_per_write"] = sends / writes
	}
	v["cluster.frames_per_op"] = frames / ops
	if frames > 0 {
		// Every send goes to each peer; frames are all frames the nodes
		// wrote, acks and client replies included.
		v["cluster.updates_per_frame"] = sends * (clusterSize - 1) / frames
	}
	lags := t.lags()
	v["cluster.replication_lag_ms_p50"] = ms(percentile(lags, 0.50))
	v["cluster.replication_lag_ms_p99"] = ms(percentile(lags, 0.99))
	v["cluster.retransmits"] = win.delta(func(s cluster.Stats) int64 { return s.Retransmits })
	v["cluster.reconnects"] = win.delta(func(s cluster.Stats) int64 { return s.Reconnects })
	v["cluster.dup_frames"] = win.delta(func(s cluster.Stats) int64 { return s.DupFrames })
	v["cluster.gap_frames"] = win.delta(func(s cluster.Stats) int64 { return s.GapFrames })

	v["livecheck.observe_us_p50"] = p50(kObserve)

	// Overhead: how much less the traced window got done than the untraced
	// one. On the open loop both did the scheduled amount, so the price
	// shows in CPU per request instead.
	if win.w.openRate == 0 {
		v["trace.overhead_pct"] = 100 * (1 - win.throughput()/ref.throughput())
	} else {
		cpu := func(w *window) float64 { return w.perOp(func(c counters) float64 { return c.cpu }) }
		v["trace.overhead_pct"] = 100 * (cpu(win)/cpu(ref) - 1)
	}
}
