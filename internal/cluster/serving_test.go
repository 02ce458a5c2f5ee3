package cluster

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/membership"
	"repro/internal/model"
	"repro/internal/seglog"
	"repro/internal/spec"
	"repro/internal/store"
	"repro/internal/wire"
)

// looseShard builds the one shard of a node that serves nothing — no
// listener, no peers — so a test or benchmark can call the steps a turn
// runs directly, from its own goroutine.
func looseShard(tb testing.TB, storeName string) *shard {
	tb.Helper()
	st, err := store.Open(storeName, spec.MVRTypes(), store.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	return looseShardOf(tb, st)
}

func looseShardOf(tb testing.TB, st store.Store) *shard {
	n := &Node{
		cfg:    Config{ID: 1, N: 3, Store: st}.withDefaults(),
		router: NewShardRouter(1),
		done:   make(chan struct{}),
	}
	s := newShard(n, 0)
	n.shards = []*shard{s}
	return s
}

// allocBytes returns how many bytes the process allocates while fn runs.
func allocBytes(fn func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc - before.TotalAlloc)
}

// noteRecorded gives a loose shard origin's next update the way mintSend and
// applyUpdate do — the send (its own) or receive event recorded, then the
// record indexed and hashed — and returns the update's seq.
func noteRecorded(tb testing.TB, s *shard, origin model.ReplicaID, lamport uint64, payload []byte) uint64 {
	kind := model.ActReceive
	if origin == s.n.cfg.ID {
		kind = model.ActSend
	}
	seq := uint64(s.updates[origin].Len()) + 1
	kept, at := s.record(Event{Kind: kind, Lamport: lamport, Origin: origin, Seq: seq, Payload: payload})
	if err := s.noteUpdate(origin, seq, at, kept); err != nil {
		tb.Fatal(err)
	}
	return seq
}

// recordStep records the i-th event of a synthetic history on a loose
// shard: one do event in three, the rest receives, which also index an
// update and hash it into the forest.
func recordStep(tb testing.TB, s *shard, i int, payload []byte) {
	origin := model.ReplicaID(i % 3)
	if origin == 0 {
		s.record(Event{Kind: model.ActDo, Lamport: uint64(i), Object: "k", Op: model.Read()})
		return
	}
	noteRecorded(tb, s, origin, uint64(i), payload)
}

// encodedBytes is how many bytes of records the shard's history holds.
func encodedBytes(s *shard) (n int) {
	blocks, _ := s.events.recs.Snapshot()
	for _, b := range blocks {
		n += len(b)
	}
	return n
}

// TestRecordCostIndependentOfHistory is the RAM companion of durable's
// TestAppendCostIndependentOfHistory. Recording 256 k events allocates
// within 1.25× of what their encoded records, the updates' positions and the
// stored chain values occupy — an append-doubled slice reads ≈5× — and no
// burst of 256 calls allocates more than a block of records plus a segment
// for each other log it appends to, where one unlucky append to a slice that
// long allocates, and copies, tens of megabytes in a shard's turn.
func TestRecordCostIndependentOfHistory(t *testing.T) {
	const total, burst = 256 << 10, 256
	s := looseShard(t, "lww")
	payload := []byte("0123456789abcdef")
	var sum, worst float64
	for i := 0; i < total; i += burst {
		b := allocBytes(func() {
			for j := i; j < i+burst; j++ {
				recordStep(t, s, j, payload)
			}
		})
		sum += b
		worst = max(worst, b)
	}
	if got := s.events.len(); got != total {
		t.Fatalf("recorded %d events, want %d", got, total)
	}
	updates := s.updates[1].Len() + s.updates[2].Len()
	occupied := float64(encodedBytes(s)) + float64(updates)*perUpdateKept
	if sum > 1.25*occupied {
		t.Errorf("recording %d events allocated %.0f B, %.2f× the %.0f B they occupy", total, sum, sum/occupied, occupied)
	}
	// The two origins advance in lockstep here, so every log's boundary can
	// fall in one burst: the history's block, and per origin a segment of
	// the update index and of the stored chain values.
	perOrigin := unsafe.Sizeof(seglog.Pos{}) + unsafe.Sizeof(membership.Hash{})
	if limit := float64(seglog.BlockSize + seglog.SegmentLen*2*perOrigin); worst > limit {
		t.Errorf("one burst of %d calls allocated %.0f B, more than a block and a segment per other log (%.0f B)", burst, worst, limit)
	}
}

// TestPerUpdateOverhead: outside its record in the block log, an update
// costs the shard the eight bytes of its position and its share of the
// stored chain values (a 32-byte value per LeafSpan updates) — not the
// 48-byte protoUpdate, the 32-byte hash and the pointers among them that it
// used to. Amortised over 64 k updates of each of three origins that is
// under 16 B, first-segment doublings and segment tables included; and it
// is flat: a burst of a thousand updates an origin behind a quarter of a
// million allocates what one behind the first thousand did, give or take
// the one segment of chain values per origin that can fall due in it (the
// first segment grows by doubling, never past a segment's size).
func TestPerUpdateOverhead(t *testing.T) {
	const perOrigin, burst, origins = 96 << 10, 1 << 10, 3
	s := looseShard(t, "lww")
	payload := []byte("0123456789abcdef")
	blockBytes := func() (n int) {
		blocks, _ := s.events.recs.Snapshot()
		for _, b := range blocks {
			n += cap(b)
		}
		return n
	}
	var bursts []float64 // per burst, the bytes allocated outside the block log
	lamport := uint64(0)
	for i := 0; i < perOrigin; i += burst {
		before := blockBytes()
		all := allocBytes(func() {
			for j := 0; j < burst; j++ {
				for o := model.ReplicaID(0); o < origins; o++ {
					lamport++
					noteRecorded(t, s, o, lamport, payload)
				}
			}
		})
		bursts = append(bursts, all-float64(blockBytes()-before))
	}
	var sum float64
	for _, b := range bursts[:64] {
		sum += b
	}
	per := sum / (64 * burst * origins)
	t.Logf("%.2f B per noted update outside the block log", per)
	if per > 16 {
		t.Errorf("a noted update costs %.1f B outside its record, amortised over %d updates; want ≤ 16", per, 64*burst*origins)
	}
	early := bursts[1] // past the index's first-segment doublings
	nodeSegments := float64(origins * seglog.SegmentLen * int(unsafe.Sizeof(membership.Hash{})))
	for i, b := range bursts[2:] {
		if b > early+nodeSegments {
			t.Errorf("burst %d (behind %d updates) allocated %.0f B outside the block log, the one behind %d updates %.0f B",
				i+2, (i+2)*burst*origins, b, burst*origins, early)
		}
	}
}

// readNodeAndTwin boots a node holding one written key, and builds the
// store's side of a read of it for comparison: a twin replica in the same
// state behind its own checker, one read already checked (so the next is
// steady-state).
func readNodeAndTwin(t *testing.T) (*Node, *store.PropertyChecker) {
	t.Helper()
	nd := bootNode(t, 0, 3, nil)
	if _, err := nd.Do("k", model.Write("0123456789abcdef")); err != nil {
		t.Fatal(err)
	}
	twin := nd.cfg.Store.NewReplica(0, 3)
	twin.Do("k", model.Write("0123456789abcdef"))
	checker := store.NewPropertyChecker(twin)
	checker.CheckDo("k", model.Read())
	return nd, checker
}

// TestServedReadAllocatesItsEventOnly: what serving a read costs on top of
// the store's own work — routing, the shard's turn, recording the event,
// encoding the reply — allocates the event's encoded record and nothing
// else.
func TestServedReadAllocatesItsEventOnly(t *testing.T) {
	const reads = 4 * seglog.SegmentLen
	nd, checker := readNodeAndTwin(t)
	storeBytes := allocBytes(func() {
		for i := 0; i < reads; i++ {
			checker.CheckDo("k", model.Read())
		}
	}) / reads

	w := wire.NewWriter()
	serve := func() {
		resp, err := nd.Do("k", model.Read())
		if err != nil {
			t.Fatal(err)
		}
		w.Reset()
		w.BeginFrame()
		appendResponse(w, 7, resp)
	}
	// Warm the writer's buffer and the shared frontier, and get past the
	// history's first blocks, which are still growing by doubling.
	for i := 0; i < seglog.SegmentLen; i++ {
		serve()
	}
	served := allocBytes(func() {
		for i := 0; i < reads; i++ {
			serve()
		}
	}) / reads
	// The last read's record is the longest (its Lamport time is). The
	// slack covers the one block more or less that can start inside the
	// measured reads, the block table and a stray runtime allocation.
	evs := nd.History().Events
	rec := wire.NewWriter()
	if err := AppendEventBinary(rec, evs[len(evs)-1]); err != nil {
		t.Fatal(err)
	}
	const slack = seglog.BlockSize/reads + 8
	if limit := storeBytes + float64(rec.Len()) + slack; served > limit {
		t.Fatalf("a served read allocates %.1f B: the store's own %.1f B + the %d B record + %.1f B nobody owns",
			served, storeBytes, rec.Len(), served-limit+slack)
	}
}

// perUpdateKept is what a shard keeps of one update beside its record: its
// position in the update index and its share of the stored chain values (one
// per LeafSpan updates).
var perUpdateKept = float64(unsafe.Sizeof(seglog.Pos{})) + float64(unsafe.Sizeof(membership.Hash{}))/membership.LeafSpan

// TestServedWriteAllocatesOnlyWhatItKeeps: serving a write allocates what
// the node keeps of it — the do and send records, the update's index entry
// and chain-value share — on top of what the store's Do keeps, an apply-log
// entry: the value's version takes the slot of the one it overwrites, and
// the dependency clock is copied into the outbox's arena, so the store
// allocates nothing. The store's message is encoded in a buffer it owns and
// copied once, into the send record; the do record encodes the shard's
// frontier as it stands. (Each used to cost a copy nobody kept: an
// exact-size payload and a clone of the frontier per write.)
func TestServedWriteAllocatesOnlyWhatItKeeps(t *testing.T) {
	nd := bootNode(t, 0, 3, nil)
	checkWriteKeepsOnly(t, nd, "a served write", true, func() {
		if resp, err := nd.Do("k", model.Write(benchValue)); err != nil || !resp.OK {
			t.Fatalf("write = (%v, %v)", resp, err)
		}
	})
}

// TestWriteOverTCPAllocatesOnlyWhatItKeeps is the served write's pin through
// a real client connection, with a client that allocates nothing: the
// request's key and value are views of the frame, copied once, into the do
// record, whose views the store is handed. (Each used to be decoded into a
// string first, and that string copied into the record.)
func TestWriteOverTCPAllocatesOnlyWhatItKeeps(t *testing.T) {
	nd := bootNode(t, 0, 3, nil)
	conn, err := net.Dial("tcp", nd.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(60 * time.Second))
	req, fr := framed(encodeRequest(9, "k", model.Write(benchValue))), wire.NewFrameReader(conn)
	checkWriteKeepsOnly(t, nd, "a write over TCP", !raceDetector, func() {
		reply, err := rawRoundTrip(conn, fr, req)
		if err != nil {
			t.Fatal(err)
		}
		if len(reply) == 0 || reply[0] != tResponse {
			t.Fatalf("reply %x is not a tResponse", reply)
		}
	})
}

// checkWriteKeepsOnly holds serve, one write of benchValue to "k" at nd, to
// the bytes nd keeps of it — the do and send records, the update's index
// entry and chain-value share — on top of what the store's own Do keeps,
// measured on a twin replica, and to no allocation at all. Unless exact, the
// figures are logged, not held: a path through a pooled writer allocates at
// random under the race detector (raceDetector).
func checkWriteKeepsOnly(t *testing.T, nd *Node, what string, exact bool, serve func()) {
	t.Helper()
	const writes = 4 * seglog.SegmentLen
	write := model.Write(benchValue)
	twin := nd.cfg.Store.NewReplica(0, 3)
	checker := store.NewPropertyChecker(twin)
	storeDo := func() {
		checker.CheckDo("k", write)
		twin.OnSend() // drains the outbox without asking for the message
	}
	for i := 0; i < seglog.SegmentLen; i++ {
		storeDo()
	}
	storeBytes := allocBytes(func() {
		for i := 0; i < writes; i++ {
			storeDo()
		}
	}) / writes
	if storeAllocs := testing.AllocsPerRun(writes, storeDo); storeAllocs != 0 {
		t.Errorf("the store's Do allocates %.0f times per write, want 0", storeAllocs)
	}

	// Past the history's and the update index's first, doubling blocks.
	for i := 0; i < seglog.SegmentLen; i++ {
		serve()
	}
	served := allocBytes(func() {
		for i := 0; i < writes; i++ {
			serve()
		}
	}) / writes
	evs := nd.History().Events
	do, send := evs[len(evs)-2], evs[len(evs)-1]
	if do.Kind != model.ActDo || send.Kind != model.ActSend {
		t.Fatalf("a write ended in %v, %v events, want do, send", do.Kind, send.Kind)
	}
	rec := wire.NewWriter()
	for _, ev := range []Event{do, send} {
		if err := AppendEventBinary(rec, ev); err != nil {
			t.Fatal(err)
		}
	}
	// The slack covers the one block more or less that can start inside the
	// measured writes, the block and segment tables and a stray runtime
	// allocation.
	const slack = seglog.BlockSize/writes + 8
	limit := storeBytes + float64(rec.Len()) + perUpdateKept + slack
	allocs := testing.AllocsPerRun(writes, serve)
	t.Logf("%s allocates %.1f B in %.0f allocations: the store's %.1f B, %d B of records, %.1f B kept per update", what, served, allocs, storeBytes, rec.Len(), perUpdateKept)
	if !exact {
		return
	}
	if served > limit {
		t.Errorf("%s allocates %.1f B: the store's own %.1f B + %d B of records + %.1f B per update + %.1f B nobody owns",
			what, served, storeBytes, rec.Len(), perUpdateKept, served-limit+slack)
	}
	if allocs != 0 {
		t.Errorf("%s allocates %.0f times, want 0", what, allocs)
	}
}

// TestReceiveAllocatesOnlyWhatItKeeps: applying a replicated update
// allocates its receive record, its index entry and chain-value share, and
// what the store keeps of it — an apply-log entry. The value the store keeps
// is a view of the record's payload, not a copy. The update is ready as it
// arrives, so its dependency clock is decoded into the store's receive
// scratch, and its object is one the receiver already holds, so its key is
// looked up, not kept again. None of it is a new allocation per update: the
// record, the index and the apply log each grow a block or a segment at a
// time.
func TestReceiveAllocatesOnlyWhatItKeeps(t *testing.T) {
	const keys, updates = 64, 4 * seglog.SegmentLen
	src := openCausal(t).NewReplica(0, 3)
	us := make([]protoUpdate, keys+seglog.SegmentLen+updates)
	for i := range us {
		src.Do(model.ObjectID(fmt.Sprintf("object-%04d", i%keys)), model.Write(benchValue))
		us[i] = protoUpdate{Origin: 0, Seq: uint64(i + 1), Lamport: uint64(i + 1), Payload: slices.Clone(src.PendingMessage())}
		src.OnSend()
	}
	s := looseShard(t, "causal")
	next := 0
	apply := func() {
		if !s.applyUpdate(us[next]) {
			t.Fatal(s.jerr)
		}
		next++
	}
	// Every key known, and past the first, doubling blocks and segments.
	for next < keys+seglog.SegmentLen/2 {
		apply()
	}
	allocs := testing.AllocsPerRun(seglog.SegmentLen/2-1, apply)
	received := allocBytes(func() {
		for i := 0; i < updates; i++ {
			apply()
		}
	}) / updates

	last := s.events.update(s.updates[0].At(next - 1))
	var rec wire.Writer
	if err := AppendEventBinary(&rec, Event{Kind: model.ActReceive, Lamport: s.lamport, Origin: last.Origin, Seq: last.Seq, Payload: last.Payload}); err != nil {
		t.Fatal(err)
	}
	// What the store keeps: the update's four-byte origin in its apply log.
	const kept = 4
	const slack = seglog.BlockSize/updates + 8
	limit := float64(rec.Len()+kept) + perUpdateKept + slack
	t.Logf("a received update allocates %.1f B in %.0f allocations: %d B of record, %d B in the store, %.1f B kept per update", received, allocs, rec.Len(), kept, perUpdateKept)
	if received > limit {
		t.Errorf("a received update allocates %.1f B: the %d B record + the store's %d B + %.1f B per update + %.1f B nobody owns",
			received, rec.Len(), kept, perUpdateKept, received-limit+slack)
	}
	if allocs != 0 {
		t.Errorf("a received update allocates %.0f times, want 0", allocs)
	}
}

// rawRoundTrip writes one prebuilt frame on conn and reads one reply frame
// through fr, conn's frame reader: once fr's storage has grown to the
// reply, it allocates nothing.
func rawRoundTrip(conn net.Conn, fr *wire.FrameReader, frame []byte) ([]byte, error) {
	if _, err := conn.Write(frame); err != nil {
		return nil, err
	}
	return fr.ReadFrame(0)
}

// framed returns payload behind its uvarint length header.
func framed(payload []byte) []byte {
	var b bytes.Buffer
	if _, err := wire.WriteFrame(&b, payload, 0); err != nil {
		panic(err)
	}
	return b.Bytes()
}

// TestReadOverTCPAllocatesOnlyWhatItKeeps drives steady-state reads through
// a real client connection with a client that allocates nothing, so every
// allocation counted is the node's. What is left is what a read hands out:
// the store's own response. The frame buffer, the request's key (a view of
// the frame, copied once, into the do record), the reader, the shard's turn,
// the reply writer and the event's slot in its segment cost nothing per read.
func TestReadOverTCPAllocatesOnlyWhatItKeeps(t *testing.T) {
	nd, checker := readNodeAndTwin(t)
	storeAllocs := testing.AllocsPerRun(200, func() { checker.CheckDo("k", model.Read()) })

	conn, err := net.Dial("tcp", nd.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	req, fr := framed(encodeRequest(9, "k", model.Read())), wire.NewFrameReader(conn)
	read := func() {
		reply, err := rawRoundTrip(conn, fr, req)
		if err != nil {
			t.Fatal(err)
		}
		if len(reply) == 0 || reply[0] != tResponse {
			t.Fatalf("reply %x is not a tResponse", reply)
		}
	}
	read() // warm the connection's buffer and the shared frontier
	pooled := 0.0
	if raceDetector {
		pooled = 1 // a quarter of the replies build a writer afresh, in about four allocations
	}
	if got := testing.AllocsPerRun(2000, read); got > storeAllocs+pooled {
		t.Fatalf("a read over TCP allocates %.0f times on the node; the store's response accounts for %.0f and the reply writer for %.0f",
			got, storeAllocs, pooled)
	}
}

// answeringConn is the client's end of a connection whose node is a
// function: every Write is counted, must be one whole request frame, and is
// answered OK; the Reads that follow drain the answer. Nothing here
// allocates once reply has grown, so what a Do through it allocates is the
// client's.
type answeringConn struct {
	net.Conn // nil: the client calls Write and Read only
	writes   int
	bad      error
	req      wire.Reader
	reply    *wire.Writer
	unread   []byte
}

func (c *answeringConn) Write(p []byte) (int, error) {
	c.writes++
	if size, h := binary.Uvarint(p); h <= 0 || size != uint64(len(p)-h) {
		c.bad = fmt.Errorf("write %d is %d bytes: not one whole frame", c.writes, len(p))
		return 0, c.bad
	}
	c.req.Reset(wire.FramePayload(p))
	if typ := c.req.Uvarint(); typ != tRequest {
		c.bad = fmt.Errorf("write %d is a frame of type %d, want a request", c.writes, typ)
		return 0, c.bad
	}
	c.reply.Reset()
	c.reply.BeginFrame()
	appendResponse(c.reply, c.req.Uvarint(), model.OKResponse())
	c.unread, c.bad = c.reply.EndFrame(0)
	return len(p), c.bad
}

func (c *answeringConn) Read(p []byte) (int, error) {
	if len(c.unread) == 0 {
		return 0, io.EOF
	}
	n := copy(p, c.unread)
	c.unread = c.unread[n:]
	return n, nil
}

// TestClientRequestIsOneWrite: a request leaves the client the way a reply
// leaves the node — header and payload in one Write, built in a buffer the
// client keeps — so the node is never woken for four bytes, and a Do that
// gets a value-less answer allocates nothing.
func TestClientRequestIsOneWrite(t *testing.T) {
	conn := &answeringConn{reply: wire.NewWriter()}
	c := newClient(conn)
	do := func() {
		if resp, err := c.Do("some-key", model.Write(benchValue)); err != nil || !resp.OK {
			t.Fatalf("Do = (%+v, %v); conn: %v", resp, err, conn.bad)
		}
	}
	do() // grow the request and reply buffers
	before := conn.writes
	allocs := testing.AllocsPerRun(100, do)
	if got := conn.writes - before; got != 101 {
		t.Errorf("101 requests took %d writes", got)
	}
	if allocs != 0 {
		t.Errorf("a request allocates %.0f times at steady state", allocs)
	}
}

// retainingStore wraps a store so that its replicas keep, uncopied, every
// payload Receive is shown: the worst a store may do with memory it is
// handed.
type retainingStore struct {
	store.Store
	mu    sync.Mutex
	shown [][]byte
}

func (s *retainingStore) NewReplica(id model.ReplicaID, n int) store.Replica {
	return &retainingReplica{Replica: s.Store.NewReplica(id, n), st: s}
}

type retainingReplica struct {
	store.Replica
	st *retainingStore
}

func (r *retainingReplica) Receive(payload []byte) {
	r.st.mu.Lock()
	r.st.shown = append(r.st.shown, payload)
	r.st.mu.Unlock()
	r.Replica.Receive(payload)
}

// TestReplicationBuffersNeverReachTheHistory pushes two batches back to
// back through one replication connection, then asks once what they
// delivered. They have the same shape and
// different bytes, so the second lands exactly on top of the first in the
// connection's reused frame buffer. Everything that kept a payload of the
// first batch — the store, the recorded history, the journal, the update
// index a range pull serves from — must still hold the original bytes.
func TestReplicationBuffersNeverReachTheHistory(t *testing.T) {
	const perBatch = 4
	// Real payloads, minted by replica 0 of the same store. The cluster has a
	// third member, r2, for the range pull below to join as.
	src := openCausal(t).NewReplica(0, 3)
	var payloads [][]byte
	for i := 0; i < 2*perBatch; i++ {
		src.Do("k", model.Write(model.Value(bytes.Repeat([]byte{'a' + byte(i)}, 24))))
		payloads = append(payloads, append([]byte(nil), src.PendingMessage()...))
		src.OnSend()
	}
	for i := range payloads[:perBatch] {
		if a, b := payloads[i], payloads[i+perBatch]; len(a) != len(b) || bytes.Equal(a, b) {
			t.Fatalf("payloads %d and %d must differ in bytes only (%d B, %d B)", i, i+perBatch, len(a), len(b))
		}
	}

	st := &retainingStore{Store: openCausal(t)}
	journal := &memStorage{} // keeps payload slices as handed over, not copied
	cfg := fastConfig(1, 3, st)
	cfg.Storage = journal
	nd, err := NewNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()

	conn, err := net.Dial("tcp", nd.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	frame := func(build func(*wire.Writer)) []byte {
		w := wire.NewWriter()
		build(w)
		return framed(w.Bytes())
	}
	fr := wire.NewFrameReader(conn)
	if ack, err := rawRoundTrip(conn, fr, frame(func(w *wire.Writer) { appendHello(w, 0, 1) })); err != nil || ack[0] != tHelloAck {
		t.Fatalf("hello answered %x, err %v", ack, err)
	}
	tx := newSendingEnd(1)
	for b := 0; b < 2; b++ {
		var us []protoUpdate
		for i := 0; i < perBatch; i++ {
			seq := uint64(b*perBatch + i + 1)
			us = append(us, protoUpdate{Origin: 0, Seq: seq, Lamport: seq, Payload: payloads[seq-1]})
		}
		if _, err := conn.Write(frame(func(w *wire.Writer) { appendBatchFrame(w, tx, section{0, us}) })); err != nil {
			t.Fatal(err)
		}
	}
	// Batches go unacknowledged: one question behind both is answered with
	// everything they delivered.
	ack, err := rawRoundTrip(conn, fr, frame(func(w *wire.Writer) { appendHello(w, 0, 1) }))
	if err != nil {
		t.Fatal(err)
	}
	if want := wire.FramePayload(frame(func(w *wire.Writer) { appendHelloAck(w, []uint64{2 * perBatch}) })); !bytes.Equal(ack, want) {
		t.Fatalf("question after both batches answered %x, want %x", ack, want)
	}

	check := func(where string, got [][]byte) {
		t.Helper()
		if len(got) != len(payloads) {
			t.Fatalf("%s holds %d payloads, want %d", where, len(got), len(payloads))
		}
		for i, p := range got {
			if !bytes.Equal(p, payloads[i]) {
				t.Errorf("%s: payload of update %d is %q, sent %q", where, i+1, p, payloads[i])
			}
		}
	}
	st.mu.Lock()
	check("store", st.shown)
	st.mu.Unlock()
	var recorded, logged [][]byte
	for _, ev := range nd.History().Events {
		recorded = append(recorded, ev.Payload)
	}
	check("history", recorded)
	for _, ev := range journal.events(1, 0) {
		logged = append(logged, ev.Payload)
	}
	check("journal", logged)

	// The update index, read the way a joiner reads it: a range pull.
	var pulled [][]byte
	_, us := pullRange(t, nd, 2, 0, uint64(len(payloads)))
	for _, u := range us {
		pulled = append(pulled, u.Payload)
	}
	check("range pull", pulled)
}

// TestRequestBuffersNeverReachTheHistory is the client-connection half: two
// requests of the same shape and different bytes on one connection; the
// first recorded event still names the first request's object and
// argument.
func TestRequestBuffersNeverReachTheHistory(t *testing.T) {
	nd := bootNode(t, 0, 1, nil)
	c, err := Dial(nd.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Do("first-key", model.Write("first-value")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Do("other-key", model.Write("other-value")); err != nil {
		t.Fatal(err)
	}
	evs := nd.History().Events
	if len(evs) < 3 || evs[0].Object != "first-key" || evs[0].Op.Arg != "first-value" {
		t.Fatalf("first recorded event is %+v, want the first request's do", evs[0])
	}
}
