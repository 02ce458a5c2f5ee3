package cluster

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/spec"
	"repro/internal/wire"
)

// TestPaceWait: a pass waits out the rest of batchPace since the link's
// last batch frame, and not at all after a longer silence or before the
// first frame.
func TestPaceWait(t *testing.T) {
	now := time.Now()
	for _, c := range []struct {
		name string
		last time.Time
		want time.Duration
	}{
		{"no frame yet", time.Time{}, 0},
		{"a long silence", now.Add(-time.Second), 0},
		{"exactly a pace", now.Add(-batchPace), 0},
		{"just past a pace", now.Add(-batchPace - time.Nanosecond), 0},
		{"just within a pace", now.Add(-batchPace + time.Nanosecond), time.Nanosecond},
		{"a quarter pace", now.Add(-batchPace / 4), batchPace - batchPace/4},
		{"a frame this instant", now, batchPace},
	} {
		if got := paceWait(c.last, now); got != c.want {
			t.Errorf("%s: paceWait = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestBusyLinkPacesFrames: r0 of a three-node, two-shard mesh writes
// continuously for about 20 ms, a write every 20 µs or so. Each of its links
// then writes at most ⌈elapsed / batchPace⌉ + 1 batch frames per shard,
// where unpaced it wrote one per write, and every update still arrives: the
// cluster quiesces, converges and audits clean.
func TestBusyLinkPacesFrames(t *testing.T) {
	const shards, links = 2, 2
	nodes, err := BootMesh(3, func(i int) Config {
		return Config{Store: openCausal(t), Listen: "127.0.0.1:0", Shards: shards}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, nd := range nodes {
			nd.Close()
		}
	})
	var keys []model.ObjectID
	for i := 0; i < 64; i++ {
		keys = append(keys, model.ObjectID(fmt.Sprintf("k%d", i)))
	}
	// One write at every node opens all six links before the burst.
	for _, nd := range nodes {
		if _, err := nd.Do(model.ObjectID(fmt.Sprintf("warm-%d", nd.ID())), model.Write("w")); err != nil {
			t.Fatal(err)
		}
	}
	if !WaitQuiesced(nodes, 30*time.Second) {
		t.Fatal("the cluster never quiesced after the warm-up writes")
	}

	r0 := nodes[0]
	before := r0.Stats().BatchFrames
	start := time.Now()
	writes := 0
	for time.Since(start) < 20*time.Millisecond {
		if _, err := r0.Do(keys[writes%len(keys)], model.Write(model.Value(fmt.Sprintf("v%d", writes)))); err != nil {
			t.Fatal(err)
		}
		writes++
		for next := time.Now().Add(20 * time.Microsecond); time.Now().Before(next); {
			runtime.Gosched()
		}
	}
	// Every batch frame of the burst was written before both peers held all
	// of it.
	arrived := func() bool {
		for _, peer := range nodes[1:] {
			for si := range peer.shards {
				if peer.shards[si].logLen(0) < r0.shards[si].logLen(0) {
					return false
				}
			}
		}
		return true
	}
	for deadline := time.Now().Add(10 * time.Second); !arrived(); time.Sleep(50 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatal("the burst never reached both peers")
		}
	}
	elapsed := time.Since(start)
	frames := r0.Stats().BatchFrames - before
	paces := int64((elapsed + batchPace - 1) / batchPace)
	if bound := links * shards * (paces + 1); frames > bound {
		t.Errorf("%d writes in %v took %d batch frames over %d links × %d shards, want at most %d (⌈elapsed / batchPace⌉ + 1 per link and shard)",
			writes, elapsed, frames, links, shards, bound)
	}
	t.Logf("%d writes in %v: %d batch frames, %.1f updates a frame", writes, elapsed, frames, float64(links*writes)/float64(frames))

	if !WaitQuiesced(nodes, 30*time.Second) {
		t.Fatal("the cluster never quiesced after the burst")
	}
	if err := CheckConverged(Doers(nodes), keys); err != nil {
		t.Fatal(err)
	}
	audits, err := AuditShards(shards, HistoriesOf(nodes), spec.MVRTypes())
	if err != nil {
		t.Fatal(err)
	}
	for s, a := range audits {
		if err := a.Err(); err != nil {
			t.Fatalf("shard %d: %v", s, err)
		}
	}
	noViolations(t, nodes...)
}

// recordedBatch is one tBatch frame among a recordingTransport's writes.
type recordedBatch struct {
	write      int // its index in writes
	conn       int
	secs       []section
	compressed bool // it left in a compression envelope
	// rawLen is the frame's body as encoded, and streamLen the stream bytes
	// it was coded to.
	rawLen, streamLen int
}

// batches reads the recorded writes as replication links of origin's with
// the given shard count, and returns their tBatch frames in order, each
// decoded by readBatch through its connection's stream and run state, from
// empty on each connection, as the peer reads them. The caller holds rt.mu.
func (rt *recordingTransport) batches(t *testing.T, origin model.ReplicaID, shards int) []recordedBatch {
	t.Helper()
	ends := map[int]*receivingEnd{}
	var out []recordedBatch
	for i, w := range rt.writes {
		_, h := binary.Uvarint(w)
		frame := w[h:]
		b := recordedBatch{write: i, conn: rt.conns[i]}
		if typ, _ := binary.Uvarint(frame); typ == tCompressed {
			inner, _, err := decompressFrame(frame, wire.DefaultMaxFrame)
			if err != nil {
				t.Fatal(err)
			}
			frame, b.compressed = inner, true
		}
		r := wire.NewReader(frame)
		if r.Uvarint() != tBatch {
			continue
		}
		if ends[b.conn] == nil {
			ends[b.conn] = newReceivingEnd(shards)
		}
		body := *r
		b.rawLen, b.streamLen = int(body.Uvarint()), body.Remaining()
		var err error
		if b.secs, err = readBatch(r, ends[b.conn], origin, nil); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		// The sections' payloads are views of the connection's stream,
		// which its next frame overwrites.
		for si := range b.secs {
			b.secs[si].us = slices.Clone(b.secs[si].us)
			for ui := range b.secs[si].us {
				b.secs[si].us[ui].Payload = slices.Clone(b.secs[si].us[ui].Payload)
			}
		}
		out = append(out, b)
	}
	return out
}

// updates counts the updates a batch frame carries.
func (b recordedBatch) updates() int {
	n := 0
	for _, sec := range b.secs {
		n += len(sec.us)
	}
	return n
}

// TestOnlyCutBatchesAreCompressed: every batch frame goes through the
// connection's LZ stream, and only one that cutBatch cut is offered to the
// compressor too. A backlog longer than BatchMax, written before the link
// is up, leaves its first frame in a tCompressed envelope; the live frames
// of a later burst, paced to carry several updates each and well past the
// compression floor, leave without one. Every frame, cut or live, is
// stream-coded to fewer bytes than its sections: each value repeats what
// the link carried before.
func TestOnlyCutBatchesAreCompressed(t *testing.T) {
	rt := &recordingTransport{}
	r0 := bootNode(t, 0, 2, func(cfg *Config) { cfg.Transport = rt })
	r1 := bootNode(t, 1, 2, nil)
	value := func(i int) model.Value {
		return model.Value(fmt.Sprintf("%s-%d", strings.Repeat("paced", 60), i))
	}
	const backlog = BatchMax + 16
	for i := 0; i < backlog; i++ {
		if _, err := r0.Do(model.ObjectID(fmt.Sprintf("b%d", i%4)), model.Write(value(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := r0.Connect(map[model.ReplicaID]string{1: r1.Addr()}); err != nil {
		t.Fatal(err)
	}
	if err := r1.Connect(map[model.ReplicaID]string{0: r0.Addr()}); err != nil {
		t.Fatal(err)
	}
	nodes := []*Node{r0, r1}
	if !WaitQuiesced(nodes, 30*time.Second) {
		t.Fatal("the backlog did not drain")
	}
	rt.mu.Lock()
	catchUp := len(rt.writes)
	rt.mu.Unlock()

	const burst = 40
	for i := 0; i < burst; i++ {
		if _, err := r0.Do("live", model.Write(value(i))); err != nil {
			t.Fatal(err)
		}
	}
	if !WaitQuiesced(nodes, 30*time.Second) {
		t.Fatal("the burst did not drain")
	}

	rt.mu.Lock()
	defer rt.mu.Unlock()
	var cutCompressed bool
	var sent, multi, live int
	for _, b := range rt.batches(t, 0, 1) {
		updates := b.updates()
		if b.streamLen >= b.rawLen {
			t.Errorf("frame of %d updates (write %d) coded %d bytes of sections to %d stream bytes, want fewer", updates, b.write, b.rawLen, b.streamLen)
		}
		if b.write < catchUp {
			if updates == BatchMax && b.compressed {
				cutCompressed = true
			}
			sent += updates
			continue
		}
		if b.compressed {
			t.Errorf("live frame of %d updates (write %d, %d bytes) left compressed", updates, b.write, len(rt.writes[b.write]))
		}
		if updates > 1 {
			multi++
		}
		live += updates
	}
	if !cutCompressed || sent != backlog {
		t.Errorf("the %d-update backlog left in frames of %d updates in all, want its first %d-update frame compressed (found: %v)", backlog, sent, BatchMax, cutCompressed)
	}
	if live != burst || multi == 0 {
		t.Errorf("the %d-write burst left in frames of %d updates in all, %d of them carrying several, want all %d and a paced multi-update frame", burst, live, multi, burst)
	}
}

// keysOfEachShard returns, for each shard of r, a key it routes there.
func keysOfEachShard(r *ShardRouter) []model.ObjectID {
	keys := make([]model.ObjectID, r.Shards())
	for i, found := 0, 0; found < len(keys); i++ {
		k := model.ObjectID(fmt.Sprintf("k%d", i))
		if s := r.Route(k); keys[s] == "" {
			keys[s] = k
			found++
		}
	}
	return keys
}

// checkRuns holds one link's recorded batch frames to the log they were cut
// from: decoded through their connection's run state, each shard's
// sections carry seqs 1 … want[shard], each once and in order, across every
// connection of the link.
func checkRuns(t *testing.T, bs []recordedBatch, want []uint64) {
	t.Helper()
	next := make([]uint64, len(want))
	for _, b := range bs {
		for _, sec := range b.secs {
			for _, u := range sec.us {
				if u.Seq != next[sec.shard]+1 {
					t.Fatalf("write %d (connection %d): shard %d carries seq %d after %d", b.write, b.conn, sec.shard, u.Seq, next[sec.shard])
				}
				next[sec.shard] = u.Seq
			}
		}
	}
	if !slices.Equal(next, want) {
		t.Fatalf("the link's frames carried each shard's log up to %v, want %v", next, want)
	}
}

// TestBatchFrameCarriesEveryShard: a link's drain pass writes one batch
// frame, with a section per shard that has updates to send, where it wrote
// one frame per shard. r0 of a two-node, two-shard pair writes for about
// 20 ms, a write every 20 µs or so, alternating between a key of each
// shard. Its link then writes at most ⌈elapsed / batchPace⌉ + 1 batch
// frames — one per pass — and some frame carries both shards' sections.
// Decoded through the connection's stream and run state, the frames carry
// each shard's updates once and in order, the pair converges, and the stats
// count the frames' bytes, as written and as encoded, and payload bytes.
func TestBatchFrameCarriesEveryShard(t *testing.T) {
	const shards = 2
	rt := &recordingTransport{}
	r0 := bootNode(t, 0, 2, func(cfg *Config) { cfg.Transport, cfg.Shards = rt, shards })
	r1 := bootNode(t, 1, 2, func(cfg *Config) { cfg.Shards = shards })
	if err := r0.Connect(map[model.ReplicaID]string{1: r1.Addr()}); err != nil {
		t.Fatal(err)
	}
	if err := r1.Connect(map[model.ReplicaID]string{0: r0.Addr()}); err != nil {
		t.Fatal(err)
	}
	nodes := []*Node{r0, r1}
	keys := keysOfEachShard(r0.router)
	// One write opens the link before the burst.
	if _, err := r0.Do(keys[0], model.Write("warm")); err != nil {
		t.Fatal(err)
	}
	if !WaitQuiesced(nodes, 30*time.Second) {
		t.Fatal("the pair never quiesced after the warm-up write")
	}

	rt.mu.Lock()
	first := len(rt.writes)
	rt.mu.Unlock()
	before := r0.Stats().BatchFrames
	start := time.Now()
	writes := 0
	for time.Since(start) < 20*time.Millisecond {
		if _, err := r0.Do(keys[writes%shards], model.Write(model.Value(fmt.Sprintf("v%d", writes)))); err != nil {
			t.Fatal(err)
		}
		writes++
		for next := time.Now().Add(20 * time.Microsecond); time.Now().Before(next); {
			runtime.Gosched()
		}
	}
	arrived := func() bool {
		for si := range r1.shards {
			if r1.shards[si].logLen(0) < r0.shards[si].logLen(0) {
				return false
			}
		}
		return true
	}
	for deadline := time.Now().Add(10 * time.Second); !arrived(); time.Sleep(50 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatal("the burst never reached r1")
		}
	}
	elapsed := time.Since(start)
	frames := r0.Stats().BatchFrames - before
	if bound := int64((elapsed+batchPace-1)/batchPace) + 1; frames > bound {
		t.Errorf("%d writes in %v took %d batch frames, want at most %d (⌈elapsed / batchPace⌉ + 1: one per pass)", writes, elapsed, frames, bound)
	}

	rt.mu.Lock()
	bs := rt.batches(t, 0, shards)
	rt.mu.Unlock()
	var both int
	for _, b := range bs {
		if b.write >= first && len(b.secs) == shards {
			both++
		}
	}
	if both == 0 {
		t.Errorf("none of the %d batch frames of %d writes carried both shards' sections", frames, writes)
	}
	checkRuns(t, bs, []uint64{r0.shards[0].logLen(0), r0.shards[1].logLen(0)})
	t.Logf("%d writes in %v: %d batch frames, %d of them carrying both shards", writes, elapsed, frames, both)

	if !WaitQuiesced(nodes, 30*time.Second) {
		t.Fatal("the pair never quiesced after the burst")
	}
	if err := CheckConverged(Doers(nodes), keys); err != nil {
		t.Fatal(err)
	}

	// BatchBytes counts the frames as written, BatchRawBytes as encoded —
	// type and sections behind their header, before the stream — and
	// BatchPayloadBytes the store payloads in their sections.
	rt.mu.Lock()
	var wrote, raw, payload int64
	for _, b := range rt.batches(t, 0, shards) {
		wrote += int64(len(rt.writes[b.write]))
		raw += int64(1 + b.rawLen + wire.FrameHeaderLen(1+b.rawLen))
		for _, sec := range b.secs {
			for _, u := range sec.us {
				payload += int64(len(u.Payload))
			}
		}
	}
	rt.mu.Unlock()
	if st := r0.Stats(); st.BatchBytes != wrote || st.BatchRawBytes != raw || st.BatchPayloadBytes != payload {
		t.Fatalf("stats count %d batch bytes, %d as encoded, carrying %d payload bytes; the recorded frames are %d, %d as encoded, carrying %d",
			st.BatchBytes, st.BatchRawBytes, st.BatchPayloadBytes, wrote, raw, payload)
	}
}

// TestReconnectStartsRunsAfresh: both ends of a replication connection keep
// each shard's run state from zero and the LZ stream from empty, so the
// first section a new connection carries reads absolute and refers to
// nothing a dead connection carried. r0 writes to both shards, its link is
// broken (breakConn), and it writes again values that repeat the first
// round's: the new connection's first frame, decoded from the zero state
// and an empty stream, starts each shard right after what r1 reported
// holding, r1 counts no duplicate and no gap, and the pair converges.
func TestReconnectStartsRunsAfresh(t *testing.T) {
	const shards = 2
	rt := &recordingTransport{}
	r0 := bootNode(t, 0, 2, func(cfg *Config) { cfg.Transport, cfg.Shards = rt, shards })
	r1 := bootNode(t, 1, 2, func(cfg *Config) { cfg.Shards = shards })
	if err := r0.Connect(map[model.ReplicaID]string{1: r1.Addr()}); err != nil {
		t.Fatal(err)
	}
	nodes := []*Node{r0, r1}
	keys := keysOfEachShard(r0.router)
	write := func(round int) {
		t.Helper()
		for i := 0; i < 10; i++ {
			v := fmt.Sprintf("%s-%d-%d", strings.Repeat("again", 4), i, round)
			if _, err := r0.Do(keys[i%shards], model.Write(model.Value(v))); err != nil {
				t.Fatal(err)
			}
		}
		if !WaitQuiesced(nodes, 30*time.Second) {
			t.Fatalf("round %d never quiesced", round)
		}
	}
	write(0)
	held := []uint64{r1.shards[0].logLen(0), r1.shards[1].logLen(0)}
	link := r0.allPeers()[0]
	dials := link.dials.Load()
	link.breakConn()
	for deadline := time.Now().Add(10 * time.Second); link.dials.Load() == dials; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the link never redialled")
		}
	}
	write(1)

	rt.mu.Lock()
	bs := rt.batches(t, 0, shards)
	rt.mu.Unlock()
	last := bs[len(bs)-1].conn
	var fresh *recordedBatch
	for i := range bs {
		if bs[i].conn == last {
			fresh = &bs[i]
			break
		}
	}
	if fresh == nil || fresh.conn == bs[0].conn {
		t.Fatalf("no batch frame on a second connection among %d", len(bs))
	}
	for _, sec := range fresh.secs {
		if got := sec.us[0].Seq; got != held[sec.shard]+1 {
			t.Errorf("the new connection's first section of shard %d starts at seq %d, want %d: right after the %d r1 held", sec.shard, got, held[sec.shard]+1, held[sec.shard])
		}
	}
	checkRuns(t, bs, []uint64{r0.shards[0].logLen(0), r0.shards[1].logLen(0)})
	if st := r1.Stats(); st.DupFrames != 0 || st.GapFrames != 0 {
		t.Fatalf("r1 counted %d duplicate and %d gap frames across the reconnect", st.DupFrames, st.GapFrames)
	}
	if err := CheckConverged(Doers(nodes), keys); err != nil {
		t.Fatal(err)
	}
}
