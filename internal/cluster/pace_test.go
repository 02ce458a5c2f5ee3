package cluster

import (
	"encoding/binary"
	"fmt"
	"runtime"
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

// batchFrameOf reads a recorded Write as a replication batch frame: the
// number of updates it carries, and whether it left in a compression
// envelope. ok is false for any other frame.
func batchFrameOf(t *testing.T, w []byte) (updates int, compressed, ok bool) {
	t.Helper()
	_, h := binary.Uvarint(w)
	frame := w[h:]
	if typ, _ := binary.Uvarint(frame); typ == tCompressed {
		inner, _, err := decompressFrame(frame, 0)
		if err != nil {
			t.Fatal(err)
		}
		frame, compressed = inner, true
	}
	r := wire.NewReader(frame)
	if r.Uvarint() != tBatch {
		return 0, false, false
	}
	_, us, err := decodeBatch(r, nil)
	if err != nil {
		t.Fatal(err)
	}
	return len(us), compressed, true
}

// TestOnlyCutBatchesAreCompressed: a batch frame is offered to the
// compressor only when cutBatch cut it. A backlog longer than BatchMax,
// written before the link is up, leaves its first frame in a tCompressed
// envelope; the live frames of a later burst, paced to carry several
// updates each and well past the compression floor, leave raw.
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
	var sent int
	for _, w := range rt.writes[:catchUp] {
		updates, compressed, ok := batchFrameOf(t, w)
		if !ok {
			continue
		}
		if updates == BatchMax && compressed {
			cutCompressed = true
		}
		sent += updates
	}
	if !cutCompressed || sent != backlog {
		t.Errorf("the %d-update backlog left in frames of %d updates in all, want its first %d-update frame compressed (found: %v)", backlog, sent, BatchMax, cutCompressed)
	}
	var multi int
	sent = 0
	for i, w := range rt.writes[catchUp:] {
		updates, compressed, ok := batchFrameOf(t, w)
		if !ok {
			continue
		}
		if compressed {
			t.Errorf("live frame %d of %d updates (%d bytes) left compressed", i, updates, len(w))
		}
		if updates > 1 {
			multi++
		}
		sent += updates
	}
	if sent != burst || multi == 0 {
		t.Errorf("the %d-write burst left in frames of %d updates in all, %d of them carrying several, want all %d and a paced multi-update frame", burst, sent, multi, burst)
	}
}
