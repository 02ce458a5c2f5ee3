package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"net"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/membership"
	"repro/internal/model"
	"repro/internal/seglog"
	"repro/internal/spec"
	"repro/internal/store"
	"repro/internal/wire"

	_ "repro/internal/store/lww"
)

// TestOversizedUpdateFailStopsLink is the regression for the reconnect hot
// loop: an update over the frame limit fails EndFrame identically on every
// future connection, so the old treat-it-as-connection-death path redialed
// forever. The sender must latch the terminal error, stop reconnecting, and
// surface the condition in Stats, also when the pass that meets the update
// has another shard's updates to send.
func TestOversizedUpdateFailStopsLink(t *testing.T) {
	nodes := startClusterWith(t, "lww", 2, func(cfg *Config) { cfg.MaxFrame = 2048 })

	// A small write proves the link works before the poison update.
	if _, err := nodes[0].Do("x", model.Write("small")); err != nil {
		t.Fatal(err)
	}
	// The oversized write succeeds locally (the frame limit is a transport
	// bound, not a store bound) but its broadcast can never travel.
	if _, err := nodes[0].Do("x", model.Write(model.Value(strings.Repeat("v", 4096)))); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for nodes[0].Stats().FailedLinks == 0 {
		if time.Now().After(deadline) {
			t.Fatal("oversized update never fail-stopped the link")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if linkErr := nodes[0].allPeers()[0].failure(); linkErr == nil {
		t.Fatal("failed link has no latched error")
	} else if !strings.Contains(linkErr.Error(), "undeliverable") {
		t.Fatalf("latched error %q does not name the undeliverable update", linkErr)
	}

	// Fail-stop means no more redialing: the reconnect counter must stop
	// growing once the link is latched.
	base := nodes[0].Stats().Reconnects
	time.Sleep(300 * time.Millisecond) // several dialBackoffMax periods
	if got := nodes[0].Stats().Reconnects; got != base {
		t.Fatalf("failed link kept reconnecting: %d -> %d", base, got)
	}

	// Another shard with updates pending in the same pass, on either side of
	// the oversized update's shard: the frame carries the other shard's
	// updates and the one ahead of the oversized update, which waits for a
	// frame of its own, fails it alone, and latches.
	for big := 0; big < 2; big++ {
		t.Run(fmt.Sprintf("oversized in shard %d", big), func(t *testing.T) {
			sharded := func(cfg *Config) { cfg.MaxFrame, cfg.Shards = 2048, 2 }
			r0, r1 := bootNode(t, 0, 2, sharded), bootNode(t, 1, 2, sharded)
			keys := keysOfEachShard(r0.router)
			for i, v := range []string{"small", strings.Repeat("v", 4096), "small"} {
				for si, k := range keys {
					if si == big || i != 1 {
						if _, err := r0.Do(k, model.Write(model.Value(v))); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			if err := r0.Connect(map[model.ReplicaID]string{1: r1.Addr()}); err != nil {
				t.Fatal(err)
			}
			deadline := time.Now().Add(5 * time.Second)
			for r0.Stats().FailedLinks == 0 {
				if time.Now().After(deadline) {
					t.Fatal("oversized update never fail-stopped the link")
				}
				time.Sleep(5 * time.Millisecond)
			}
			if err := r0.allPeers()[0].failure(); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("shard %d update seq 2 undeliverable", big)) {
				t.Fatalf("latched error %v, want shard %d's update seq 2 undeliverable", err, big)
			}
			want := []uint64{2, 2}
			want[big] = 1
			held := func() []uint64 { return []uint64{r1.shards[0].logLen(0), r1.shards[1].logLen(0)} }
			for !slices.Equal(held(), want) {
				if time.Now().After(deadline) {
					t.Fatalf("r1 holds %v of r0's updates per shard, want %v: all but the oversized one and what follows it", held(), want)
				}
				time.Sleep(5 * time.Millisecond)
			}
			if st := r0.Stats(); st.BatchFrames != 1 {
				t.Fatalf("r0 wrote %d batch frames, want the one that carried both shards", st.BatchFrames)
			}
		})
	}
}

// slowReceives is a NodeStorage whose journal takes d to persist each
// receive event: a healthy receiver that answers late.
type slowReceives time.Duration

func (d slowReceives) Open(model.ReplicaID, int, string, int, int) (func(Event) error, *History, *membership.Forest, func() error, error) {
	journal := func(ev Event) error {
		if ev.Kind == model.ActReceive {
			time.Sleep(time.Duration(d))
		}
		return nil
	}
	return journal, nil, nil, nil, nil
}

// silentPeer is the acceptor half of a replication link that answers every
// hello, the opening one and every question, with a delivered count of
// zero, and reports each update's seq as it arrives.
func silentPeer(t *testing.T) (net.Listener, <-chan uint64) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	arrivals := make(chan uint64, 256)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				fr := wire.NewFrameReader(c)
				rx := newReceivingEnd(1)
				for {
					b, err := fr.ReadFrame(wire.DefaultMaxFrame)
					if err != nil {
						return
					}
					r := wire.NewReader(b)
					switch r.Uvarint() {
					case tHello:
						w := wire.NewWriter()
						appendHelloAck(w, []uint64{0})
						if _, err := wire.WriteFrame(c, w.Bytes(), 0); err != nil {
							return
						}
					case tBatch:
						secs, err := readBatch(r, rx, 0, nil)
						if err != nil {
							return
						}
						for _, sec := range secs {
							for _, u := range sec.us {
								arrivals <- u.Seq
							}
						}
					}
				}
			}(conn)
		}
	}()
	return ln, arrivals
}

// TestLiveLinkNeverResends: a connection delivers every frame in order or
// dies, so a sender writes each update once per connection, however late the
// ack. Every node runs the production default timings. The sender used to
// keep a retransmission timer on the live connection: a receiver whose
// journal took 600 ms per receive got 9 retransmitted and 9 duplicate frames
// for 3 writes, and a peer that never acked was sent its first update again
// every few hundred milliseconds.
func TestLiveLinkNeverResends(t *testing.T) {
	t.Run("slow receiver", func(t *testing.T) {
		nodes, err := BootMesh(2, func(i int) Config {
			cfg := Config{ID: model.ReplicaID(i), N: 2, Store: openCausal(t), Listen: "127.0.0.1:0"}
			if i == 1 {
				cfg.Storage = slowReceives(600 * time.Millisecond)
			}
			return cfg
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			for _, nd := range nodes {
				nd.Close()
			}
		})
		for i := 0; i < 3; i++ {
			if _, err := nodes[0].Do("x", model.Write(model.Value(fmt.Sprintf("v%d", i)))); err != nil {
				t.Fatal(err)
			}
		}
		if !WaitQuiesced(nodes, 30*time.Second) {
			t.Fatal("the cluster never quiesced")
		}
		if r0, r1 := nodes[0].Stats(), nodes[1].Stats(); r0.Retransmits != 0 || r1.DupFrames != 0 || r1.Receives != 3 {
			t.Fatalf("3 writes to a slow receiver: r0 retransmitted %d, r1 saw %d duplicate frames and %d receives",
				r0.Retransmits, r1.DupFrames, r1.Receives)
		}
	})

	t.Run("peer that never acks", func(t *testing.T) {
		ln, arrivals := silentPeer(t)
		nd, err := NewNode(Config{ID: 0, N: 2, Store: openCausal(t), Listen: "127.0.0.1:0"})
		if err != nil {
			t.Fatal(err)
		}
		defer nd.Close()
		if err := nd.Connect(map[model.ReplicaID]string{1: ln.Addr().String()}); err != nil {
			t.Fatal(err)
		}
		// Each write is followed by a pause longer than the old timer's
		// 200 ms floor, so a resend on the live connection would arrive
		// inside the window.
		seen := make(map[uint64]int)
		for i := 0; i < 3; i++ {
			if _, err := nd.Do("x", model.Write(model.Value(fmt.Sprintf("v%d", i)))); err != nil {
				t.Fatal(err)
			}
			window := time.After(500 * time.Millisecond)
			for open := true; open; {
				select {
				case seq := <-arrivals:
					seen[seq]++
				case <-window:
					open = false
				}
			}
		}
		if want := map[uint64]int{1: 1, 2: 1, 3: 1}; !maps.Equal(seen, want) {
			t.Fatalf("arrivals by seq %v, want %v", seen, want)
		}
		if st := nd.Stats(); st.Retransmits != 0 || st.Reconnects != 0 {
			t.Fatalf("a live connection was resent on or redialled: %+v", st)
		}
	})
}

// meshOf boots n nodes at the production default timings, the node
// storage of replica i being storage(i) (nil for none), and closes them when
// the test ends.
func meshOf(t *testing.T, n int, storage func(i int) NodeStorage) []*Node {
	t.Helper()
	nodes, err := BootMesh(n, func(i int) Config {
		return Config{Store: openCausal(t), Listen: "127.0.0.1:0", Storage: storage(i)}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, nd := range nodes {
			nd.Close()
		}
	})
	return nodes
}

// TestReplicatedWriteIsOneFramePerPeer: a batch goes unacknowledged, so a
// receiver writes nothing for the updates it applies. The only frames it
// writes on a link are its answers to the sender's questions, and the
// sender asks at most once per quiescence poll. Each receiver used to write
// a cumulative ack per batch: here, one per write.
func TestReplicatedWriteIsOneFramePerPeer(t *testing.T) {
	const writes = 100
	nodes := meshOf(t, 3, func(int) NodeStorage { return nil })
	// One write at every node opens all six links; then wait until no answer
	// to a question of that round is still on its way.
	for _, nd := range nodes {
		if _, err := nd.Do(model.ObjectID(fmt.Sprintf("warm-%d", nd.ID())), model.Write("w")); err != nil {
			t.Fatal(err)
		}
	}
	if !WaitQuiesced(nodes, 30*time.Second) {
		t.Fatal("the cluster never quiesced after the warm-up writes")
	}
	framesOut := func() []int64 {
		var fs []int64
		for _, nd := range nodes {
			fs = append(fs, nd.Stats().FramesOut)
		}
		return fs
	}
	before := framesOut()
	for {
		time.Sleep(20 * time.Millisecond)
		now := framesOut()
		if slices.Equal(now, before) {
			break
		}
		before = now
	}

	// Each write travels alone: the next is made once both peers hold it.
	for i := 0; i < writes; i++ {
		if _, err := nodes[0].Do("x", model.Write(model.Value(fmt.Sprintf("v%d", i)))); err != nil {
			t.Fatal(err)
		}
		for deadline := time.Now().Add(10 * time.Second); nodes[1].shards[0].logLen(0) < uint64(i+2) || nodes[2].shards[0].logLen(0) < uint64(i+2); time.Sleep(50 * time.Microsecond) {
			if time.Now().After(deadline) {
				t.Fatalf("write %d never reached both peers", i)
			}
		}
	}
	polls := 0
	if err := PollQuiesced(func() (bool, error) {
		polls++
		all := true
		for _, nd := range nodes {
			all = nd.Quiesced() && all
		}
		return all, nil
	}, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	for i, nd := range nodes[1:] {
		st := nd.Stats()
		if grew := st.FramesOut - before[i+1]; grew > int64(polls) || st.Receives != writes+2 {
			t.Errorf("r%d applied %d updates and wrote %d frames for %d writes at r0 over %d quiescence polls, want at most one answer per poll",
				nd.ID(), st.Receives, grew, writes, polls)
		}
	}
}

// gatedReceives is a NodeStorage whose journal holds each receive event
// until release is closed, signalling entered as the first one arrives.
type gatedReceives struct{ entered, release chan struct{} }

func (g gatedReceives) Open(model.ReplicaID, int, string, int, int) (func(Event) error, *History, *membership.Forest, func() error, error) {
	journal := func(ev Event) error {
		if ev.Kind == model.ActReceive {
			select {
			case g.entered <- struct{}{}:
			default:
			}
			<-g.release
		}
		return nil
	}
	return journal, nil, nil, nil, nil
}

// TestDrainedAnswersAfterApply: a sender learns what its peer delivered
// only by asking, and the answer is read after the update is applied and
// journaled. While r1's journal holds r0's update, r0 stays undrained
// however often the quiescence check asks; released, the answers arrive and
// r0 drains. A second update, applied at once, is not reported until r0
// asks again: r1 acknowledges no batch.
func TestDrainedAnswersAfterApply(t *testing.T) {
	gate := gatedReceives{entered: make(chan struct{}, 1), release: make(chan struct{})}
	nodes := meshOf(t, 2, func(i int) NodeStorage {
		if i == 1 {
			return gate
		}
		return nil
	})
	released := false
	t.Cleanup(func() { // runs before the nodes close: a held journal would wedge Close
		if !released {
			close(gate.release)
		}
	})
	r0, r1 := nodes[0], nodes[1]
	if _, err := r0.Do("x", model.Write("held")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-gate.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the update never reached r1's journal")
	}
	for i := 0; i < 20; i++ {
		if r0.Quiesced() {
			t.Fatalf("poll %d: r0 drained while r1's journal still holds the update", i)
		}
		time.Sleep(10 * time.Millisecond)
	}
	close(gate.release)
	released = true
	if !WaitQuiesced(nodes, 30*time.Second) {
		t.Fatalf("r0 never drained after r1's journal was released: %+v", r0.Stats())
	}

	if _, err := r0.Do("x", model.Write("free")); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); r1.Stats().Receives != 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("r1 never applied the second update")
		}
	}
	time.Sleep(50 * time.Millisecond) // room for an ack, were r1 to write one
	if r0.Quiesced() {
		t.Fatal("r0 drained on its first poll after the second update: r1 acknowledged a batch nobody asked about")
	}
	if !WaitQuiesced(nodes, 30*time.Second) {
		t.Fatalf("r0 never drained after the second update: %+v", r0.Stats())
	}
}

// failingReceives is a NodeStorage whose journal refuses every receive event.
type failingReceives struct{}

func (failingReceives) Open(model.ReplicaID, int, string, int, int) (func(Event) error, *History, *membership.Forest, func() error, error) {
	journal := func(ev Event) error {
		if ev.Kind == model.ActReceive {
			return errors.New("disk gone")
		}
		return nil
	}
	return journal, nil, nil, nil, nil
}

// TestFailedJournalNeverAnswers: an answer promises that what it counts is
// applied and journaled, so a receiver whose journal refused an update
// answers no question — not on the connection that carried the update, and
// not on a new one — and fail-stops. The sender never drains.
func TestFailedJournalNeverAnswers(t *testing.T) {
	nodes := meshOf(t, 2, func(i int) NodeStorage {
		if i == 1 {
			return failingReceives{}
		}
		return nil
	})
	r0, r1 := nodes[0], nodes[1]
	if _, err := r0.Do("x", model.Write("lost")); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if _, err := r1.Do("y", model.Read()); errors.Is(err, ErrClosed) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("r1 kept serving after its journal refused an update")
		}
	}
	for i := 0; i < 30; i++ {
		if r0.Quiesced() {
			t.Fatalf("poll %d: r0 drained although r1 never journaled the update", i)
		}
		time.Sleep(10 * time.Millisecond)
	}
	p := r0.allPeers()[0]
	p.mu.Lock()
	acked := p.cursors[0].lastAcked
	p.mu.Unlock()
	if acked != 0 {
		t.Fatalf("r0 holds a delivered count of %d from a receiver that journaled nothing", acked)
	}
}

// TestClientOpTimeout is the regression for unbounded client I/O: against a
// node that accepts and reads but never replies, a Client with an op
// timeout must fail the call within the bound instead of hanging forever.
func TestClientOpTimeout(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			// Half-open in the application sense: consume requests, never
			// answer.
			go func(c net.Conn) {
				buf := make([]byte, 4096)
				for {
					if _, err := c.Read(buf); err != nil {
						c.Close()
						return
					}
				}
			}(conn)
		}
	}()

	c, err := Dial(ln.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetOpTimeout(100 * time.Millisecond)

	start := time.Now()
	_, err = c.Do("x", model.Write("v"))
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("Do against a mute server succeeded")
	}
	if elapsed > 2*time.Second {
		t.Fatalf("Do took %v to fail, want ~100ms", elapsed)
	}

	// Zero timeout stays unbounded (convergence tests rely on it): just
	// check the setter round-trips without disturbing the connection state.
	c.SetOpTimeout(0)
	if c.opTimeout != 0 {
		t.Fatal("SetOpTimeout(0) did not clear the bound")
	}
}

// TestClientFailureClosesConnection: a reply that times out leaves the
// stream at an unknown point — cut off mid-payload, or not yet begun and
// bound to answer the next request in its place — so after a failed round
// trip the client hangs up and every later call fails with an error
// wrapping the first, without touching the connection. The fake node here
// writes the rest of the late reply and a well-formed reply to a second
// request after the client gave up, and must never see that request.
func TestClientFailureClosesConnection(t *testing.T) {
	const opTimeout, stall = 50 * time.Millisecond, 200 * time.Millisecond
	for _, cut := range []struct {
		name string
		at   func(reply []byte) int // bytes of the first reply written before the stall
	}{
		{"mid-payload", func(reply []byte) int { return wire.FrameHeaderLen(len(reply)) + len(reply)/2 }},
		{"before-first-byte", func([]byte) int { return 0 }},
	} {
		t.Run(cut.name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			secondRequest := make(chan bool, 1)
			go func() {
				conn, err := ln.Accept()
				if err != nil {
					secondRequest <- false
					return
				}
				defer conn.Close()
				fr := wire.NewFrameReader(conn)
				if _, err := fr.ReadFrame(0); err != nil {
					secondRequest <- false
					return
				}
				reply := func(id uint64) []byte {
					w := wire.NewWriter()
					w.BeginFrame()
					appendResponse(w, id, model.Response{OK: true, Values: []model.Value{"a value long enough to cut in half"}})
					frame, _ := w.EndFrame(0)
					return frame
				}
				first := reply(1)
				at := cut.at(wire.FramePayload(first))
				conn.Write(first[:at])
				time.Sleep(stall)
				conn.Write(append(first[at:], reply(2)...))
				_, err = fr.ReadFrame(0)
				secondRequest <- err == nil
			}()

			c, err := Dial(ln.Addr().String(), time.Second)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			c.SetOpTimeout(opTimeout)
			_, first := c.Do("x", model.Read())
			if first == nil {
				t.Fatal("a reply that stalled past the op timeout was accepted")
			}
			start := time.Now()
			resp, err := c.Do("x", model.Read())
			if !errors.Is(err, first) {
				t.Fatalf("the call after a failed round trip = (%+v, %v), want an error wrapping %q", resp, err, first)
			}
			if waited := time.Since(start); waited > opTimeout {
				t.Fatalf("the call after a failed round trip took %v: it used the connection", waited)
			}
			if <-secondRequest {
				t.Fatal("the node received a request on the connection of a failed round trip")
			}
		})
	}
}

// refQueue is a replication link that keeps its own copy of what it owes:
// a queue of the unacked updates, which nextBatch scans from the head past
// everything sent and ack prunes by copying the rest down. It is the
// reference the cursors over the shard's log must match batch for batch.
type refQueue struct {
	queue     []protoUpdate
	lastAcked uint64
	maxSent   uint64
}

// offer queues updates the shard minted, except what the peer has already
// acknowledged.
func (q *refQueue) offer(us ...protoUpdate) {
	for _, u := range us {
		if u.Seq > q.lastAcked {
			q.queue = append(q.queue, u)
		}
	}
}

func (q *refQueue) ack(cum uint64) {
	if cum > q.lastAcked {
		q.lastAcked = cum
	}
	n := 0
	for n < len(q.queue) && q.queue[n].Seq <= q.lastAcked {
		n++
	}
	q.queue = q.queue[:copy(q.queue, q.queue[n:])]
}

func (q *refQueue) nextBatch(sent uint64, max, sizeCap int) (us []protoUpdate, retransmits int64) {
	size := 0
	for _, u := range q.queue {
		if u.Seq <= sent {
			continue
		}
		cost := len(u.Payload) + 32
		if len(us) > 0 && (len(us) >= max || size+cost > sizeCap) {
			break
		}
		if u.Seq <= q.maxSent {
			retransmits++
		} else {
			q.maxSent = u.Seq
		}
		size += cost
		us = append(us, u)
	}
	return us, retransmits
}

// TestLinkCursorMatchesScanningReference drives a link's cursor over the
// shard's log and the queueing reference through the same seeded schedule
// of what a link does — the shard broadcasts, the sender drains in batches,
// cumulative acks arrive (stale, current, and beyond anything sent), a
// fresh connection rewinds to the peer's ack, the link is dropped
// and re-created (cursor zero, then the peer's hello-ack watermark) — over
// more than two log segments, and compares every
// batch, every retransmit count, both watermarks, and drained() against
// "the reference queue is empty". A cursor batch aliases the log, so it also
// stops at a segment boundary; there the reference is asked for exactly the
// updates up to the boundary, which proves the cut falls nowhere else.
func TestLinkCursorMatchesScanningReference(t *testing.T) {
	var boundaryCuts, retransmits, drainedSteps, owingSteps int64
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := looseShard(t, "lww")
		self := s.n.cfg.ID
		own := &s.updates[self]
		p, ref := newPeerSender(s.n, 2, "unused"), &refQueue{}
		var all []protoUpdate // everything broadcast so far: what a new link owes
		sent := uint64(0)     // the serve loop's position, shared: both must consume it alike
		// Odd seeds broadcast faster than the sender drains, so batches are
		// cut from deep inside the log; even seeds keep the link near drained.
		broadcasts := 40 + 20*int(seed%2)
		for step := 0; step < 6000; step++ {
			switch r := rng.Intn(100); {
			case r < broadcasts: // the shard broadcasts
				u := protoUpdate{Origin: self, Seq: uint64(own.Len()) + 1, Payload: make([]byte, rng.Intn(200))}
				noteRecorded(t, s, u.Origin, u.Lamport, u.Payload)
				all = append(all, u)
				ref.offer(u)
			case r < 85: // the sender drains one frame
				limit, sizeCap := 1+rng.Intn(8), 100+rng.Intn(600)
				got, re, cut := p.nextBatch(0, sent, limit, 0, sizeCap)
				refLimit := limit
				if room := seglog.SegmentLen - int(max(sent, ref.lastAcked)%seglog.SegmentLen); room < limit {
					refLimit = room
				}
				want, wantRe := ref.nextBatch(sent, refLimit, sizeCap)
				if re != wantRe || len(got) != len(want) {
					t.Fatalf("seed %d step %d: batch of %d (%d retransmits), reference %d (%d)", seed, step, len(got), re, len(want), wantRe)
				}
				for i := range want {
					if got[i].Seq != want[i].Seq {
						t.Fatalf("seed %d step %d: batch[%d] is seq %d, reference %d", seed, step, i, got[i].Seq, want[i].Seq)
					}
				}
				// cut: the batch leaves part of what the peer is owed behind.
				if owed := len(want) > 0 && ref.queue[len(ref.queue)-1].Seq > want[len(want)-1].Seq; cut != owed {
					t.Fatalf("seed %d step %d: a batch of %d reads cut %v, the reference owes more after it: %v", seed, step, len(got), cut, owed)
				}
				retransmits += re
				if len(want) > 0 {
					sent = want[len(want)-1].Seq
					if len(want) == refLimit && refLimit < limit {
						boundaryCuts++
					}
				}
			case r < 95: // an ack arrives: at what was sent, or behind it, or (a confused peer) beyond it
				cum := sent
				switch rng.Intn(4) {
				case 0:
					cum = uint64(rng.Int63n(int64(sent) + 1))
				case 1:
					cum += 1 + uint64(rng.Intn(2))
				}
				p.ack(0, cum)
				ref.ack(cum)
			case r < 98: // a fresh connection: resend from the peer's ack
				sent = ref.lastAcked
			default: // the link is dropped and re-created: it owes the whole log, less what the hello ack says the peer holds
				held := ref.lastAcked
				p, ref, sent = newPeerSender(s.n, 2, "unused"), &refQueue{}, 0
				ref.offer(all...)
				p.ack(0, held)
				ref.ack(held)
			}
			if c := p.cursors[0]; c.lastAcked != ref.lastAcked || c.maxSent != ref.maxSent || p.drained() != (len(ref.queue) == 0) {
				t.Fatalf("seed %d step %d: lastAcked %d maxSent %d drained %v over a log of %d, reference %d %d with %d queued",
					seed, step, c.lastAcked, c.maxSent, p.drained(), own.Len(), ref.lastAcked, ref.maxSent, len(ref.queue))
			}
			if len(ref.queue) == 0 {
				drainedSteps++
			} else {
				owingSteps++
			}
		}
		if acked := p.cursors[0].lastAcked; acked <= 2*seglog.SegmentLen {
			t.Fatalf("seed %d: the peer acked %d of %d updates, want more than two segments", seed, acked, own.Len())
		}
	}
	if boundaryCuts == 0 || retransmits == 0 || drainedSteps == 0 || owingSteps == 0 {
		t.Fatalf("the schedule missed a case: %d batches cut at a segment boundary, %d retransmits, %d steps drained, %d owing",
			boundaryCuts, retransmits, drainedSteps, owingSteps)
	}
}

// TestLogReadersRaceTheLoop: two links (nextBatch) and a range server
// (serveRange, over a pipe) read updates back out of the history's records
// while the shard keeps recording — do events between the updates, records
// crossing some hundred block boundaries, the update index crossing two
// segment boundaries, one record larger than a block. Every update read is
// compared with the one that was recorded. Run under -race this is the lock
// rule of shard.logMu: the block table and the index are read outside a
// turn only under it, the records themselves bare.
func TestLogReadersRaceTheLoop(t *testing.T) {
	const n, peerOrigin = 2*seglog.SegmentLen + 300, model.ReplicaID(2)
	s := looseShard(t, "lww")
	self := s.n.cfg.ID
	// Update seq of origin o, as recorded: stamp, length and bytes all tell
	// the two apart from every other update.
	payloadOf := func(o model.ReplicaID, seq uint64) []byte {
		size := 1 + int(seq*37%900)
		if seq == n/2 {
			size = seglog.BlockSize + 4000
		}
		p := make([]byte, size)
		for i := range p {
			p[i] = byte(seq) ^ byte(o) ^ byte(i)
		}
		return p
	}
	stampOf := func(o model.ReplicaID, seq uint64) uint64 { return 3*seq + uint64(o) }
	verify := func(who string, o model.ReplicaID, after uint64, us []protoUpdate) bool {
		for i, u := range us {
			seq := after + uint64(i) + 1
			if u.Origin != o || u.Seq != seq || u.Lamport != stampOf(o, seq) || !bytes.Equal(u.Payload, payloadOf(o, seq)) {
				t.Errorf("%s read r%d's update %d back as origin r%d seq %d stamp %d with %d payload bytes",
					who, o, seq, u.Origin, u.Seq, u.Lamport, len(u.Payload))
				return false
			}
		}
		return true
	}

	var readers sync.WaitGroup
	for i := 0; i < 2; i++ { // the links: the shard's own broadcasts, in batches
		readers.Add(1)
		go func(who string) {
			defer readers.Done()
			p := newPeerSender(s.n, peerOrigin, "unused")
			for sent := uint64(0); sent < n; {
				us, _, _ := p.nextBatch(0, sent, BatchMax, 0, 1<<20)
				if !verify(who, self, sent, us) {
					return
				}
				sent += uint64(len(us))
				p.ack(0, sent)
				runtime.Gosched()
			}
		}(fmt.Sprintf("link %d", i))
	}

	// The range server: the other origin's updates, streamed to a joiner that
	// checks each chunk. serveRange streams up to what the log holds when it
	// is called, and is called again from there until all n are served.
	joiner, donor := net.Pipe()
	defer joiner.Close()
	readers.Add(2)
	go func() {
		defer readers.Done()
		defer donor.Close()
		z := new(wire.Deflater)
		for from := uint64(0); from < n; {
			to := s.logLen(peerOrigin)
			if !s.n.serveRange(donor, s, peerOrigin, from, to, z) {
				t.Error("serveRange gave up")
				return
			}
			from = to
			runtime.Gosched()
		}
	}()
	go func() {
		defer readers.Done()
		fr := wire.NewFrameReader(joiner)
		for got := uint64(0); got < n; {
			typ, r, err := readTyped(joiner, fr, 0, 30*time.Second)
			if err != nil || typ != tRangeResp {
				t.Errorf("range chunk after %d updates: type %d, err %v", got, typ, err)
				return
			}
			_, us, err := decodeRange(r, nil)
			if err != nil || !verify("the range server", peerOrigin, got, us) {
				t.Errorf("range chunk after %d updates: %d updates, err %v", got, len(us), err)
				return
			}
			got += uint64(len(us))
		}
	}()

	// The shard's turns.
	for seq := uint64(1); seq <= n; seq++ {
		s.record(Event{Kind: model.ActDo, Lamport: 3 * seq, Object: "k", Op: model.Read()})
		noteRecorded(t, s, self, stampOf(self, seq), payloadOf(self, seq))
		noteRecorded(t, s, peerOrigin, stampOf(peerOrigin, seq), payloadOf(peerOrigin, seq))
	}
	readers.Wait()
	if blocks, _ := s.events.recs.Snapshot(); len(blocks) < 100 {
		t.Fatalf("the history is %d blocks, want the hundreds the test is about", len(blocks))
	}
}

// TestCutBatch pins the chunking rule every sender of updates shares.
func TestCutBatch(t *testing.T) {
	run := func(sizes ...int) []protoUpdate {
		us := make([]protoUpdate, len(sizes))
		for i, n := range sizes {
			us[i].Payload = make([]byte, n)
		}
		return us
	}
	for _, tc := range []struct {
		name                 string
		run                  []protoUpdate
		limit, used, sizeCap int
		want                 int
	}{
		{"empty run", nil, 64, 0, 1000, 0},
		{"whole run fits", run(10, 10, 10), 64, 0, 1000, 3},
		{"limit cuts", run(10, 10, 10, 10), 2, 0, 1000, 2},
		{"limit of one", run(10, 10), 1, 0, 1000, 1},
		{"size cap cuts before the update that overflows", run(68, 68, 68), 64, 0, 250, 2},
		{"size cap reached exactly", run(68, 68), 64, 0, 200, 2},
		{"each update is budgeted 32 bytes over its payload", run(0, 0, 0, 0), 64, 0, 100, 3},
		{"oversized first update travels alone", run(5000, 10), 64, 0, 1000, 1},
		{"oversized later update waits for its own frame", run(10, 5000, 10), 64, 0, 1000, 1},
		{"a lone oversized update is still taken", run(5000), 64, 0, 1000, 1},
		{"a later section shares what the frame has left", run(68, 68, 68), 64, 50, 250, 2},
		{"a later section fills the frame exactly", run(68, 68), 64, 100, 300, 2},
		{"a later section's update that does not fit waits", run(68), 64, 200, 250, 0},
		{"an oversized update waits for an empty frame", run(5000), 64, 1, 1000, 0},
	} {
		if got := cutBatch(tc.run, tc.limit, tc.used, tc.sizeCap); got != tc.want {
			t.Errorf("%s: cutBatch(%d updates, limit %d, used %d, cap %d) = %d, want %d", tc.name, len(tc.run), tc.limit, tc.used, tc.sizeCap, got, tc.want)
		}
	}
}

// TestRedialBacksOffWhenPeerHangsUp: a peer that accepts and hangs up —
// before any hello ack — is redialled on the exponential backoff schedule.
// The backoff used to be reset by every successful TCP dial, so such a peer
// was redialled every dialBackoffMin plus jitter: one dial per 7.5 ms or
// less, and a hot loop (≈13 600 connections a second) before the minimum.
func TestRedialBacksOffWhenPeerHangsUp(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var dials atomic.Int64
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			dials.Add(1)
			conn.Close()
		}
	}()

	st, err := store.Open("lww", spec.MVRTypes(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	nd, err := NewNode(fastConfig(0, 2, st))
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()
	if err := nd.Connect(map[model.ReplicaID]string{1: ln.Addr().String()}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(500 * time.Millisecond)
	// 5, 10, 20, 40, 80, then 100 ms, each plus up to half in jitter, fit
	// 7 to 10 dials in half a second; 20 leaves room for a slow box. A
	// backoff reset on every dial makes 66 or more.
	if got := dials.Load(); got < 2 || got > 20 {
		t.Fatalf("%d dials in 500ms on the %v..%v backoff, want between 2 and 20", got, dialBackoffMin, dialBackoffMax)
	}
	if st := nd.Stats(); st.FailedLinks != 0 {
		t.Fatalf("a peer that hangs up is not a terminal failure: %+v", st)
	}
}

// rawDial opens a connection to nd for a test that speaks the protocol by
// hand: send writes one frame, recv reads one and peels its type (0 once
// the node has hung up).
func rawDial(t *testing.T, nd *Node) (send func(build func(*wire.Writer)), recv func() (uint64, *wire.Reader)) {
	t.Helper()
	conn, err := net.Dial("tcp", nd.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	send = func(build func(*wire.Writer)) {
		t.Helper()
		w := wire.NewWriter()
		build(w)
		if _, err := wire.WriteFrame(conn, w.Bytes(), 0); err != nil {
			t.Fatal(err)
		}
	}
	fr := wire.NewFrameReader(conn)
	recv = func() (uint64, *wire.Reader) {
		typ, r, err := readTyped(conn, fr, 0, 0)
		if err != nil {
			return 0, nil
		}
		return typ, r
	}
	return send, recv
}

// TestProtocolVersionMismatchRefused: a hello or join of another protocol
// version is answered with this node's own version and then refused, and
// the side that reads such an answer treats it as terminal — a sender
// latches its link failed, a joiner gives up with errJoinRefused — instead
// of retrying a conversation that can never work.
func TestProtocolVersionMismatchRefused(t *testing.T) {
	nd := bootNode(t, 1, 3, nil)

	// Acceptor side, hello: a hand-written version-5 frame, and the hello of
	// the version before this one.
	for _, hello := range [][]uint64{
		{5, 1, 1, 1}, // v5: codec, compression, shards
		{protoVersion - 1, 1},
	} {
		send, recv := rawDial(t, nd)
		send(func(w *wire.Writer) {
			w.Uvarint(tHello)
			w.Uvarint(0) // from
			for _, v := range hello {
				w.Uvarint(v)
			}
		})
		typ, r := recv()
		if typ != tHelloAck {
			t.Fatalf("v%d hello answered with frame type %d, want the node's hello ack", hello[0], typ)
		}
		if a, err := decodeHelloAck(r); err != nil || a.Version != protoVersion {
			t.Fatalf("hello ack = (%+v, %v), want version %d", a, err, protoVersion)
		}
		if typ, _ := recv(); typ != 0 {
			t.Fatalf("refused v%d hello's connection stayed open: got frame type %d", hello[0], typ)
		}
	}

	// Acceptor side, join: likewise, and the joiner is not admitted.
	send, recv := rawDial(t, nd)
	send(func(w *wire.Writer) {
		w.Uvarint(tJoin)
		w.Uvarint(0) // from
		w.Uvarint(0) // epoch
		w.String("127.0.0.1:1")
		w.Uvarint(5) // version
		w.Uvarint(1) // v5: codec, compression
		w.Uvarint(1)
	})
	typ, r := recv()
	if typ != tJoinAck {
		t.Fatalf("v5 join answered with frame type %d, want the node's join ack", typ)
	}
	if version, _, _, err := decodeJoinAck(r, 3); err != nil || version != protoVersion {
		t.Fatalf("join ack = (version %d, %v), want version %d", version, err, protoVersion)
	}
	if typ, _ := recv(); typ != 0 {
		t.Fatalf("refused join's connection stayed open: got frame type %d", typ)
	}
	if ms := nd.Membership(); len(ms) != 1 {
		t.Fatalf("refused joiner entered the view: %+v", ms)
	}

	// Dialer side: a peer that answers everything as version 5 would.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				typ, _, err := readTyped(c, wire.NewFrameReader(c), 0, 0)
				if err != nil {
					return
				}
				w := wire.NewWriter()
				switch typ {
				case tHello:
					w.Uvarint(tHelloAck)
					w.Uvarint(5) // version
					w.Uvarint(1) // v5: codec, delivered, …
					w.Uvarint(0)
				case tJoin:
					w.Uvarint(tJoinAck)
					w.Uvarint(5) // version
					w.Uvarint(1) // v5: codec, members, compression
					w.Uvarint(0)
					w.Uvarint(1)
				}
				wire.WriteFrame(c, w.Bytes(), 0)
			}(conn)
		}
	}()
	old := map[model.ReplicaID]string{0: ln.Addr().String()}
	if err := nd.Connect(old); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Second)
	for nd.Stats().FailedLinks != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("link to a version-5 peer never latched failed: %+v", nd.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st := nd.Stats(); st.Reconnects > 2 {
		t.Fatalf("refused link reconnected %d times", st.Reconnects)
	}
	cfg := fastConfig(2, 3, openCausal(t))
	cfg.Join = old
	if joiner, err := NewNode(cfg); !errors.Is(err, errJoinRefused) {
		if err == nil {
			joiner.Close()
		}
		t.Fatalf("join through a version-5 seed: err = %v, want errJoinRefused", err)
	}
}

// TestReplicationRejectsForeignOrigin: a link carries its dialer's own
// broadcasts and nothing else. Nobody may say hello as the acceptor itself
// or as a replica outside the population. A run names no origin, so what a
// connection whose hello said r1 ships lands in r1's seq domain and nowhere
// else, and a section for a shard the node does not have hangs up.
func TestReplicationRejectsForeignOrigin(t *testing.T) {
	nd := bootNode(t, 0, 3, nil)
	for _, from := range []model.ReplicaID{0, 3} {
		send, recv := rawDial(t, nd)
		send(func(w *wire.Writer) { appendHello(w, from, 1) })
		if typ, _ := recv(); typ != 0 {
			t.Fatalf("hello from r%d answered with frame type %d, want a hang-up", from, typ)
		}
	}

	send, recv := rawDial(t, nd)
	send(func(w *wire.Writer) { appendHello(w, 1, 1) })
	if typ, _ := recv(); typ != tHelloAck {
		t.Fatalf("hello answered with frame type %d", typ)
	}
	payload := func(origin model.ReplicaID) []byte {
		src := openCausal(t).NewReplica(origin, 3)
		src.Do("k", model.Write("v"))
		return append([]byte(nil), src.PendingMessage()...)
	}
	tx := newSendingEnd(2)
	send(func(w *wire.Writer) {
		appendBatchFrame(w, tx, section{0, []protoUpdate{{Seq: 1, Lamport: 1, Payload: payload(1)}}})
	})
	send(func(w *wire.Writer) { appendHello(w, 1, 1) })
	if typ, r := recv(); typ != tHelloAck {
		t.Fatalf("the question after the dialer's own batch answered with frame type %d, want a hello ack", typ)
	} else if a, err := decodeHelloAck(r); err != nil || len(a.Delivered) != 1 || a.Delivered[0] != 1 {
		t.Fatalf("the question after the dialer's own batch answered %+v (err %v), want delivered [1]", a, err)
	}
	send(func(w *wire.Writer) {
		appendBatchFrame(w, tx, section{1, []protoUpdate{{Seq: 1, Lamport: 2, Payload: payload(1)}}})
	})
	if typ, _ := recv(); typ != 0 {
		t.Fatalf("a section for shard 1 of a one-shard node answered with frame type %d, want a hang-up", typ)
	}
	if st := nd.Stats(); st.Receives != 1 {
		t.Fatalf("node recorded %d receives, want only the dialer's own update", st.Receives)
	}
	for _, ev := range nd.History().Events {
		if ev.Kind == model.ActReceive && (ev.Origin != 1 || ev.Seq != 1) {
			t.Fatalf("the update r1's link carried was received as r%d's seq %d", ev.Origin, ev.Seq)
		}
	}
}

// ackingPeer is the acceptor half of a replication link and nothing else: it
// answers every hello with the seq of the last update it received (zero on
// the opening one) and writes nothing for a batch, out of one reused buffer,
// so a test that counts the process's allocations sees the node under test,
// not its peer.
func ackingPeer(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				var (
					r         wire.Reader
					secs      []section
					rx        = newReceivingEnd(1)
					delivered = []uint64{0}
				)
				fr, w := wire.NewFrameReader(conn), wire.NewWriter()
				for {
					b, err := recvFrame(fr, wire.DefaultMaxFrame)
					if err != nil {
						return
					}
					r.Reset(b)
					switch r.Uvarint() {
					case tHello:
					case tBatch:
						if secs, err = readBatch(&r, rx, 0, secs); err != nil {
							return
						}
						delivered[0] = rx.runs[0].seq
						continue
					default:
						return
					}
					w.Reset()
					w.BeginFrame()
					appendHelloAck(w, delivered)
					frame, err := w.EndFrame(wire.DefaultMaxFrame)
					if err != nil {
						return
					}
					if _, err := conn.Write(frame); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln
}

// TestDownPeerCostsNoLinkState: a link holds positions in the shard's log,
// never updates, so a peer that is unreachable costs its sender nothing per
// broadcast. 64 k writes at a node whose only peer is down allocate no more
// than the same writes do when the peer is up and acking, and leave behind
// what they do at a node with no link at all: the event history, the update
// log and the store's own state, which the node holds regardless. A link
// that queued what it owes would show up in both numbers — 48 B of update
// header per broadcast retained, and two to three times that allocated by
// the queue's growth.
func TestDownPeerCostsNoLinkState(t *testing.T) {
	const writes = 64 << 10
	value := model.Write(benchValue)
	measure := func(peer string) (allocated, retained float64) {
		nd := bootNode(t, 0, 2, nil)
		defer nd.Close()
		if peer != "none" {
			ln := ackingPeer(t)
			if peer == "down" {
				ln.Close() // the address now refuses connections
			}
			if err := nd.Connect(map[model.ReplicaID]string{1: ln.Addr().String()}); err != nil {
				t.Fatal(err)
			}
		}
		// Get past the logs' first segment, which still grows by doubling.
		for i := 0; i < seglog.SegmentLen; i++ {
			if _, err := nd.Do("k", value); err != nil {
				t.Fatal(err)
			}
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < writes; i++ {
			if _, err := nd.Do("k", value); err != nil {
				t.Fatal(err)
			}
		}
		if peer == "up" && !WaitQuiesced([]*Node{nd}, 30*time.Second) {
			t.Fatalf("the acking peer never drained the link: %+v", nd.Stats())
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		if st := nd.Stats(); st.Quiesced != (peer != "down") || st.Sends != writes+seglog.SegmentLen {
			t.Fatalf("peer %s: %+v", peer, st)
		}
		return float64(after.TotalAlloc-before.TotalAlloc) / writes, (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / writes
	}
	upAlloc, _ := measure("up") // its retained bytes come and go with the pooled compressors
	downAlloc, downKept := measure("down")
	_, noneKept := measure("none")
	t.Logf("per broadcast: %.1f B allocated with the peer up, %.1f B with it down; %.1f B retained with it down, %.1f B with no link",
		upAlloc, downAlloc, downKept, noneKept)
	// A queue's growth allocates 100 B and more per broadcast against roughly
	// 1 100 B either way; the acking runs differ from each other by about 4%
	// (batch compression, GC timing) and sit above the down one.
	if downAlloc > 1.04*upAlloc {
		t.Errorf("a broadcast allocates %.1f B with the peer down, %.1f B with it up", downAlloc, upAlloc)
	}
	// Neither of these nodes writes a frame, so what they keep is the same
	// to the byte but for the down link's redials.
	if downKept > 1.01*noneKept {
		t.Errorf("a broadcast leaves %.1f B behind with the peer down, %.1f B with no link", downKept, noneKept)
	}
}

// TestStatsMonotoneAcrossLeave: Retransmits and Reconnects count events in
// the life of the node, not of its current links. They used to be summed
// over the live senders, so a member leaving — which drops its link — took
// the link's counts with it and the node's totals ran backwards.
func TestStatsMonotoneAcrossLeave(t *testing.T) {
	nodes := startCluster(t, "causal", 2)
	r0, r1 := nodes[0], nodes[1]
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(2 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s; r0 stats %+v", what, r0.Stats())
			}
		}
	}
	for i := int64(1); i <= 3; i++ {
		if _, err := r0.Do("x", model.Write(model.Value(fmt.Sprintf("v%d", i)))); err != nil {
			t.Fatal(err)
		}
		waitFor("a live connection to break", func() bool { return r0.BreakConnections() == 1 })
		waitFor("the redial", func() bool { return r0.Stats().Reconnects == i })
	}
	before := r0.Stats()
	if err := r1.Leave(); err != nil {
		t.Fatal(err)
	}
	waitFor("r0 to drop its link to the departed r1", func() bool { return len(r0.allPeers()) == 0 })
	after := r0.Stats()
	if before.Reconnects != 3 || after.Reconnects < before.Reconnects || after.Retransmits < before.Retransmits {
		t.Fatalf("counters ran backwards across the leave: reconnects %d → %d, retransmits %d → %d",
			before.Reconnects, after.Reconnects, before.Retransmits, after.Retransmits)
	}
}

// TestConnectRacesClose: a link may be asked for — by Connect, or by the
// membership view through ensureLinks — while the node closes. Either the
// sender joins the node's WaitGroup before Close waits on it and is stopped
// by that Close, or it is never started and the caller hears ErrClosed;
// nothing panics, nothing keeps running, no link exists that Close did not
// stop. Run under -race: the start used to be ordered against Close only
// by the shard loops being alive.
func TestConnectRacesClose(t *testing.T) {
	for i := 0; i < 200; i++ {
		nd := bootNode(t, 0, 3, nil)
		nd.view.Merge(membership.Member{ID: 2, Addr: "127.0.0.1:1"})
		nd.dynamic.Store(true) // ensureLinks reconciles; no gossip loop is started
		var connectErr error
		racers := []func(){
			func() { connectErr = nd.Connect(map[model.ReplicaID]string{1: "127.0.0.1:1"}) },
			nd.ensureLinks,
			func() { nd.Close() },
		}
		var wg sync.WaitGroup
		for j := range racers {
			race := racers[(i+j)%len(racers)] // whoever starts last tends to run first
			wg.Add(1)
			go func() {
				defer wg.Done()
				race()
			}()
		}
		wg.Wait()
		if connectErr != nil && !errors.Is(connectErr, ErrClosed) {
			t.Fatalf("round %d: Connect: %v", i, connectErr)
		}
		nd.peerMu.Lock()
		if _, linked := nd.peers[1]; linked != (connectErr == nil) {
			t.Fatalf("round %d: Connect returned %v, link to r1 exists: %v", i, connectErr, linked)
		}
		for id, p := range nd.peers {
			select {
			case <-p.done:
			default:
				t.Fatalf("round %d: the sender to r%d outlived Close", i, id)
			}
		}
		nd.peerMu.Unlock()
		nd.wg.Wait() // every sender that was started has exited
	}
}
