package cluster

import (
	"math/rand"
	"net"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/seglog"
	"repro/internal/spec"
	"repro/internal/store"
	"repro/internal/wire"

	_ "repro/internal/store/lww"
)

// TestAckPruneReleasesPayloads is the regression for the queue[1:] pruning
// bug: re-slicing kept the backing array, whose dead head entries pinned
// every acked payload for as long as the link lived. Pruning must zero the
// acked slots so acked payloads become collectable.
func TestAckPruneReleasesPayloads(t *testing.T) {
	p := &peerSender{kick: make(chan struct{}, 1), queues: make([]peerQueue, 1)}
	const n = 64
	var finalized atomic.Int64
	for i := 1; i <= n; i++ {
		payload := make([]byte, 1024)
		runtime.SetFinalizer(&payload[0], func(*byte) { finalized.Add(1) })
		p.enqueue(0, protoUpdate{Origin: 0, Seq: uint64(i), Payload: payload})
	}
	p.ack(0, n-1) // everything but the newest update is acked

	deadline := time.Now().Add(5 * time.Second)
	for finalized.Load() < n-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d acked payloads became collectable — pruning pins the queue's backing array",
				finalized.Load(), n-1)
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}

	// The unacked tail must survive pruning intact.
	p.mu.Lock()
	defer p.mu.Unlock()
	if q := p.queues[0].pending(); len(q) != 1 || q[0].Seq != n || q[0].Payload == nil {
		t.Fatalf("queue after prune = %+v, want the single unacked update", q)
	}
}

// TestOversizedUpdateFailStopsLink is the regression for the reconnect hot
// loop: an update over the frame limit fails EndFrame identically on every
// future connection, so the old treat-it-as-connection-death path redialed
// forever. The sender must latch the terminal error, stop reconnecting, and
// surface the condition in Stats.
func TestOversizedUpdateFailStopsLink(t *testing.T) {
	nodes := make([]*Node, 2)
	for i := range nodes {
		st, err := store.Open("lww", spec.MVRTypes(), store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		cfg := fastConfig(model.ReplicaID(i), 2, st)
		cfg.MaxFrame = 2048
		nd, err := NewNode(cfg)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = nd
	}
	t.Cleanup(func() {
		for _, nd := range nodes {
			nd.Close()
		}
	})
	for i, nd := range nodes {
		peers := map[model.ReplicaID]string{model.ReplicaID(1 - i): nodes[1-i].Addr()}
		if err := nd.Connect(peers); err != nil {
			t.Fatal(err)
		}
	}

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
	var linkErr error
	if err := nodes[0].inLoop(func() { linkErr = nodes[0].peers[model.ReplicaID(1)].failure() }); err != nil {
		t.Fatal(err)
	}
	if linkErr == nil {
		t.Fatal("failed link has no latched error")
	} else if !strings.Contains(linkErr.Error(), "undeliverable") {
		t.Fatalf("latched error %q does not name the undeliverable update", linkErr)
	}

	// Fail-stop means no more redialing: the reconnect counter must stop
	// growing once the link is latched.
	base := nodes[0].Stats().Reconnects
	time.Sleep(300 * time.Millisecond) // many DialBackoffMax periods
	if got := nodes[0].Stats().Reconnects; got != base {
		t.Fatalf("failed link kept reconnecting: %d -> %d", base, got)
	}
}

// TestKickResetsRetransmitBackoff is the regression for stale backoff: an
// idle link that backed off to RetransmitMax made a brand new update wait
// RetransmitMax for its first loss check, because <-p.kick left rt alone.
// Against a server that accepts frames but never acks, the gap between a
// fresh write and its first retransmission must track RetransmitMin, not
// the backed-off ceiling.
func TestKickResetsRetransmitBackoff(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	// Black-hole server: reads every frame (timestamping tUpdate arrivals)
	// and never replies, so nothing is ever acked and the sender's
	// retransmission backoff climbs.
	type arrival struct {
		seq  uint64
		when time.Time
	}
	arrivals := make(chan arrival, 256)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				for {
					b, err := wire.ReadFrame(c, wire.DefaultMaxFrame)
					if err != nil {
						return
					}
					r := wire.NewReader(b)
					if r.Uvarint() == tUpdate {
						u, err := decodeUpdate(r)
						if err != nil {
							return
						}
						arrivals <- arrival{seq: u.Seq, when: time.Now()}
					}
				}
			}(conn)
		}
	}()

	st, err := store.Open("lww", spec.MVRTypes(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastConfig(0, 2, st)
	cfg.RetransmitMin = 25 * time.Millisecond
	cfg.RetransmitMax = 800 * time.Millisecond
	nd, err := NewNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()
	if err := nd.Connect(map[model.ReplicaID]string{1: ln.Addr().String()}); err != nil {
		t.Fatal(err)
	}

	waitSeq := func(seq uint64) arrival {
		t.Helper()
		for {
			select {
			case a := <-arrivals:
				if a.seq == seq {
					return a
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("update seq %d never arrived", seq)
			}
		}
	}

	// First write, then let the unacked retransmission backoff climb to max.
	if _, err := nd.Do("x", model.Write("first")); err != nil {
		t.Fatal(err)
	}
	waitSeq(1)
	time.Sleep(4 * cfg.RetransmitMax) // several doublings: rt is at the ceiling now

	// Drain queued retransmissions of seq 1, then write fresh traffic.
	for {
		select {
		case <-arrivals:
			continue
		default:
		}
		break
	}
	if _, err := nd.Do("x", model.Write("second")); err != nil {
		t.Fatal(err)
	}
	first := waitSeq(2)

	// The new update's first retransmission must come on a freshly reset
	// timer. Pre-fix it waited the backed-off rt (≥ RetransmitMax); the
	// bound is generous (half the ceiling) to absorb scheduler noise.
	retrans := waitSeq(2)
	if gap := retrans.when.Sub(first.when); gap >= cfg.RetransmitMax/2 {
		t.Fatalf("first retransmission after fresh traffic took %v — backoff was not reset (min %v, max %v)",
			gap, cfg.RetransmitMin, cfg.RetransmitMax)
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

// refQueue is the peer queue as it was before it learnt that it is
// seq-contiguous: nextBatch scans from the head past everything sent, ack
// counts the acked prefix and copies the rest down. It is the reference the
// indexed queue must match batch for batch.
type refQueue struct {
	queue     []protoUpdate
	lastAcked uint64
	maxSent   uint64
}

func (q *refQueue) offerBacklog(us []protoUpdate) {
	q.queue = q.queue[:0]
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

// TestPeerQueueMatchesScanningReference drives the indexed queue and the
// scanning one through the same seeded schedule of what a link does —
// enqueue, drain in batches, cumulative acks (stale, current, and beyond
// anything sent), retransmission rewinds, reconnects, full-backlog offers —
// and compares every batch, every retransmit count and the queue itself,
// checking after each step the invariant the index arithmetic rests on:
// the unacked updates are seq-contiguous.
func TestPeerQueueMatchesScanningReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := &peerSender{kick: make(chan struct{}, 1), queues: make([]peerQueue, 1)}
		q, ref := &p.queues[0], &refQueue{}
		var backlog seglog.Log[protoUpdate] // the shard's updates[self]
		var scratch []protoUpdate
		sent := uint64(0) // the serve loop's cursor, shared: both must consume it alike
		for step := 0; step < 3000; step++ {
			switch r := rng.Intn(100); {
			case r < 45: // the shard broadcasts
				u := protoUpdate{Seq: uint64(backlog.Len()) + 1, Payload: make([]byte, rng.Intn(200))}
				backlog.Append(u)
				p.enqueue(0, u)
				ref.queue = append(ref.queue, u)
			case r < 75: // the sender drains one frame
				max, sizeCap := 1+rng.Intn(8), 100+rng.Intn(600)
				want, wantRe := ref.nextBatch(sent, max, sizeCap)
				var re int64
				scratch, re = p.nextBatch(0, sent, max, sizeCap, scratch)
				if re != wantRe || len(scratch) != len(want) {
					t.Fatalf("seed %d step %d: batch of %d (%d retransmits), reference %d (%d)", seed, step, len(scratch), re, len(want), wantRe)
				}
				for i := range want {
					if scratch[i].Seq != want[i].Seq {
						t.Fatalf("seed %d step %d: batch[%d] is seq %d, reference %d", seed, step, i, scratch[i].Seq, want[i].Seq)
					}
				}
				if len(want) > 0 {
					sent = want[len(want)-1].Seq
				}
			case r < 90: // an ack arrives: behind, at, or (a confused peer) beyond what was sent
				cum := uint64(rng.Int63n(int64(sent) + 3))
				p.ack(0, cum)
				ref.ack(cum)
			case r < 96: // retransmission timer, or a fresh connection: rewind
				sent = ref.lastAcked
			default: // Connect's full-backlog offer, taken in the shard's turn
				p.offerBacklog(0, &backlog)
				ref.offerBacklog(backlog.AppendTo(nil))
			}
			pending := q.pending()
			if q.lastAcked != ref.lastAcked || q.maxSent != ref.maxSent || len(pending) != len(ref.queue) {
				t.Fatalf("seed %d step %d: lastAcked %d maxSent %d len %d, reference %d %d %d",
					seed, step, q.lastAcked, q.maxSent, len(pending), ref.lastAcked, ref.maxSent, len(ref.queue))
			}
			for i, u := range pending {
				if u.Seq != ref.queue[i].Seq || u.Seq != pending[0].Seq+uint64(i) {
					t.Fatalf("seed %d step %d: queue[%d] is seq %d, reference %d, head %d", seed, step, i, u.Seq, ref.queue[i].Seq, pending[0].Seq)
				}
			}
			for _, dead := range q.queue[:q.head] {
				if dead.Payload != nil || dead.Seq != 0 {
					t.Fatalf("seed %d step %d: acked slot still holds seq %d", seed, step, dead.Seq)
				}
			}
			if q.head > cap(q.queue)/2 {
				t.Fatalf("seed %d step %d: dead prefix %d of a %d-slot array was not reclaimed", seed, step, q.head, cap(q.queue))
			}
		}
	}
}
