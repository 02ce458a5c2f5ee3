package cluster

import (
	"errors"
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

	// Black-hole server: answers the hello, then reads every frame
	// (timestamping update arrivals) and never acks one, so the sender's
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
					switch r.Uvarint() {
					case tHello:
						w := wire.NewWriter()
						appendHelloAck(w, []uint64{0})
						if _, err := wire.WriteFrame(c, w.Bytes(), 0); err != nil {
							return
						}
					case tBatch:
						_, us, err := decodeBatch(r, nil)
						if err != nil {
							return
						}
						for _, u := range us {
							arrivals <- arrival{seq: u.Seq, when: time.Now()}
						}
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

// TestRedialBacksOffWhenPeerHangsUp: a peer that accepts and hangs up —
// before any hello ack — is redialled on the exponential backoff schedule.
// The backoff used to be reset by every successful TCP dial, so such a peer
// was redialled in a hot loop (≈13 600 connections a second).
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
	cfg := fastConfig(0, 2, st)
	cfg.DialBackoffMin = 50 * time.Millisecond
	cfg.DialBackoffMax = time.Second
	nd, err := NewNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()
	if err := nd.Connect(map[model.ReplicaID]string{1: ln.Addr().String()}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(500 * time.Millisecond)
	// 50, 100, 200 ms (each plus up to half in jitter) fit four dials in
	// half a second; a dozen leaves room for a slow box, a hot loop none.
	if got := dials.Load(); got < 2 || got > 12 {
		t.Fatalf("%d dials in 500ms at a 50ms minimum backoff, want between 2 and 12", got)
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
	recv = func() (uint64, *wire.Reader) {
		typ, r, err := readTyped(conn, 0, 0, nil)
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

	// Acceptor side, hello: a hand-written version-5 frame.
	send, recv := rawDial(t, nd)
	send(func(w *wire.Writer) {
		w.Uvarint(tHello)
		w.Uvarint(0) // from
		w.Uvarint(5) // version
		w.Uvarint(1) // v5: codec, compression, shards
		w.Uvarint(1)
		w.Uvarint(1)
	})
	typ, r := recv()
	if typ != tHelloAck {
		t.Fatalf("v5 hello answered with frame type %d, want the node's hello ack", typ)
	}
	if a, err := decodeHelloAck(r); err != nil || a.Version != protoVersion {
		t.Fatalf("hello ack = (%+v, %v), want version %d", a, err, protoVersion)
	}
	if typ, _ := recv(); typ != 0 {
		t.Fatalf("refused hello's connection stayed open: got frame type %d", typ)
	}

	// Acceptor side, join: likewise, and the joiner is not admitted.
	send, recv = rawDial(t, nd)
	send(func(w *wire.Writer) {
		w.Uvarint(tJoin)
		w.Uvarint(0) // from
		w.Uvarint(0) // epoch
		w.String("127.0.0.1:1")
		w.Uvarint(5) // version
		w.Uvarint(1) // v5: codec, compression
		w.Uvarint(1)
	})
	typ, r = recv()
	if typ != tJoinAck {
		t.Fatalf("v5 join answered with frame type %d, want the node's join ack", typ)
	}
	if version, _, err := decodeJoinAck(r, 3); err != nil || version != protoVersion {
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
				typ, _, err := readTyped(c, 0, 0, nil)
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
// broadcasts and nothing else. A connection whose hello said r1 may not
// ship a batch of r2's — applied, it would land in r2's seq domain without
// r2 ever having sent it — and nobody may say hello as the acceptor itself
// or as a replica outside the population.
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
	send(func(w *wire.Writer) {
		appendBatch(w, 0, 1, []protoUpdate{{Origin: 1, Seq: 1, Lamport: 1, Payload: payload(1)}})
	})
	if typ, _ := recv(); typ != tAck {
		t.Fatalf("the dialer's own batch answered with frame type %d, want an ack", typ)
	}
	send(func(w *wire.Writer) {
		appendBatch(w, 0, 2, []protoUpdate{{Origin: 2, Seq: 1, Lamport: 2, Payload: payload(2)}})
	})
	if typ, _ := recv(); typ != 0 {
		t.Fatalf("a batch of r2's on r1's link answered with frame type %d, want a hang-up", typ)
	}
	if st := nd.Stats(); st.Receives != 1 {
		t.Fatalf("node recorded %d receives, want only the dialer's own update", st.Receives)
	}
}
