package cluster

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/seglog"
	"repro/internal/wire"
)

// peerQueue is one shard's slice of a replication link: the unacked
// updates of that shard's seq domain plus the ack/retransmit watermarks
// that govern them. Shards have independent sequence counters, so the
// watermarks cannot be shared — a cumulative ack only means anything
// within its shard.
type peerQueue struct {
	// queue[head:] holds the unacked updates in seq order, and they are
	// seq-contiguous — queue[head+i].Seq == queue[head].Seq + i — because a
	// shard mints consecutive seqs and enqueue, offerBacklog and ack each
	// keep a run a run. So an update is found by index, not by scanning.
	// queue[:head] are acked slots, already zeroed (their payloads are
	// collectable) and reclaimed by ack once they outnumber the live ones.
	queue     []protoUpdate
	head      int
	lastAcked uint64 // peer's cumulative ack
	maxSent   uint64 // highest seq ever written (retransmit accounting)
}

// pending returns the unacked updates.
func (q *peerQueue) pending() []protoUpdate { return q.queue[q.head:] }

// indexAfter returns the index in pending() of the first update with a seq
// beyond seq (len(pending()) when there is none).
func (q *peerQueue) indexAfter(seq uint64) int {
	pending := q.pending()
	if len(pending) == 0 || seq < pending[0].Seq {
		return 0
	}
	if d := seq - pending[0].Seq + 1; d < uint64(len(pending)) {
		return int(d)
	}
	return len(pending)
}

// peerSender owns this node's half of one replication link: the connection
// it dials to a single peer and, per shard, the queue of updates that peer
// has not yet acknowledged. It provides the reliable half of eventual
// delivery (Definition 3): updates stay queued until cumulatively acked,
// are retransmitted with exponential backoff while unacked, and survive
// connection loss through a reconnect loop — the dial-side never gives up,
// so any network that heals eventually delivers. All shards multiplex over
// the one connection; every frame names its shard.
type peerSender struct {
	node *Node
	peer model.ReplicaID
	addr string

	mu      sync.Mutex
	queues  []peerQueue // one per shard; index = shard
	conn    net.Conn    // live connection, nil while dialing
	failErr error       // terminal error, set once before failed flips

	// failed latches a terminal sender condition: the queue head can never
	// travel (an update over the frame limit fails EndFrame identically on
	// every future connection), or the peer announced a different protocol
	// version or shard count (no frame we send can ever be applied
	// correctly). The run loop fail-stops instead of reconnecting forever;
	// Node.Stats counts failed links so the condition is observable.
	failed atomic.Bool

	kick chan struct{} // cap 1: new updates enqueued
	ackd chan struct{} // cap 1: ack progress observed
	done chan struct{}
	// closeOnce guards done: a sender can be closed from both node
	// shutdown and a chaos supervisor tearing a link down; closing an
	// already-closed channel would panic.
	closeOnce sync.Once

	// rng drives redial/retransmit jitter. It is per-peer and seeded from
	// (Config.Seed, node, peer) so -seed reproduces retransmission timing
	// and peers do not contend on the global math/rand lock. Only the run
	// goroutine touches it.
	rng *rand.Rand

	dials       atomic.Int64
	reconnects  atomic.Int64
	retransmits atomic.Int64
}

func newPeerSender(n *Node, peer model.ReplicaID, addr string) *peerSender {
	return &peerSender{
		node:   n,
		peer:   peer,
		addr:   addr,
		queues: make([]peerQueue, n.cfg.Shards),
		kick:   make(chan struct{}, 1),
		ackd:   make(chan struct{}, 1),
		done:   make(chan struct{}),
		rng:    rand.New(rand.NewSource(gen.SplitSeed(gen.SplitSeed(n.cfg.Seed, int(n.cfg.ID)), int(peer)))),
	}
}

// enqueue appends a freshly minted update to one shard's unacked queue and
// nudges the writer. Called from that shard's event loop.
func (p *peerSender) enqueue(shard int, u protoUpdate) {
	p.mu.Lock()
	p.queues[shard].queue = append(p.queues[shard].queue, u)
	p.mu.Unlock()
	select {
	case p.kick <- struct{}{}:
	default:
	}
}

// offerBacklog replaces one shard's queue wholesale with the shard's full
// self-backlog: Connect's full-backlog offer. Updates the peer already
// acknowledged are dropped on the way in. Called from the shard's event
// loop with the backlog read in the same turn.
func (p *peerSender) offerBacklog(shard int, backlog *seglog.Log[protoUpdate]) {
	p.mu.Lock()
	q := &p.queues[shard]
	q.queue, q.head = q.queue[:0], 0
	// backlog.At(i).Seq == i+1, so the unacked suffix starts at lastAcked.
	n := backlog.Len()
	for i := int(min(q.lastAcked, uint64(n))); i < n; {
		c := backlog.Chunk(i, n)
		q.queue = append(q.queue, c...)
		i += len(c)
	}
	p.mu.Unlock()
	select {
	case p.kick <- struct{}{}:
	default:
	}
}

// drained reports whether every enqueued update of every shard has been
// acked — the per-link half of the quiescence condition (Definition 17).
func (p *peerSender) drained() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := range p.queues {
		if len(p.queues[i].pending()) != 0 {
			return false
		}
	}
	return true
}

// ack applies a cumulative acknowledgement to one shard's queue, pruning
// it. The acked slots are zeroed at once — a dead entry left in the backing
// array would pin its payload for as long as the link lives — and the head
// offset steps past them; the live tail is copied down only once the dead
// prefix passes half the array, so draining a backlog of Q updates costs
// O(Q) entry moves, not one copy of the remaining queue per ack.
func (p *peerSender) ack(shard int, cum uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	q := &p.queues[shard]
	if cum > q.lastAcked {
		q.lastAcked = cum
	}
	n := q.indexAfter(q.lastAcked)
	clear(q.queue[q.head : q.head+n])
	q.head += n
	switch {
	case q.head == len(q.queue):
		q.queue, q.head = q.queue[:0], 0
	case q.head > cap(q.queue)/2:
		m := copy(q.queue, q.queue[q.head:])
		clear(q.queue[m:])
		q.queue, q.head = q.queue[:m], 0
	}
}

// nextBatch appends to us[:0] up to max queued updates of one shard beyond
// sent — the next frame's worth of work — and returns them plus how many
// are retransmissions (already written on some connection). us is the
// sender's own scratch, reused frame after frame. sizeCap bounds the summed
// payload bytes so the batch fits the frame limit; the first update is
// always taken, so an oversized single payload still travels (and fails the
// frame limit at write time, exactly as it did unbatched).
func (p *peerSender) nextBatch(shard int, sent uint64, max, sizeCap int, us []protoUpdate) (_ []protoUpdate, retransmits int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	q := &p.queues[shard]
	us = us[:0]
	size := 0
	for _, u := range q.pending()[q.indexAfter(sent):] {
		// Per-update budget: payload plus generous varint headroom.
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

// breakConn closes the live connection (if any) without stopping the
// sender — the reconnect loop redials. Tests use this to inject connection
// resets.
func (p *peerSender) breakConn() {
	p.mu.Lock()
	c := p.conn
	p.mu.Unlock()
	if c != nil {
		c.Close()
	}
}

func (p *peerSender) setConn(c net.Conn) {
	p.mu.Lock()
	p.conn = c
	p.mu.Unlock()
}

func (p *peerSender) close() {
	p.closeOnce.Do(func() { close(p.done) })
	p.breakConn()
}

// fail latches err as the sender's terminal condition.
func (p *peerSender) fail(err error) {
	p.mu.Lock()
	if p.failErr == nil {
		p.failErr = err
	}
	p.mu.Unlock()
	p.failed.Store(true)
}

// failure returns the latched terminal error, or nil.
func (p *peerSender) failure() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.failErr
}

// jitter stretches d by up to 50% (desynchronizing redial storms), drawn
// from the sender's seeded per-peer stream.
func (p *peerSender) jitter(d time.Duration) time.Duration {
	return d + time.Duration(p.rng.Int63n(int64(d)/2+1))
}

// sleep waits d plus jitter, or returns false if the sender is closing.
func (p *peerSender) sleep(d time.Duration) bool {
	t := time.NewTimer(p.jitter(d))
	defer t.Stop()
	select {
	case <-p.done:
		return false
	case <-t.C:
		return true
	}
}

// run is the sender's goroutine: dial, serve the connection until it dies,
// repeat until closed or failed. A connection the peer answered with its
// hello ack resets the backoff and is redialled at once when it dies;
// anything short of that — a refused dial, a cut link, a peer that accepts
// and hangs up — waits out the backoff and doubles it.
func (p *peerSender) run() {
	defer p.node.wg.Done()
	cfg := p.node.cfg
	backoff := cfg.DialBackoffMin
	for {
		select {
		case <-p.done:
			return
		default:
		}
		acked := p.dialAndServe()
		if p.failed.Load() {
			// Terminal sender error: reconnecting cannot help, the same
			// frame fails the same way on every connection.
			return
		}
		if acked {
			backoff = cfg.DialBackoffMin
			continue
		}
		if !p.sleep(backoff) {
			return
		}
		backoff = min(2*backoff, cfg.DialBackoffMax)
	}
}

// dialAndServe makes one connection attempt and serves it to its end,
// reporting whether the peer's hello ack arrived on it.
func (p *peerSender) dialAndServe() bool {
	cfg := p.node.cfg
	// A cut link fails fast without touching the network: dialing would
	// only succeed at TCP and then die on the first shaped write.
	if cfg.Faults != nil && cfg.Faults.Cut(int(cfg.ID), int(p.peer)) {
		return false
	}
	conn, err := net.DialTimeout("tcp", p.addr, cfg.DialTimeout)
	if err != nil {
		return false
	}
	if cfg.Faults != nil {
		conn = cfg.Faults.WrapConn(conn, int(cfg.ID), int(p.peer))
	}
	if p.dials.Add(1) > 1 {
		p.reconnects.Add(1)
		cfg.Observer.AddReconnects(1)
	}
	return p.serve(conn)
}

// serve drives one live connection: announce ourselves, wait for the peer's
// hello ack, stream unacked updates in seq order (per shard), and
// retransmit from the peer's cumulative acks when the retransmission timer
// fires without progress. A fresh connection always rewinds each shard to
// its lastAcked, so nothing sent only on a dead connection is lost. Nothing
// is sent until the ack confirms the peer speaks our protocol version and
// shard count; a mismatch latches the link failed. It reports whether the
// hello ack arrived.
func (p *peerSender) serve(conn net.Conn) bool {
	cfg := p.node.cfg
	p.setConn(conn)
	defer func() {
		p.setConn(nil)
		conn.Close()
	}()

	// One pooled writer builds every frame this connection sends: header and
	// payload land contiguously (BeginFrame/EndFrame), so each frame is one
	// conn.Write and zero per-frame allocations.
	enc := wire.GetWriter()
	defer wire.PutWriter(enc)

	enc.Reset()
	enc.BeginFrame()
	appendHello(enc, cfg.ID, cfg.Shards)
	if p.node.writeEnc(conn, enc, cfg.MaxFrame, false) != nil {
		return false
	}

	// Ack reader: the hello ack, then cumulative acks, arrive on the same
	// connection.
	acked := make(chan struct{})
	connDead := make(chan struct{})
	go func() {
		defer close(connDead)
		var buf []byte // this reader's receive buffer; acks decode to integers
		var r wire.Reader
		next := func(want uint64) bool {
			b, err := recvFrame(conn, cfg.MaxFrame, &buf)
			r.Reset(b)
			return err == nil && r.Uvarint() == want
		}
		if !next(tHelloAck) {
			return
		}
		a, err := decodeHelloAck(&r)
		if err != nil {
			return
		}
		if a.Version != protoVersion || len(a.Delivered) != cfg.Shards {
			// No frame this sender emits can ever be applied correctly, on
			// this connection or any future one.
			p.fail(fmt.Errorf("cluster: r%d→r%d refused: local protocol version %d with %d shards, peer version %d with %d",
				cfg.ID, p.peer, protoVersion, cfg.Shards, a.Version, len(a.Delivered)))
			return
		}
		// The peer's delivered watermarks are pre-acks: they prune the
		// full-backlog offer down to what the peer is missing before the
		// first drain ships anything.
		for si, d := range a.Delivered {
			p.ack(si, d)
		}
		close(acked)
		for next(tAck) {
			shard, cum, err := decodeAck(&r)
			if err != nil || shard >= uint64(len(p.queues)) {
				return
			}
			p.ack(int(shard), cum)
			select {
			case p.ackd <- struct{}{}:
			default:
			}
		}
	}()

	select {
	case <-acked:
	case <-connDead:
		return false
	case <-p.done:
		conn.Close()
		<-connDead
		return false
	}

	p.mu.Lock()
	sent := make([]uint64, len(p.queues))
	for i := range p.queues {
		sent[i] = p.queues[i].lastAcked
	}
	p.mu.Unlock()

	rt := cfg.RetransmitMin
	timer := time.NewTimer(rt)
	defer timer.Stop()
	var us []protoUpdate // nextBatch's scratch
	for {
		for si := range sent {
			for {
				// Headroom for the batch header and per-update varints;
				// payload budgeting is in nextBatch.
				var re int64
				us, re = p.nextBatch(si, sent[si], batchMax, cfg.MaxFrame-64, us)
				if len(us) == 0 {
					break
				}
				if re > 0 {
					p.retransmits.Add(re)
					cfg.Observer.AddRetransmits(re)
				}
				enc.Reset()
				enc.BeginFrame()
				appendBatch(enc, si, us[0].Origin, us)
				// Only multi-update frames clear the compression floor in
				// practice; single updates stay raw so the latency-sensitive
				// path never touches the compressor.
				if err := p.node.writeEnc(conn, enc, cfg.MaxFrame, len(us) > 1); err != nil {
					var fse *wire.FrameSizeError
					if errors.As(err, &fse) && len(us) == 1 {
						// nextBatch always takes the first update alone when
						// it cannot share a frame, so an EndFrame oversize on
						// a singleton means this exact update can never
						// travel: retrying or reconnecting would hot-loop
						// forever on the same frame. Latch and fail-stop the
						// link.
						p.fail(fmt.Errorf("cluster: r%d→r%d shard %d update seq %d undeliverable: %w",
							cfg.ID, p.peer, si, us[0].Seq, err))
					}
					// Close before waiting: a shaped write can fail (link
					// cut) while the TCP stream is healthy, and the ack
					// reader only exits once the connection is gone.
					conn.Close()
					<-connDead
					return true
				}
				sent[si] = us[len(us)-1].Seq
			}
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(rt)
		select {
		case <-p.done:
			conn.Close()
			<-connDead
			return true
		case <-connDead:
			return true
		case <-p.kick:
			// Fresh traffic: reset the retransmission backoff. An idle
			// link that backed off to RetransmitMax must not make a brand
			// new update wait RetransmitMax for its first loss check.
			rt = cfg.RetransmitMin
		case <-p.ackd:
			// Progress: prune happened in ack(); reset backoff.
			rt = cfg.RetransmitMin
		case <-timer.C:
			p.mu.Lock()
			outstanding := false
			for si := range p.queues {
				q := &p.queues[si]
				if len(q.pending()) > 0 && sent[si] > q.lastAcked {
					sent[si] = q.lastAcked // rewind: rewrite everything unacked
					outstanding = true
				}
			}
			p.mu.Unlock()
			if outstanding {
				if rt *= 2; rt > cfg.RetransmitMax {
					rt = cfg.RetransmitMax
				}
			}
		}
	}
}
