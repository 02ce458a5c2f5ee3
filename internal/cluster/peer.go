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
	"repro/internal/wire"
)

// linkCursor is one shard's slice of a replication link: two positions in
// that shard's log of its own broadcasts (shard.updates[self]; seq k sits at
// index k-1). Shards have independent sequence counters, so a delivered count
// only means anything within its shard. What lies between lastAcked and the
// end of the log is what the peer may still be owed; the link keeps no copy
// of it. lastAcked is as fresh as the peer's last hello ack: the one that
// opened the connection, or the last answer to a question drained asked.
// Batches themselves are not acknowledged.
type linkCursor struct {
	lastAcked uint64 // the peer's delivered count, from its last hello ack
	maxSent   uint64 // highest seq ever written, on any connection (retransmit accounting)
}

// cutBatch is the chunking rule, stated once: how many updates from the
// head of run join a frame whose sections already hold used bytes. At most
// limit, and no more than fit sizeCap (callers pass MaxFrame-64) at a
// budget of payload plus 32 bytes of generous varint headroom each — a
// section's own header included. An update that does not fit what is left
// waits for the next frame; but the first update of an empty frame always
// travels, so an oversized single payload still goes, alone (and fails the
// frame limit at write time, exactly as it would unbatched).
func cutBatch(run []protoUpdate, limit, used, sizeCap int) int {
	size := used
	for i := range run {
		cost := len(run[i].Payload) + 32
		if (i > 0 || used > 0) && (i >= limit || size+cost > sizeCap) {
			return i
		}
		size += cost
	}
	return len(run)
}

// batchPace is the least time between two drain passes of a link that
// wrote a batch frame: a busy link sends its shards' logs once per pace, in
// one frame carrying everything every shard logged meanwhile, where it would
// otherwise write a frame per update. A pass that a kick starts after a
// longer silence drains at once, so an idle link adds no delay and a busy
// one adds at most batchPace to an update's replication lag.
const batchPace = 200 * time.Microsecond

// paceWait is the pacing rule, stated once: how long a pass that would start
// at now waits, when the link's last batch frame left at last (the zero
// time: none yet). It waits out the rest of batchPace, or not at all.
func paceWait(last, now time.Time) time.Duration {
	if since := now.Sub(last); since < batchPace {
		return batchPace - since
	}
	return 0
}

// peerSender owns this node's half of one replication link: the connection
// it dials to a single peer and, per shard, how far into the shard's own
// log that peer last said it had delivered. It provides the reliable half of
// eventual delivery (Definition 3): the log keeps every update, so whatever
// lies beyond the peer's delivered count is sent once per connection, and
// survives connection loss through a reconnect loop that resends from the
// peer's hello-ack watermark — the dial-side never gives up, so any network
// that heals eventually delivers. A connection is TCP: it delivers every
// frame in order or dies, so nothing is ever resent on the connection that
// carried it, and no batch is acknowledged. All shards multiplex over the
// one connection: a batch frame holds a section per shard, each naming it.
type peerSender struct {
	node *Node
	peer model.ReplicaID
	addr string

	mu      sync.Mutex
	cursors []linkCursor // one per shard; index = shard
	// batch is where nextBatch has the shard's log read a batch back out of
	// its records: each is encoded into the frame before the next shard's is
	// read, so one scratch serves every shard for the life of the link.
	batch   []protoUpdate
	conn    net.Conn // live connection, nil while dialing
	failErr error    // terminal error, set once before failed flips

	// failed latches a terminal sender condition: the next update can never
	// travel (an update over the frame limit fails EndFrame identically on
	// every future connection), or the peer announced a different protocol
	// version or shard count (no frame we send can ever be applied
	// correctly). The run loop fail-stops instead of reconnecting forever;
	// Node.Stats counts failed links so the condition is observable.
	failed atomic.Bool

	kick chan struct{} // cap 1: the log grew
	done chan struct{}
	// closeOnce guards done: a sender can be closed from both node
	// shutdown and a chaos supervisor tearing a link down; closing an
	// already-closed channel would panic.
	closeOnce sync.Once

	// rng drives redial jitter. It is per-peer and seeded from
	// (Config.Seed, node, peer) so -seed reproduces redial timing and peers
	// do not contend on the global math/rand lock. Only the run goroutine
	// touches it.
	rng *rand.Rand

	dials atomic.Int64 // beyond the first, each is a reconnect

	// ask is a posted question: drained found the peer's last delivered
	// count behind the log, and serve writes a hello behind the batches it
	// has written, which the peer answers with a fresh hello ack.
	ask atomic.Bool
	// unanswered counts the questions serve wrote whose answers the answer
	// reader has not processed yet. A new connection's opening ack zeroes
	// it: a question on a dead connection is never answered, and that ack
	// is fresher than any answer to it.
	unanswered atomic.Int64
	// sought is posted with ask and taken by the next quiescence wait
	// (awaitAnswers): it tells a link the sweep asked, whose answer may
	// already be in, from a sweep that asked no link at all.
	sought atomic.Bool
}

func newPeerSender(n *Node, peer model.ReplicaID, addr string) *peerSender {
	return &peerSender{
		node:    n,
		peer:    peer,
		addr:    addr,
		cursors: make([]linkCursor, n.cfg.Shards),
		kick:    make(chan struct{}, 1),
		done:    make(chan struct{}),
		rng:     rand.New(rand.NewSource(gen.SplitSeed(gen.SplitSeed(n.cfg.Seed, int(n.cfg.ID)), int(peer)))),
	}
}

// nudge tells the sender a shard's log grew. A shard's turn calls it and
// must never wait on a link: kick holds one pending nudge, and one is enough.
func (p *peerSender) nudge() {
	select {
	case p.kick <- struct{}{}:
	default:
	}
}

// drained reports whether the peer has said it delivered every update of
// every shard's own log — the per-link half of the quiescence condition
// (Definition 17). The peer says so only when asked: a shard whose last
// delivered count is behind its log posts the question (serve sends it
// behind every batch it has written) and reports false, so the first poll
// after traffic reads false and a later one reads the answer.
func (p *peerSender) drained() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	for si := range p.cursors {
		if p.cursors[si].lastAcked < p.node.shards[si].logLen(p.node.cfg.ID) {
			p.ask.Store(true)
			p.sought.Store(true)
			p.nudge()
			return false
		}
	}
	return true
}

// questioned reports whether a question of the link is posted, or written
// and not answered yet.
func (p *peerSender) questioned() bool {
	return p.ask.Load() || p.unanswered.Load() > 0
}

// errLostHistory fail-stops a node whose peer reports holding more of the
// node's own updates, in some shard, than the node's log has: the node was
// restarted without the history it had broadcast, and the updates it mints
// next would reuse (origin, seq) identities the cluster already holds for
// different updates.
var errLostHistory = errors.New("cluster: lost history: a peer holds more of this node's broadcasts than its log has, " +
	"so the node restarted without the history it broadcast; restart it on its data directory, or with -join")

// checkAck holds the delivered counts of a hello ack to what this node and
// the peer have said before, before any of them moves a cursor. A count
// above this node's own log is errLostHistory. A count below one the peer
// reported earlier means the peer lost updates it had acknowledged: the
// error stops the link, which would otherwise stream into the gap.
func (p *peerSender) checkAck(delivered []uint64) (lost, regressed error) {
	self := p.node.cfg.ID
	p.mu.Lock()
	defer p.mu.Unlock()
	for si, d := range delivered {
		if have := p.node.shards[si].logLen(self); d > have {
			return fmt.Errorf("%w (r%d reports %d of r%d's shard %d updates, the log has %d)", errLostHistory, p.peer, d, self, si, have), nil
		}
		if was := p.cursors[si].lastAcked; d < was {
			return nil, fmt.Errorf("cluster: r%d→r%d shard %d: the peer reports %d updates delivered, below the %d it reported before: it lost updates it had acknowledged",
				self, p.peer, si, d, was)
		}
	}
	return nil, nil
}

// ack raises one shard's cursor to a delivered count the peer reported.
func (p *peerSender) ack(shard int, cum uint64) {
	p.mu.Lock()
	p.cursors[shard].lastAcked = max(p.cursors[shard].lastAcked, cum)
	p.mu.Unlock()
}

// nextBatch returns the next section's worth of one shard's own updates
// after seq sent — or after the peer's delivered count, when that is
// further — cut by cutBatch for a frame whose sections already hold used
// bytes, plus how many of them are retransmissions (already written on an
// earlier connection, which died before the peer reported them), and
// whether the batch was cut short of the shard's backlog — by cutBatch, or
// by the BatchMax the log is read at: the backlog did not fit the frame.
// The batch is the sender's scratch (its payloads alias the shard's
// records) and is good until the next call; it may also end early at a
// segment boundary of the log, and the next call picks up from there.
func (p *peerSender) nextBatch(shard int, sent uint64, limit, used, sizeCap int) (us []protoUpdate, retransmits int64, cut bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	c := &p.cursors[shard]
	sent = max(sent, c.lastAcked)
	var more bool
	p.batch, more = p.node.shards[shard].logRun(p.node.cfg.ID, sent, p.batch)
	us = p.batch[:cutBatch(p.batch, limit, used, sizeCap)]
	if len(us) == 0 {
		return nil, 0, false
	}
	last := sent + uint64(len(us)) // the batch is seqs sent+1 … last
	if c.maxSent > sent {
		retransmits = int64(min(c.maxSent, last) - sent)
	}
	c.maxSent = max(c.maxSent, last)
	return us, retransmits, more || len(us) < len(p.batch)
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
	backoff := dialBackoffMin
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
			backoff = dialBackoffMin
			continue
		}
		if !p.sleep(backoff) {
			return
		}
		backoff = min(2*backoff, dialBackoffMax)
	}
}

// dialAndServe makes one connection attempt and serves it to its end,
// reporting whether the peer's hello ack arrived on it.
func (p *peerSender) dialAndServe() bool {
	conn, err := p.node.cfg.Transport.Dial(p.node.cfg.ID, p.peer, p.addr)
	if err != nil {
		return false
	}
	if p.dials.Add(1) > 1 {
		p.node.count[cReconnects].Add(1)
	}
	return p.serve(conn)
}

// serve drives one live connection: announce ourselves, wait for the peer's
// hello ack, then stream each update beyond the peer's delivered count once,
// in seq order per shard, and after the batches a hello when drained posted
// the question. Each drain pass is started by a kick and paced: it waits out
// paceWait since the link's last batch frame, and writes one frame holding
// every shard's updates — more only when they do not fit one — coded
// through the connection's LZ stream. A fresh connection starts each shard
// at its lastAcked, and its runs and its stream from empty, so nothing sent
// only on a dead connection is lost or referred to;
// the live one never resends, because TCP delivers what it accepted in order
// or the connection dies. Nothing is sent until the ack confirms the peer
// speaks our protocol version and shard count; a mismatch latches the link
// failed. It reports whether the hello ack arrived.
//
// There is no answer deadline. A half-open connection — the peer gone without
// a FIN — is found by TCP: keepalive (on by default for Go's dials and
// accepts) probes an idle one, the kernel's retransmission timeout fails
// one with unacked bytes in flight (minutes, at the kernel's defaults), and
// writeTimeout bounds a write the peer stopped reading. Each of those ends
// the connection, and the reconnect resends what the peer's hello ack on the
// new connection does not count. A slow peer that answers late is not
// half-open, and is not written to twice.
func (p *peerSender) serve(conn net.Conn) bool {
	cfg := p.node.cfg
	p.setConn(conn)
	defer func() {
		p.setConn(nil)
		conn.Close()
	}()

	// One pooled writer builds every frame this connection sends: header and
	// payload land contiguously (BeginFrame/EndFrame), so each frame is one
	// conn.Write and zero per-frame allocations. Beside it, the connection's
	// compressor, for the batches large enough to want one.
	enc := wire.GetWriter()
	defer wire.PutWriter(enc)
	z := wire.GetDeflater()
	defer wire.PutDeflater(z)

	// The hello opens the connection and, repeated later, asks the peer
	// what it delivered.
	hello := func() error {
		enc.Reset()
		enc.BeginFrame()
		appendHello(enc, cfg.ID, cfg.Shards)
		_, err := p.node.writeEnc(conn, enc, cfg.MaxFrame, nil)
		return err
	}
	if hello() != nil {
		return false
	}

	// Answer reader: the hello ack, then the answers to later questions,
	// arrive on the same connection, in one layout.
	acked := make(chan struct{})
	connDead := make(chan struct{})
	go func() {
		defer close(connDead)
		fr := wire.NewFrameReader(conn) // the connection's only reader; answers decode to integers
		var r wire.Reader
		for i := 0; ; i++ {
			b, err := recvFrame(fr, cfg.MaxFrame)
			r.Reset(b)
			if err != nil || r.Uvarint() != tHelloAck {
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
			// The peer's delivered counts move the cursors, once checkAck has
			// found them possible. The first answer's are pre-acks: a new
			// link's cursors start at zero — the whole log is owed — and these
			// move them to what the peer is missing before the first drain
			// ships anything. Every later one answers a question and is a
			// cumulative ack of every shard; it can only raise a cursor.
			lost, regressed := p.checkAck(a.Delivered)
			if lost != nil {
				p.node.fail(lost)
				return
			}
			if regressed != nil {
				p.fail(regressed)
				return
			}
			for si, d := range a.Delivered {
				p.ack(si, d)
			}
			if i > 0 {
				p.unanswered.Add(-1)
			} else {
				p.unanswered.Store(0)
				close(acked)
			}
			p.node.answered()
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

	// runs[shard] is what this connection has carried of the shard — the
	// seq and stamp of the last update written on it — and each section is
	// encoded against it, as the peer decodes against its own copy. nextBatch
	// never starts below the shard's lastAcked, so seq zero means "from
	// there". lz is the connection's stream under the batch frames, which
	// the peer decodes with its own: empty, like runs, on every new
	// connection, and gone with it. A frame's sections are built in raw and
	// then coded through lz into enc.
	runs := make([]runState, len(p.cursors))
	var lz wire.StreamEncoder
	raw := wire.GetWriter()
	defer wire.PutWriter(raw)
	// lastFrame is when the last batch frame left (zero: none yet on this
	// connection); pace is made by the first pass that must wait, and is
	// reset only once received from, so its channel never holds a stale tick.
	var lastFrame time.Time
	var pace *time.Timer
	defer func() {
		if pace != nil {
			pace.Stop()
		}
	}()
	for {
		// A pass writes one frame with a section per shard that has updates
		// to send, and another only while some shard's backlog did not fit.
		for {
			raw.Reset()
			var (
				updates, payload int
				firstShard       int // of the frame's first update
				firstSeq         uint64
				cut              bool
			)
			for si := range runs {
				us, re, c := p.nextBatch(si, runs[si].seq, BatchMax, raw.Len(), cfg.MaxFrame-64)
				if len(us) == 0 {
					continue
				}
				if updates == 0 {
					firstShard, firstSeq = si, us[0].Seq
				}
				p.node.count[cRetransmits].Add(re)
				// The batch aliases nextBatch's scratch: it is encoded before
				// the next shard's is read.
				raw.Uvarint(uint64(si))
				appendRun(raw, &runs[si], us)
				updates += len(us)
				for _, u := range us {
					payload += len(u.Payload)
				}
				cut = cut || c
			}
			if updates == 0 {
				break
			}
			// Only a frame that leaves some shard's backlog behind — a
			// catch-up after a reconnect, a peer that fell behind — is offered
			// to the compressor. A live frame, which empties every backlog,
			// leaves raw: the latency-sensitive path never touches the
			// compressor.
			bulk := z
			if !cut {
				bulk = nil
			}
			// The frame limit holds for the frame as encoded, type and
			// sections, as the peer's decoder holds rawLen to it, and for the
			// frame as coded: rawLen and the stream's one unpaid literal
			// header add a few bytes (at most 7 under the default limit),
			// which cutBatch's 64 bytes of headroom cover, so only a lone
			// update can fail either.
			rawFrame := 1 + raw.Len()
			var (
				wrote int
				err   error
			)
			if rawFrame > cfg.MaxFrame {
				err = &wire.FrameSizeError{Size: rawFrame, Max: cfg.MaxFrame}
			} else {
				enc.Reset()
				enc.BeginFrame()
				appendBatch(enc, &lz, raw.Bytes())
				wrote, err = p.node.writeEnc(conn, enc, cfg.MaxFrame, bulk)
			}
			if err != nil {
				var fse *wire.FrameSizeError
				if errors.As(err, &fse) && updates == 1 {
					// cutBatch sends an update that cannot share a frame alone,
					// so an oversize on a singleton means this exact
					// update can never travel: retrying or reconnecting would
					// hot-loop forever on the same frame. Latch and fail-stop
					// the link.
					p.fail(fmt.Errorf("cluster: r%d→r%d shard %d update seq %d undeliverable: %w",
						cfg.ID, p.peer, firstShard, firstSeq, err))
				}
				// Close before waiting: a shaped write can fail (link
				// cut) while the TCP stream is healthy, and the answer
				// reader only exits once the connection is gone.
				conn.Close()
				<-connDead
				return true
			}
			p.node.count[cBatchFrames].Add(1)
			p.node.count[cBatchBytes].Add(int64(wrote))
			p.node.count[cBatchRawBytes].Add(int64(rawFrame + wire.FrameHeaderLen(rawFrame)))
			p.node.count[cBatchPayloadBytes].Add(int64(payload))
			lastFrame = time.Now()
		}
		// The question travels behind every batch written so far, and the
		// peer reads in order, so its answer counts them all. It is counted
		// unanswered before it is taken, so that a sweep waiting for it
		// (awaitAnswers) never sees the link unquestioned in between, and
		// taken by a swap, so that a question posted meanwhile is not lost.
		if p.ask.Load() {
			p.unanswered.Add(1)
			if !p.ask.Swap(false) {
				p.unanswered.Add(-1)
			} else if hello() != nil {
				conn.Close()
				<-connDead
				return true
			}
		}
		select {
		case <-p.done:
			conn.Close()
			<-connDead
			return true
		case <-connDead:
			return true
		case <-p.kick:
		}
		if d := paceWait(lastFrame, time.Now()); d > 0 {
			if pace == nil {
				pace = time.NewTimer(d)
			} else {
				pace.Reset(d)
			}
			select {
			case <-p.done:
				conn.Close()
				<-connDead
				return true
			case <-connDead:
				return true
			case <-pace.C:
			}
		}
	}
}
