package fault

import (
	"errors"
	"math/rand"
	"net"
	"slices"
	"sync"
	"time"

	"repro/internal/gen"
	"repro/internal/model"
)

// ErrLinkCut is the write error surfaced on a cut link. The cluster's
// senders treat it like any dead connection: they tear the link down and
// redial with backoff, so a healed cut recovers through the ordinary
// reconnect path, which resends whatever the peer had not acked.
var ErrLinkCut = errors.New("fault: link cut")

// Netem is the shared in-process network emulator of one cluster run: the
// Links of the run, which conn interceptors consult on every frame.
// Directives mutate them; the data path only reads them. Its Listen and
// Dial make it the nodes' transport (cluster.Transport), so every
// connection between two nodes is shaped in both directions. It models only
// what can happen to a TCP connection: a cut kills it, and delay, jitter and
// a rate cap slow it. A connection never repeats, reorders or loses a frame
// and lives on, so KindLinkDup and KindLinkReorder are the simulator's
// alone: a repeated frame would also decode, against the connection's state,
// as frames the sender never wrote. A receiver still meets duplicates, from
// the reconnect that resends what a dead connection carried. Crash
// and restart directives are not Netem's business either — process
// lifecycle belongs to the supervisor applying the schedule.
type Netem struct {
	mu    sync.Mutex
	n     int
	links *Links
	// tick is the wall time of one schedule tick, as the last Apply gave it.
	tick time.Duration
	// dialed maps the local address of a connection Dial opened to its link
	// (dialer, acceptor), until the acceptor's end looks it up (linkOf).
	dialed map[string][2]int
}

// NewNetem creates an emulator for an n-node cluster with all links clean.
func NewNetem(n int) *Netem {
	return &Netem{n: n, links: NewLinks(n), dialed: make(map[string][2]int)}
}

// dialTimeout bounds one dial through the emulator.
const dialTimeout = 2 * time.Second

// Dial opens a connection from node from to node to at addr as the emulator
// sees it: a cut link fails at once without touching the network (the dial
// would succeed at TCP only to die on the first shaped write), and a live
// one is shaped in the direction from→to (WrapConn). The connection is
// recorded by its local address, which is the address the acceptor's end
// sees it come from, so Listen shapes the replies on to→from.
func (e *Netem) Dial(from, to model.ReplicaID, addr string) (net.Conn, error) {
	if e.Cut(int(from), int(to)) {
		return nil, ErrLinkCut
	}
	conn, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	e.dialed[conn.LocalAddr().String()] = [2]int{int(from), int(to)}
	e.mu.Unlock()
	return e.WrapConn(conn, int(from), int(to)), nil
}

// Listen listens on addr and puts each accepted connection under the
// emulator: one a node opened through Dial is shaped on the reverse link,
// acceptor→dialer, and any other — a client's — passes unshaped.
func (e *Netem) Listen(addr string) (net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return listener{ln, e}, nil
}

// linkOf returns, and forgets, the link of the dialed connection whose
// local address is addr.
func (e *Netem) linkOf(addr string) (link [2]int, ok bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	link, ok = e.dialed[addr]
	delete(e.dialed, addr)
	return link, ok
}

type listener struct {
	net.Listener
	em *Netem
}

func (l listener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &acceptedConn{Conn: conn, em: l.em}, nil
}

// acceptedConn is the accepting end of a connection. Which link it writes
// on is known once the dialer's Dial has recorded the connection, and it
// has by the time the acceptor writes, because the acceptor always reads a
// frame first. So the link is looked up at the first write or write
// deadline, and every write from then on goes through w: the connection
// shaped acceptor→dialer, or the plain one when no node dialed it.
type acceptedConn struct {
	net.Conn
	em   *Netem
	once sync.Once
	w    net.Conn
}

func (c *acceptedConn) writer() net.Conn {
	c.once.Do(func() {
		c.w = c.Conn
		if link, ok := c.em.linkOf(c.RemoteAddr().String()); ok {
			c.w = c.em.WrapConn(c.Conn, link[1], link[0])
		}
	})
	return c.w
}

func (c *acceptedConn) Write(b []byte) (int, error) { return c.writer().Write(b) }

func (c *acceptedConn) SetWriteDeadline(t time.Time) error { return c.writer().SetWriteDeadline(t) }

// Apply enforces one directive (Links.Apply); tick is the wall time of the
// ticks its delays are counted in. Crash/restart directives change no link
// (the supervisor owns them), and a reorder window shapes nothing here (no
// TCP connection reorders).
func (e *Netem) Apply(d Directive, tick time.Duration) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.tick = tick
	e.links.Apply(d)
}

// Cut reports whether the directed link from→to is currently blackholed
// (Dial consults this to avoid churning against a cut link).
func (e *Netem) Cut(from, to int) bool {
	lk, _ := e.link(from, to)
	return lk.Cut
}

// Heal clears every link fault (used by drivers to guarantee the
// post-schedule network is clean before asserting convergence).
func (e *Netem) Heal() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.links = NewLinks(e.n)
}

// link returns the state of from→to and the tick its delays count in.
func (e *Netem) link(from, to int) (Link, time.Duration) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.links.At(from, to), e.tick
}

// jitterStream decorrelates per-link jitter draws from every other seeded
// stream in the repository.
const jitterStream = -7003

// WrapConn interposes the emulator on the write half of conn, shaping the
// frames the local endpoint sends in the direction from→to. A node writes
// every frame in one Write (cluster's writeEnc), so each Write is shaped as
// one frame by the link's current faults: a cut fails the write synchronously
// (the sender's reconnect recovers after the link is restored), and
// delay/jitter/rate stamp the frame with a delivery deadline and a
// background writer ships it, in write order, when the deadline arrives —
// the caller's write path never sleeps. Dup and reorder windows change
// nothing.
// The first frame of a
// connection (the replication hello) always passes unshaped so a connection
// can at least identify itself. Reads pass through untouched — the reverse
// direction is shaped by the peer's own wrapper, which is how the two
// directions of one link carry asymmetric delay distributions.
func (e *Netem) WrapConn(conn net.Conn, from, to int) net.Conn {
	return &shapedConn{
		Conn: conn, em: e, from: from, to: to,
		rng: rand.New(rand.NewSource(gen.SplitSeed(int64(from)<<16|int64(to), jitterStream))),
	}
}

// timedFrame is one queued frame stamped with its delivery deadline.
type timedFrame struct {
	data []byte
	due  time.Time
}

type shapedConn struct {
	net.Conn
	em       *Netem
	from, to int

	mu      sync.Mutex
	wrote   bool         // the connection's first frame has shipped
	q       []timedFrame // deadline-stamped frames awaiting delivery
	lastDue time.Time    // FIFO floor: a frame never overtakes its predecessor
	running bool         // background writer is draining q
	werr    error        // sticky error: the underlying conn failed
	timeout time.Duration
	rng     *rand.Rand // jitter draws; guarded by mu
}

// Write stamps the frame b with a delivery deadline and hands a copy to
// the background writer: a cut fails, delay/jitter/rate pick the deadline. Only a cut link fails synchronously; everything else
// reports b fully written immediately — a later delivery failure is
// indistinguishable from a connection loss, which the cluster's
// reliability layer already absorbs (unacked updates are resent on a
// fresh connection).
func (c *shapedConn) Write(b []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.werr != nil {
		return 0, c.werr
	}
	lk, tick := c.em.link(c.from, c.to)
	first := !c.wrote
	c.wrote = true
	if lk.Cut {
		return 0, ErrLinkCut
	}
	frame := slices.Clone(b) // the caller reuses b once Write returns
	c.push(frame, lk, tick, first)
	return len(b), nil
}

// push stamps one frame with its delivery deadline and starts the writer
// if it is idle. The deadline is now + delay + jitter draw, floored at the
// previous frame's deadline (FIFO), plus the frame's serialization time
// under an open bandwidth cap — successive frames queue behind each other
// at rate bytes/sec, which is the cap's whole effect. Called with c.mu
// held.
func (c *shapedConn) push(frame []byte, lk Link, tick time.Duration, first bool) {
	due := time.Now()
	if !first {
		due = due.Add(time.Duration(lk.Delay) * tick)
		if jitter := int64(lk.Jitter) * int64(tick); jitter > 0 {
			due = due.Add(time.Duration(c.rng.Int63n(jitter + 1)))
		}
	}
	if due.Before(c.lastDue) {
		due = c.lastDue
	}
	if rate := int64(lk.RateKBps) * 1024; !first && rate > 0 {
		due = due.Add(time.Duration(int64(len(frame)) * int64(time.Second) / rate))
	}
	c.lastDue = due
	c.q = append(c.q, timedFrame{data: frame, due: due})
	if !c.running {
		c.running = true
		go c.drain()
	}
}

// drain is the background writer: it sleeps until the head frame's
// deadline, writes it, and exits once the queue empties (a later push
// restarts it) or the underlying conn fails. On failure it records the
// sticky error and closes the underlying conn, so the endpoint's reader
// observes the death and the ordinary teardown/reconnect path runs.
func (c *shapedConn) drain() {
	for {
		c.mu.Lock()
		if c.werr != nil || len(c.q) == 0 {
			c.running = false
			c.mu.Unlock()
			return
		}
		head := c.q[0]
		if wait := time.Until(head.due); wait > 0 {
			c.mu.Unlock()
			time.Sleep(wait)
			continue
		}
		c.q = c.q[1:]
		timeout := c.timeout
		c.mu.Unlock()

		if timeout > 0 {
			c.Conn.SetWriteDeadline(time.Now().Add(timeout))
		}
		if _, err := c.Conn.Write(head.data); err != nil {
			c.mu.Lock()
			c.werr = err
			c.q = nil
			c.running = false
			c.mu.Unlock()
			c.Conn.Close()
			return
		}
	}
}

// SetWriteDeadline records the caller's intended write timeout instead of
// arming the underlying conn: queued frames are written later than the
// caller's Write call, so the background writer re-derives a fresh
// deadline of the same duration at actual write time.
func (c *shapedConn) SetWriteDeadline(t time.Time) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t.IsZero() {
		c.timeout = 0
	} else {
		c.timeout = time.Until(t)
	}
	return nil
}
