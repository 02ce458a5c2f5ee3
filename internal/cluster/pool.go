package cluster

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/model"
)

// ErrPoolClosed is returned by pool operations after Close.
var ErrPoolClosed = errors.New("cluster: pool closed")

// PoolOptions configures a client connection pool.
type PoolOptions struct {
	// Size is the number of pooled connections (default 4). Up to Size
	// operations run concurrently; further callers queue for a slot.
	Size int
	// DialTimeout bounds each (re)dial (Dial's default if zero).
	DialTimeout time.Duration
	// OpTimeout is applied to every pooled client (SetOpTimeout); zero
	// leaves operations unbounded.
	OpTimeout time.Duration
}

// Pool multiplexes client operations over a fixed set of connections to one
// node. A Client serializes concurrent callers on a single connection (the
// protocol is strict request/response), so a multi-worker load generator
// pays head-of-line blocking per simulated client; a Pool gives concurrent
// callers up to Size parallel streams while bounding sockets.
//
// Connections are checked out per operation and dialed lazily: a slot holds
// nil until first use, and any operation error discards the connection (a
// failed round trip may leave the request/response stream desynced, so the
// connection cannot be trusted) — the slot then redials on next checkout.
// That is the health-check: a pool wedged by a node restart heals itself
// without any background goroutine.
type Pool struct {
	addr string
	opts PoolOptions

	mu     sync.Mutex
	closed bool

	// free holds the pool's slots: a *Client ready for checkout, or nil
	// for a slot that must (re)dial. Buffered to Size; every checkout
	// returns its slot in release, so the channel never blocks on send.
	free chan *Client
	// done unblocks checkouts waiting on free when Close runs; closing a
	// channel reaches waiters a plain flag cannot.
	done chan struct{}
}

// NewPool creates a pool of connections to addr. Dialing is lazy: creating
// a pool never touches the network, so a pool to a down node costs nothing
// until used.
func NewPool(addr string, opts PoolOptions) (*Pool, error) {
	if opts.Size == 0 {
		opts.Size = 4
	}
	if opts.Size < 1 {
		return nil, fmt.Errorf("cluster: pool size %d, want >= 1", opts.Size)
	}
	p := &Pool{
		addr: addr,
		opts: opts,
		free: make(chan *Client, opts.Size),
		done: make(chan struct{}),
	}
	for i := 0; i < opts.Size; i++ {
		p.free <- nil
	}
	return p, nil
}

// get checks out one connection, dialing if the slot is empty.
func (p *Pool) get() (*Client, error) {
	p.mu.Lock()
	closed := p.closed
	p.mu.Unlock()
	if closed {
		return nil, ErrPoolClosed
	}
	select {
	case c := <-p.free:
		if c != nil {
			return c, nil
		}
		c, err := Dial(p.addr, p.opts.DialTimeout)
		if err != nil {
			p.free <- nil // return the empty slot before failing
			return nil, err
		}
		c.SetOpTimeout(p.opts.OpTimeout)
		return c, nil
	case <-p.done:
		return nil, ErrPoolClosed
	}
}

// release returns a checked-out connection. An operation error discards it
// — the stream may be desynced — leaving an empty slot to redial later.
//
// The closed check and the slot return must sit in one critical section:
// checking under the lock but sending after releasing it left a window
// where Close could set the flag and drain free between the two, and the
// late `p.free <- c` then parked a live connection in a channel nobody
// would ever drain again — a leaked socket per racing checkout. Holding
// p.mu across the send is safe because free is buffered to Size and every
// checked-out connection owns exactly one slot: the send can never block.
func (p *Pool) release(c *Client, err error) {
	if err != nil {
		c.Close()
		c = nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		if c != nil {
			c.Close()
		}
		return
	}
	if testPoolReleaseGap != nil {
		testPoolReleaseGap()
	}
	p.free <- c
}

// testPoolReleaseGap, when set by a test, runs between release's closed
// check and its slot send. Both now sit under p.mu, so a concurrent Close
// cannot interleave there no matter how long the hook stalls — which is
// exactly what the regression test for the old check/unlock/send sequence
// proves by stalling it.
var testPoolReleaseGap func()

// Do performs one operation through a pooled connection.
func (p *Pool) Do(obj model.ObjectID, op model.Operation) (model.Response, error) {
	c, err := p.get()
	if err != nil {
		return model.Response{}, err
	}
	resp, err := c.Do(obj, op)
	p.release(c, err)
	return resp, err
}

// Stats fetches the node's counter snapshot through a pooled connection.
func (p *Pool) Stats() (Stats, error) {
	c, err := p.get()
	if err != nil {
		return Stats{}, err
	}
	s, err := c.Stats()
	p.release(c, err)
	return s, err
}

// History downloads the node's recorded history through a pooled connection.
func (p *Pool) History() (History, error) {
	c, err := p.get()
	if err != nil {
		return History{}, err
	}
	h, err := c.History()
	p.release(c, err)
	return h, err
}

// Close closes the pool and every idle connection. In-flight operations
// finish; their release then closes the straggler connections.
func (p *Pool) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	p.mu.Unlock()
	close(p.done)
	for {
		select {
		case c := <-p.free:
			if c != nil {
				c.Close()
			}
		default:
			return nil
		}
	}
}

// Pool implements the same operation surface as Client.
var _ Doer = (*Pool)(nil)
