package cluster

import (
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/model"
	"repro/internal/wire"
)

// Client is a synchronous wire client for one node: operations, stats, and
// history downloads over a single connection. Safe for concurrent use (the
// protocol is strict request/response, so calls serialize on a mutex —
// loadgen opens one Client per simulated client).
//
// A round trip that fails leaves the stream at an unknown point — a reply
// cut off mid-payload, or one still to come that the next call would take
// for its own — so the first failure closes the connection, and every later
// call returns an error wrapping it. Dial again to go on.
type Client struct {
	mu        sync.Mutex
	conn      net.Conn
	nextReq   uint64 // the last request's id, counted mod reqIDs
	opTimeout time.Duration
	err       error // the failure that closed conn, or nil
	// req holds the request being sent, built behind its frame header so it
	// leaves in one conn.Write (the shape of the node's writeEnc), and is
	// reused for the next. fr reads every reply into its storage, one after
	// another (the decoders copy the values out); a history transfer can run
	// to historyMaxFrame, too much to keep, so ShardHistory drops the storage
	// after it. r is the reader roundTrip hands back, reused the same way.
	req *wire.Writer
	fr  *wire.FrameReader
	r   wire.Reader
}

// Dial connects a client to a node, waiting up to timeout (dialTimeout if
// zero) for the connection.
func Dial(addr string, timeout time.Duration) (*Client, error) {
	if timeout == 0 {
		timeout = dialTimeout
	}
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("cluster: dial %s: %w", addr, err)
	}
	return newClient(conn), nil
}

func newClient(conn net.Conn) *Client {
	return &Client{conn: conn, req: wire.NewWriter(), fr: wire.NewFrameReader(conn)}
}

// SetOpTimeout bounds each subsequent operation's full round trip (write
// plus reply read) with a connection deadline. Zero — the default —
// disables the bound for compatibility: convergence tests legitimately
// block in Do while a partition heals. Interactive and load-generation
// callers should set one so a wedged node (accepting but never replying)
// cannot hang them forever.
func (c *Client) SetOpTimeout(d time.Duration) {
	c.mu.Lock()
	c.opTimeout = d
	c.mu.Unlock()
}

// Close closes the connection.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.conn.Close()
}

// request opens the next request's frame in the client's writer; the caller
// encodes the request into it and then calls roundTrip.
func (c *Client) request() *wire.Writer {
	c.req.Reset()
	c.req.BeginFrame()
	return c.req
}

// roundTrip sends the request encoded since request() — the client's single
// send exit: one frame, one conn.Write — and reads one reply of type want,
// returning the reply's reader positioned after the type tag. The reply is
// read into the client's frame reader (see recvFrame) and the reader is the
// client's own, both good until the next roundTrip. On a client that
// failed before, it touches nothing and returns that failure.
func (c *Client) roundTrip(replyMax int, want uint64) (*wire.Reader, error) {
	if c.err != nil {
		return nil, fmt.Errorf("cluster: client closed by an earlier failure: %w", c.err)
	}
	if c.opTimeout > 0 {
		c.conn.SetDeadline(time.Now().Add(c.opTimeout))
		defer c.conn.SetDeadline(time.Time{})
	}
	frame, err := c.req.EndFrame(wire.DefaultMaxFrame)
	if err == nil {
		_, err = c.conn.Write(frame)
	}
	if err != nil {
		return nil, c.fail(fmt.Errorf("cluster: client write: %w", err))
	}
	b, err := recvFrame(c.fr, replyMax)
	if err != nil {
		return nil, c.fail(fmt.Errorf("cluster: client read: %w", err))
	}
	r := &c.r
	r.Reset(b)
	if typ := r.Uvarint(); r.Err() != nil || typ != want {
		return nil, c.fail(fmt.Errorf("cluster: unexpected reply frame type %d (want %d)", typ, want))
	}
	return r, nil
}

// fail closes the connection on a round trip's failure and keeps err for
// every later call to wrap; it returns err.
func (c *Client) fail(err error) error {
	c.err = err
	c.conn.Close()
	return err
}

// Do performs one operation at the node and returns its response.
func (c *Client) Do(obj model.ObjectID, op model.Operation) (model.Response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextReq = (c.nextReq + 1) % reqIDs
	id := c.nextReq
	appendRequest(c.request(), id, obj, op)
	r, err := c.roundTrip(wire.DefaultMaxFrame, tResponse)
	if err != nil {
		return model.Response{}, err
	}
	gotID, resp, err := decodeResponse(r)
	if err != nil {
		return model.Response{}, c.fail(fmt.Errorf("cluster: bad response frame: %w", err))
	}
	if gotID != id {
		return model.Response{}, c.fail(fmt.Errorf("cluster: response for request %d, want %d", gotID, id))
	}
	return resp, nil
}

// Stats fetches the node's counter snapshot.
func (c *Client) Stats() (Stats, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.request().Uvarint(tStats)
	r, err := c.roundTrip(wire.DefaultMaxFrame, tStatsResp)
	if err != nil {
		return Stats{}, err
	}
	s, err := decodeStats(r)
	if err != nil {
		return Stats{}, c.fail(fmt.Errorf("cluster: bad stats frame: %w", err))
	}
	return s, nil
}

// ShardHistory downloads one shard's recorded local history.
func (c *Client) ShardHistory(shard int) (History, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	appendHistoryReq(c.request(), shard)
	r, err := c.roundTrip(historyMaxFrame, tHistoryResp)
	if err != nil {
		return History{}, err
	}
	h, err := decodeHistory(r)
	c.fr.Reuse(nil)
	if err != nil {
		return History{}, c.fail(fmt.Errorf("cluster: bad history frame: %w", err))
	}
	return h, nil
}
