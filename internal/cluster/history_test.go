package cluster

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/membership"
	"repro/internal/model"
)

// TestMergeHistoriesRejectsDuplicateSend pins the duplicate-broadcast
// defense: message identity is (Origin, Seq), so two send events minting the
// same pair (e.g. a restarted node re-recording a re-offered broadcast)
// would silently attribute every receive to whichever send merged last.
// Both merge and BuildAudit must reject with the typed *OrderError.
func TestMergeHistoriesRejectsDuplicateSend(t *testing.T) {
	h := History{Node: 0, N: 2, Events: []Event{
		{Kind: model.ActSend, Lamport: 1, Origin: 0, Seq: 1, Payload: []byte("m")},
		{Kind: model.ActSend, Lamport: 3, Origin: 0, Seq: 1, Payload: []byte("m'")},
	}}
	_, _, err := merge([]History{h})
	var oe *OrderError
	if !errors.As(err, &oe) {
		t.Fatalf("merge = %v, want *OrderError", err)
	}
	if !oe.DuplicateSend || oe.Origin != 0 || oe.Seq != 1 {
		t.Fatalf("OrderError = %+v, want DuplicateSend for (r0,1)", oe)
	}
	if _, err := BuildAudit([]History{h}); !errors.As(err, &oe) || !oe.DuplicateSend {
		t.Fatalf("BuildAudit = %v, want the same DuplicateSend *OrderError", err)
	}

	// The duplicate may also hide across histories: a peer's re-recorded
	// send of a forwarded broadcast collides with the origin's.
	a := History{Node: 0, N: 2, Events: []Event{
		{Kind: model.ActSend, Lamport: 1, Origin: 0, Seq: 1, Payload: []byte("m")},
	}}
	b := History{Node: 1, N: 2, Events: []Event{
		{Kind: model.ActSend, Lamport: 2, Origin: 0, Seq: 1, Payload: []byte("m")},
	}}
	if _, _, err := merge([]History{a, b}); !errors.As(err, &oe) || !oe.DuplicateSend {
		t.Fatalf("cross-history duplicate send = %v, want DuplicateSend *OrderError", err)
	}
}

// TestBuildAuditFrontierlessReads pins the containment-edge guard: a store
// without visibility reporting records no frontier, and the empty frontier
// must not be treated as "contained in everything" — that absence-derived
// edge could connect a violating read into the visibility order well enough
// to mask the violation.
func TestBuildAuditFrontierlessReads(t *testing.T) {
	h0 := History{Node: 0, N: 2, Store: "lww", Events: []Event{
		{Kind: model.ActDo, Lamport: 1, Object: "x", Op: model.Read(), Rval: model.ReadResponse(nil)},
	}}
	h1 := History{Node: 1, N: 2, Store: "lww", Events: []Event{
		{Kind: model.ActDo, Lamport: 2, Object: "x", Op: model.Read(), Rval: model.ReadResponse(nil)},
	}}
	audit, err := BuildAudit([]History{h0, h1})
	if err != nil {
		t.Fatal(err)
	}
	if audit.Abstract.Vis(0, 1) {
		t.Fatal("containment edge derived from two absent frontiers")
	}

	// With real frontiers the same shape does yield the edge: r0's view
	// ([1,0]) is contained in r1's ([1,1]).
	h0.Events[0].Frontier = []uint64{1, 0}
	h1.Events[0].Frontier = []uint64{1, 1}
	audit, err = BuildAudit([]History{h0, h1})
	if err != nil {
		t.Fatal(err)
	}
	if !audit.Abstract.Vis(0, 1) {
		t.Fatal("containment edge missing when both frontiers are reported")
	}

	// Mixed: a reported frontier against an absent one still yields no
	// edge — containment cannot be claimed against a view never stated.
	h1.Events[0].Frontier = nil
	audit, err = BuildAudit([]History{h0, h1})
	if err != nil {
		t.Fatal(err)
	}
	if audit.Abstract.Vis(0, 1) {
		t.Fatal("containment edge derived against an absent frontier")
	}
}

// TestHistoryOfClosedNodeIsAnError: a closed node, whose shards take no
// more turns, has no snapshot to give, and must say so — a well-formed history with zero
// events reads, to whoever merges it, as "this node did nothing". What the
// node recorded is still in its storage.
func TestHistoryOfClosedNodeIsAnError(t *testing.T) {
	mem := &memStorage{}
	nd := bootNode(t, 0, 1, func(cfg *Config) { cfg.Storage = mem })
	writeN(t, nd, 3, "w")
	nd.Close()
	if h, err := nd.ShardHistory(0); !errors.Is(err, ErrClosed) {
		t.Fatalf("ShardHistory on a closed node = %d events, err %v; want ErrClosed", len(h.Events), err)
	}
	if got := len(mem.events(0, 0)); got != 6 {
		t.Fatalf("storage holds %d events, want the 3 writes' do and send", got)
	}
}

// TestClientHistoryFailsWhenNodeClosesMidRequest holds a history request
// at the node — its shard's turn is held — while the node closes. The
// request must fail at the client; it used to be answered with an empty
// history.
func TestClientHistoryFailsWhenNodeClosesMidRequest(t *testing.T) {
	nd := bootNode(t, 0, 1, nil)
	writeN(t, nd, 3, "w")
	c, err := Dial(nd.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Stats(); err != nil { // the connection is up and served
		t.Fatal(err)
	}

	sh := nd.shards[0]
	if err := sh.lock(); err != nil {
		t.Fatal(err)
	}
	type result struct {
		h   History
		err error
	}
	got := make(chan result, 1)
	go func() {
		h, err := c.ShardHistory(0)
		got <- result{h, err}
	}()
	time.Sleep(20 * time.Millisecond) // let the request reach the busy shard
	closed := make(chan struct{})
	go func() { nd.Close(); close(closed) }()
	res := <-got
	sh.turn.Unlock()
	<-closed
	if res.err == nil {
		t.Fatalf("History against a closing node decoded %d events without error", len(res.h.Events))
	}
}

// heldJournal is a journal that can hold a shard's turn: once armed, the
// next Append signals busy and waits for release. It fails the test if an
// Append runs after its close hook.
type heldJournal struct {
	t             *testing.T
	busy, release chan struct{}
	mu            sync.Mutex
	armed, closed bool
}

func (j *heldJournal) Open(id model.ReplicaID, n int, storeName string, shard, shards int) (func(Event) error, *History, *membership.Forest, func() error, error) {
	journal := func(Event) error {
		j.mu.Lock()
		hold, closed := j.armed, j.closed
		j.armed = false
		j.mu.Unlock()
		if closed {
			j.t.Error("the journal was appended to after its close hook ran")
		}
		if hold {
			close(j.busy)
			<-j.release
		}
		return nil
	}
	closeLog := func() error {
		j.mu.Lock()
		j.closed = true
		j.mu.Unlock()
		return nil
	}
	return journal, nil, nil, closeLog, nil
}

// TestCloseWaitsOutTheRunningTurn holds a node's one shard busy inside a
// turn — a write whose journal Append is held — while the node closes,
// with a second write waiting on that shard. Close must return only after
// the busy turn ends, and close the journal only then, so no Append
// follows its close hook: the write of the busy turn, do and send alike,
// is journaled and answered. The waiting write must get ErrClosed, not a
// turn of its own after Close began.
func TestCloseWaitsOutTheRunningTurn(t *testing.T) {
	j := &heldJournal{t: t, busy: make(chan struct{}), release: make(chan struct{})}
	nd := bootNode(t, 0, 1, func(cfg *Config) { cfg.Storage = j })
	writeN(t, nd, 3, "w")

	j.mu.Lock()
	j.armed = true
	j.mu.Unlock()
	held, queued := make(chan error, 1), make(chan error, 1)
	go func() {
		_, err := nd.Do("k", model.Write("held"))
		held <- err
	}()
	<-j.busy
	go func() {
		_, err := nd.Do("k", model.Write("queued"))
		queued <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the second write reach the busy shard
	closed := make(chan struct{})
	go func() { nd.Close(); close(closed) }()
	select {
	case <-closed:
		t.Fatal("Close returned while a turn was still running")
	case <-time.After(50 * time.Millisecond):
	}
	close(j.release)
	<-closed
	if err := <-held; err != nil {
		t.Fatalf("the write whose turn Close waited out = %v, want its response", err)
	}
	if err := <-queued; !errors.Is(err, ErrClosed) {
		t.Fatalf("a write waiting on the shard when Close began = %v, want ErrClosed", err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.closed {
		t.Fatal("Close returned without closing the journal")
	}
}
