package cluster

import (
	"errors"
	"testing"
	"time"

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

// TestHistoryOfClosedNodeIsAnError: a node whose loops are gone has no
// snapshot to give, and must say so — a well-formed history with zero
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
// at the node — its shard loop is kept busy — while the node closes. The
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

	busy, release := make(chan struct{}), make(chan struct{})
	go nd.shards[0].inLoop(func() { close(busy); <-release })
	<-busy
	type result struct {
		h   History
		err error
	}
	got := make(chan result, 1)
	go func() {
		h, err := c.History()
		got <- result{h, err}
	}()
	time.Sleep(20 * time.Millisecond) // let the request reach the busy loop
	closed := make(chan struct{})
	go func() { nd.Close(); close(closed) }()
	res := <-got
	close(release)
	<-closed
	if res.err == nil {
		t.Fatalf("History against a closing node decoded %d events without error", len(res.h.Events))
	}
}
