package cluster

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/model"
	"repro/internal/spec"
	"repro/internal/store"
)

// TestBatchingCoalescesFrames checks that a backlog drains in batches, each
// written once. The backlog is built deterministically: the 0→1 link is cut,
// 200 writes pile up in the sender's log, then the link heals and the
// reconnect drains the log.
func TestBatchingCoalescesFrames(t *testing.T) {
	const writes = 200
	nets := fault.NewNetem(2)
	nodes := make([]*Node, 2)
	for i := 0; i < 2; i++ {
		st, err := store.Open("lww", spec.MVRTypes(), store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		cfg := fastConfig(model.ReplicaID(i), 2, st)
		cfg.Transport = nets
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
	if err := nodes[0].Connect(map[model.ReplicaID]string{1: nodes[1].Addr()}); err != nil {
		t.Fatal(err)
	}
	if err := nodes[1].Connect(map[model.ReplicaID]string{0: nodes[0].Addr()}); err != nil {
		t.Fatal(err)
	}

	// One seeded write proves the link up, then cut the update direction
	// and pile up the backlog while the sender can't ship.
	if _, err := nodes[0].Do("x", model.Write("seed")); err != nil {
		t.Fatal(err)
	}
	if !WaitQuiesced(nodes, 30*time.Second) {
		t.Fatal("cluster did not quiesce after seed write")
	}
	before := nodes[0].Stats().FramesOut
	nets.Apply(fault.Directive{Kind: fault.KindLinkCut, From: 0, To: 1}, time.Millisecond)
	for i := 0; i < writes; i++ {
		v := model.Value(fmt.Sprintf("v%d", i))
		if _, err := nodes[0].Do("x", model.Write(v)); err != nil {
			t.Fatal(err)
		}
	}
	nets.Apply(fault.Directive{Kind: fault.KindLinkRestore, From: 0, To: 1}, time.Millisecond)
	polls := 0
	if err := PollQuiesced(func() (bool, error) {
		polls++
		return nodes[0].Quiesced() && nodes[1].Quiesced(), nil
	}, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	sends, frames := nodes[0].Stats().Sends, nodes[0].Stats().FramesOut-before
	if sends <= writes {
		t.Fatalf("sends = %d, want > %d", sends, writes)
	}
	// The first write after the cut is refused, and the link redials only
	// once the cut is restored: one hello, then the backlog in full batches,
	// and at most one question per quiescence poll. Any further frame is a
	// resend on a live connection.
	if want := int64(1+1+(writes+BatchMax-1)/BatchMax) + int64(polls); frames > want {
		t.Fatalf("%d frames for %d backlogged sends over %d quiescence polls, want at most %d: the refused write, the hello, full batches and the questions",
			frames, writes, polls, want)
	}
}
