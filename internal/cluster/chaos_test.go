package cluster

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/spec"
	"repro/internal/store"
)

// TestPeerSenderCloseTwice is the double-close regression: a sender closed
// from both the reconnect path and node shutdown must not panic on the
// second close.
func TestPeerSenderCloseTwice(t *testing.T) {
	n := &Node{cfg: Config{ID: 0, N: 2, Seed: 1}.withDefaults()}
	p := newPeerSender(n, 1, "127.0.0.1:1")
	p.close()
	p.close() // must be a no-op, not a panic
	select {
	case <-p.done:
	default:
		t.Fatal("done not closed")
	}
}

// TestPeerJitterSeeded pins the seeded-jitter fix: the same (seed, node,
// peer) triple reproduces the exact jitter sequence, different peers of the
// same node draw decorrelated streams, and nothing touches the global
// math/rand source.
func TestPeerJitterSeeded(t *testing.T) {
	sample := func(seed int64, id, peer int) []time.Duration {
		n := &Node{cfg: Config{ID: model.ReplicaID(id), N: 4, Seed: seed}.withDefaults()}
		p := newPeerSender(n, model.ReplicaID(peer), "addr")
		out := make([]time.Duration, 20)
		for i := range out {
			out[i] = p.jitter(100 * time.Millisecond)
		}
		return out
	}
	a := sample(7, 0, 1)
	b := sample(7, 0, 1)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at draw %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := sample(7, 0, 2)
	d := sample(8, 0, 1)
	same := func(x []time.Duration) bool {
		for i := range a {
			if a[i] != x[i] {
				return false
			}
		}
		return true
	}
	if same(c) {
		t.Fatal("different peers drew an identical jitter stream")
	}
	if same(d) {
		t.Fatal("different seeds drew an identical jitter stream")
	}
}

// TestMergeOrderValidatesSendBeforeReceive feeds corrupted histories to the
// merge: a receive whose Lamport clock sorts it before its send, and a
// receive with no send anywhere, must both surface as typed *OrderError
// from merge and BuildAudit alike.
func TestMergeOrderValidatesSendBeforeReceive(t *testing.T) {
	sender := History{Node: 0, N: 2, Events: []Event{
		{Kind: model.ActSend, Lamport: 5, Origin: 0, Seq: 1, Payload: []byte("m")},
	}}
	early := History{Node: 1, N: 2, Events: []Event{
		// Lamport 2 < the send's 5: sorts before it in the merge.
		{Kind: model.ActReceive, Lamport: 2, Origin: 0, Seq: 1},
	}}
	var oe *OrderError
	if _, _, err := merge([]History{sender, early}); !errors.As(err, &oe) {
		t.Fatalf("receive-before-send: err = %v, want *OrderError", err)
	} else if !oe.BeforeSend || oe.Node != 1 || oe.Origin != 0 || oe.Seq != 1 {
		t.Fatalf("wrong OrderError fields: %+v", oe)
	}

	orphan := History{Node: 1, N: 2, Events: []Event{
		{Kind: model.ActReceive, Lamport: 9, Origin: 0, Seq: 3},
	}}
	oe = nil
	if _, err := BuildAudit([]History{sender, orphan}); !errors.As(err, &oe) {
		t.Fatalf("orphan receive: err = %v, want *OrderError", err)
	} else if oe.BeforeSend {
		t.Fatalf("orphan receive misclassified as before-send: %+v", oe)
	}
}

// TestNodeRestartRestoresHistory exercises the crash/restart path directly:
// write at a node, crash it, restart it from its storage on the same
// address, and require the restarted node to still hold
// its pre-crash state, resume its Lamport clock, and audit clean with its
// peers after more traffic.
func TestNodeRestartRestoresHistory(t *testing.T) {
	mem := &memStorage{}
	nodes := startClusterWith(t, "causal", 3, func(cfg *Config) { cfg.Storage = mem })
	for i := 0; i < 5; i++ {
		if _, err := nodes[0].Do("x", model.Write(model.Value(fmt.Sprintf("pre%d", i)))); err != nil {
			t.Fatal(err)
		}
	}
	if !WaitQuiesced(nodes, 30*time.Second) {
		t.Fatal("did not quiesce before crash")
	}

	victim := nodes[2]
	addr := victim.Addr()
	hist := victim.History()
	preEvents := len(hist.Events)
	if preEvents == 0 {
		t.Fatal("no events to restore")
	}
	victim.Close()

	st, err := store.Open("causal", spec.MVRTypes(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastConfig(2, 3, st)
	cfg.Listen = addr
	cfg.Storage = mem
	var reborn *Node
	for attempt := 0; attempt < 50; attempt++ {
		if reborn, err = NewNode(cfg); err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	t.Cleanup(func() { reborn.Close() })
	if err := reborn.Connect(map[model.ReplicaID]string{0: nodes[0].Addr(), 1: nodes[1].Addr()}); err != nil {
		t.Fatal(err)
	}
	nodes[2] = reborn

	// Pre-crash state survived the restart.
	resp, err := reborn.Do("x", model.Read())
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Values) != 1 || resp.Values[0] != "pre4" {
		t.Fatalf("restored read = %v, want [pre4]", resp)
	}

	// Fresh traffic everywhere, including the reborn node.
	for i, nd := range nodes {
		if _, err := nd.Do("y", model.Write(model.Value(fmt.Sprintf("post%d", i)))); err != nil {
			t.Fatal(err)
		}
	}
	settle(t, nodes, "x", "y")
	if got := len(reborn.History().Events); got <= preEvents {
		t.Fatalf("restored history lost events: %d <= %d", got, preEvents)
	}
	auditClean(t, 1, HistoriesOf(nodes))
}

// TestRestoreResendLateConnectingPeer pins the late-connect contract: a
// node restarted from its storage must offer the FULL live backlog — not
// just the restored prefix — to peers that connect only AFTER the restart.
// A second restart re-offers the same (now entirely stale) backlog, and
// the peer's delivered watermark on the hello ack prunes it before the
// first drain, so nothing stale is retransmitted and the audit stays
// clean.
func TestRestoreResendLateConnectingPeer(t *testing.T) {
	st0, err := store.Open("causal", spec.MVRTypes(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st1, err := store.Open("causal", spec.MVRTypes(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mem := &memStorage{}
	cfg0 := fastConfig(0, 2, st0)
	cfg0.Storage = mem
	r0, err := NewNode(cfg0)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := NewNode(fastConfig(1, 2, st1))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r1.Close() })
	// Only r1→r0 is linked; r0 accumulates a send backlog with nowhere to go.
	if err := r1.Connect(map[model.ReplicaID]string{0: r0.Addr()}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := r0.Do("x", model.Write(model.Value(fmt.Sprintf("v%d", i)))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r1.Do("y", model.Write(model.Value("w"))); err != nil {
		t.Fatal(err)
	}
	if !WaitQuiesced([]*Node{r0, r1}, 30*time.Second) {
		t.Fatal("did not quiesce before crash")
	}
	if resp, err := r1.Do("x", model.Read()); err != nil || len(resp.Values) != 0 {
		t.Fatalf("r1 saw x=%v before any r0→r1 link existed", resp.Values)
	}

	addr := r0.Addr()
	restart := func() *Node {
		t.Helper()
		st, err := store.Open("causal", spec.MVRTypes(), store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		cfg := fastConfig(0, 2, st)
		cfg.Listen = addr
		cfg.Storage = mem
		var nd *Node
		for attempt := 0; attempt < 50; attempt++ {
			if nd, err = NewNode(cfg); err == nil {
				return nd
			}
			time.Sleep(20 * time.Millisecond)
		}
		t.Fatalf("restart: %v", err)
		return nil
	}

	r0.Close()
	r0 = restart()
	// The peer connects late: only now does r0 learn r1's address, and the
	// restored backlog must flow.
	if err := r0.Connect(map[model.ReplicaID]string{1: r1.Addr()}); err != nil {
		t.Fatal(err)
	}
	if !WaitQuiesced([]*Node{r0, r1}, 30*time.Second) {
		t.Fatal("did not quiesce after late connect")
	}
	if resp, err := r1.Do("x", model.Read()); err != nil || len(resp.Values) != 1 || resp.Values[0] != "v4" {
		t.Fatalf("r1 read x=%v after late connect, want [v4]", resp.Values)
	}

	// Second crash/restart: the re-offered backlog is now entirely stale.
	// r1's hello ack carries delivered=5, which pre-acks the whole offer:
	// the connection quiesces without shipping (or r1 deduplicating) a
	// single stale frame.
	r0.Close()
	r0 = restart()
	t.Cleanup(func() { r0.Close() })
	if err := r0.Connect(map[model.ReplicaID]string{1: r1.Addr()}); err != nil {
		t.Fatal(err)
	}
	pair := []*Node{r0, r1}
	settle(t, pair, "x", "y")
	if dups := r1.Stats().DupFrames; dups != 0 {
		t.Fatalf("stale backlog shipped %d dup frames; the hello-ack delivered watermark should have pruned the offer", dups)
	}
	auditClean(t, 1, HistoriesOf(pair))
	noViolations(t, pair...)
}
