package cluster

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/consistency"
	"repro/internal/model"
	"repro/internal/spec"
	"repro/internal/store"

	_ "repro/internal/store/causal"
	_ "repro/internal/store/lww"
	_ "repro/internal/store/statesync"
)

// fastConfig keeps test runs snappy: aggressive dial backoff so injected
// connection resets heal in milliseconds.
func fastConfig(id model.ReplicaID, n int, st store.Store) Config {
	return Config{
		ID: id, N: n, Store: st, Listen: "127.0.0.1:0",
		DialTimeout:    time.Second,
		DialBackoffMin: 5 * time.Millisecond,
		DialBackoffMax: 100 * time.Millisecond,
	}
}

// startCluster boots n nodes of the named store on loopback and wires the
// full mesh once every listener is up.
func startCluster(t *testing.T, storeName string, n int) []*Node {
	return startClusterWith(t, storeName, n, nil)
}

// startClusterWith is startCluster with each node's config passed through
// mut (nil for none) before it boots.
func startClusterWith(t *testing.T, storeName string, n int, mut func(*Config)) []*Node {
	t.Helper()
	nodes, err := BootMesh(n, func(i int) Config {
		st, err := store.Open(storeName, spec.MVRTypes(), store.Options{})
		if err != nil {
			t.Fatalf("open %q: %v", storeName, err)
		}
		cfg := fastConfig(model.ReplicaID(i), n, st)
		if mut != nil {
			mut(&cfg)
		}
		return cfg
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, nd := range nodes {
			nd.Close()
		}
	})
	return nodes
}

// settle walks the first half of the post-run pipeline over in-process
// nodes: quiescence, aged reads, convergence on objs.
func settle(t *testing.T, nodes []*Node, objs ...model.ObjectID) {
	t.Helper()
	if err := Settle(QuiesceNodes(nodes, 30*time.Second), nodes[0].cfg.Store, Doers(nodes), objs); err != nil {
		t.Fatal(err)
	}
}

// auditClean walks the second half: every shard's histories must merge, be
// well-formed and — the store claiming it — causally consistent. Each
// shard's causal verdict, owed or not, must agree with the reference:
// BuildAudit + CheckCausal over the same histories.
func auditClean(t *testing.T, shards int, fetch func(shard int) ([]History, error)) []ShardAudit {
	t.Helper()
	fetched := make([][]History, shards)
	audits, err := AuditShards(shards, func(s int) ([]History, error) {
		h, err := fetch(s)
		fetched[s] = h
		return h, err
	}, spec.MVRTypes())
	if err != nil {
		t.Fatal(err)
	}
	for s, a := range audits {
		ref, err := BuildAudit(fetched[s])
		if err != nil {
			t.Fatal(err)
		}
		if reference := consistency.CheckCausal(ref.Abstract, spec.MVRTypes()); (a.Causal == nil) != (reference == nil) {
			t.Fatalf("shard %d: the audit says %v, the reference %v", s, a.Causal, reference)
		}
		if err := a.Err(); err != nil {
			t.Fatalf("shard %d: %v", s, err)
		}
	}
	return audits
}

// these is the fetch of an audit over histories already in hand.
func these(hists ...History) func(int) ([]History, error) {
	return func(int) ([]History, error) { return hists, nil }
}

// noViolations fails the test on any §4 violation the nodes' checkers saw.
func noViolations(t *testing.T, nodes ...*Node) {
	t.Helper()
	for _, nd := range nodes {
		if v := nd.Violations(); len(v) != 0 {
			t.Fatalf("r%d property violations: %v", nd.ID(), v)
		}
	}
}

// TestThreeNodeAuditUnderConnectionResets is the package's end-to-end
// check: a 3-node causal cluster takes a concurrent workload while a chaos
// goroutine repeatedly resets the replication connections, then quiesces.
// The recorded histories must merge into a well-formed execution whose
// derived abstract execution is causally consistent, with zero §4 property
// violations — and the cluster must have actually converged and actually
// reconnected (the run exercised the recovery path, not a quiet network).
func TestThreeNodeAuditUnderConnectionResets(t *testing.T) {
	nodes := startCluster(t, "causal", 3)
	objects := []model.ObjectID{"x", "y", "z"}

	const workers = 6
	const opsPerWorker = 80
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			nd := nodes[w%len(nodes)]
			for i := 0; i < opsPerWorker; i++ {
				obj := objects[rng.Intn(len(objects))]
				if rng.Intn(3) == 0 {
					if _, err := nd.Do(obj, model.Read()); err != nil {
						t.Errorf("worker %d read: %v", w, err)
						return
					}
				} else {
					v := model.Value(fmt.Sprintf("w%d.%d", w, i))
					if _, err := nd.Do(obj, model.Write(v)); err != nil {
						t.Errorf("worker %d write: %v", w, err)
						return
					}
				}
			}
		}(w)
	}

	// Chaos: reset the dial-side replication connections of every node,
	// several times, while the workload runs.
	chaosDone := make(chan struct{})
	go func() {
		defer close(chaosDone)
		for round := 0; round < 8; round++ {
			time.Sleep(15 * time.Millisecond)
			for _, nd := range nodes {
				nd.BreakConnections()
			}
		}
	}()
	wg.Wait()
	<-chaosDone
	if t.Failed() {
		return
	}

	settle(t, nodes, objects...)
	var total Stats
	for _, nd := range nodes {
		total.Add(nd.Stats())
	}
	if total.Reconnects == 0 {
		t.Fatal("chaos injected no reconnects — recovery path untested")
	}
	noViolations(t, nodes...)
	auditClean(t, 1, HistoriesOf(nodes))
}

// TestClientRequestResponse drives a 2-node cluster purely over the wire:
// operations, stats, and the history download all through Client.
func TestClientRequestResponse(t *testing.T) {
	nodes := startCluster(t, "lww", 2)
	c0, err := Dial(nodes[0].Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c0.Close()
	c1, err := Dial(nodes[1].Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()

	if resp, err := c0.Do("k", model.Write("v1")); err != nil || !resp.OK {
		t.Fatalf("write: resp=%v err=%v", resp, err)
	}
	if resp, err := c0.Do("k", model.Read()); err != nil || len(resp.Values) != 1 || resp.Values[0] != "v1" {
		t.Fatalf("read-own-write: resp=%v err=%v", resp, err)
	}

	// The write must propagate to the other node.
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := c1.Do("k", model.Read())
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Values) == 1 && resp.Values[0] == "v1" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("write never reached node 1: last read %v", resp)
		}
		time.Sleep(5 * time.Millisecond)
	}

	s, err := c0.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if s.Node != 0 || s.Store != "lww" || s.Ops < 2 || s.Sends < 1 {
		t.Fatalf("stats = %+v", s)
	}
	h, err := c1.History()
	if err != nil {
		t.Fatal(err)
	}
	if h.Node != 1 || h.N != 2 || len(h.Events) == 0 {
		t.Fatalf("history = %+v", h)
	}

	// Both histories together must form a well-formed execution.
	h0, err := c0.History()
	if err != nil {
		t.Fatal(err)
	}
	auditClean(t, 1, these(h0, h))
}

// TestStateSyncClusterConverges runs the state-based store over TCP: the
// transport's reliability plus state merging converge without the
// simulator's lossy-run caveat.
func TestStateSyncClusterConverges(t *testing.T) {
	nodes := startCluster(t, "statesync", 3)
	for i, nd := range nodes {
		for j := 0; j < 5; j++ {
			if _, err := nd.Do("obj", model.Write(model.Value(fmt.Sprintf("n%d.%d", i, j)))); err != nil {
				t.Fatal(err)
			}
		}
	}
	nodes[rand.Intn(len(nodes))].BreakConnections()
	settle(t, nodes, "obj")
}

// TestMergeHistoriesRejectsCorrupt pins the audit pipeline's defenses: a
// duplicated node and a receive without a matching send both fail loudly
// instead of producing a bogus execution.
func TestMergeHistoriesRejectsCorrupt(t *testing.T) {
	h := History{Node: 0, N: 2, Events: []Event{
		{Kind: model.ActSend, Lamport: 1, Origin: 0, Seq: 1, Payload: []byte("m")},
	}}
	if _, _, err := merge([]History{h, h}); err == nil {
		t.Fatal("duplicate node accepted")
	}
	orphan := History{Node: 1, N: 2, Events: []Event{
		{Kind: model.ActReceive, Lamport: 5, Origin: 0, Seq: 9},
	}}
	if _, _, err := merge([]History{h, orphan}); err == nil {
		t.Fatal("orphan receive accepted")
	}
	ok := History{Node: 1, N: 2, Events: []Event{
		{Kind: model.ActReceive, Lamport: 2, Origin: 0, Seq: 1},
	}}
	_, x, err := merge([]History{h, ok})
	if err != nil {
		t.Fatal(err)
	}
	if err := x.CheckWellFormed(); err != nil {
		t.Fatal(err)
	}
}

// TestStatsReportStoreOptions: a node reports the options its store was
// built with, so a driver that sees only its stats (loadgen against served
// -k) opens the store the node runs.
func TestStatsReportStoreOptions(t *testing.T) {
	st, err := store.Open("kbuffer", spec.MVRTypes(), store.Options{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	nd, err := NewNode(fastConfig(0, 1, st))
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()
	c, err := Dial(nd.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if s.Store != "kbuffer(k=3)" || s.Options != (store.Options{K: 3}) {
		t.Fatalf("stats report store %q with options %+v, want kbuffer(k=3) with K 3", s.Store, s.Options)
	}
}
