package cluster

import (
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"repro/internal/livecheck"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/store"

	_ "repro/internal/store/gsp"
	_ "repro/internal/store/kbuffer"
)

// TestSettleSurfacesAgedReads pins Settle's order on a store that withholds
// what it received until reads elapse: quiesce (Q), K − 1 rounds of reads
// (r) of the one object at the two replicas, quiesce again, and only then
// the convergence reads, the K-th round — and on every other store one
// quiescence and the convergence reads alone.
func TestSettleSurfacesAgedReads(t *testing.T) {
	for _, tc := range []struct {
		store string
		k     int
		want  string
	}{
		{"kbuffer", 3, "Q" + "rr" + "rr" + "Q" + "rr"},
		{"lww", 0, "Q" + "rr"},
	} {
		st, err := store.Open(tc.store, spec.MVRTypes(), store.Options{K: tc.k})
		if err != nil {
			t.Fatal(err)
		}
		trace := ""
		quiesce := func() error { trace += "Q"; return nil }
		replica := DoerFunc(func(model.ObjectID, model.Operation) (model.Response, error) {
			trace += "r"
			return model.Response{}, nil
		})
		if err := Settle(quiesce, st, []Doer{replica, replica}, []model.ObjectID{"x"}); err != nil {
			t.Fatal(err)
		}
		if trace != tc.want {
			t.Fatalf("%s: Settle walked %q, want %q", tc.store, trace, tc.want)
		}
	}
	down := errors.New("down")
	if err := Settle(func() error { return down }, nil, nil, nil); !errors.Is(err, down) {
		t.Fatalf("Settle over a cluster that cannot quiesce = %v, want its error", err)
	}
}

// TestPropertyErrHonoursDeclaredDeviations: a §4 count is the run's error
// unless the store declares that it violates §4 by design.
func TestPropertyErrHonoursDeclaredDeviations(t *testing.T) {
	for name, declared := range map[string]bool{"kbuffer": true, "gsp": true, "lww": false, "causal": false} {
		st, err := store.Open(name, spec.MVRTypes(), store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := PropertyErr(st, 0); err != nil {
			t.Fatalf("%s: no violations, yet %v", name, err)
		}
		if err := PropertyErr(st, 7); (err == nil) != declared {
			t.Fatalf("%s (declares §4 deviations: %v): 7 violations gave %v", name, declared, err)
		}
	}
	if PropertyErr(nil, 1) == nil {
		t.Fatal("an unknown store's violations must count")
	}
}

// TestPollQuiescedNeedsTwoCleanSweeps: one clean sweep can race an update in
// flight, so a dirty one between two clean ones starts the count again.
func TestPollQuiescedNeedsTwoCleanSweeps(t *testing.T) {
	sweeps := []bool{true, false, true, true}
	n := 0
	err := PollQuiesced(func() (bool, error) { n++; return sweeps[n-1], nil }, 10*time.Second)
	if err != nil || n != len(sweeps) {
		t.Fatalf("PollQuiesced returned %v after %d sweeps, want nil after %d", err, n, len(sweeps))
	}
	if err := PollQuiesced(func() (bool, error) { return false, nil }, 30*time.Millisecond); err == nil {
		t.Fatal("a cluster that never quiesces must time out")
	}
}

// linksAcked reports, without asking any peer, whether every link of nodes
// has heard its peer acknowledge every update of the link's own log.
func linksAcked(nodes []*Node) bool {
	for _, nd := range nodes {
		for _, p := range nd.allPeers() {
			p.mu.Lock()
			for si := range p.cursors {
				if p.cursors[si].lastAcked < nd.shards[si].logLen(nd.cfg.ID) {
					p.mu.Unlock()
					return false
				}
			}
			p.mu.Unlock()
		}
	}
	return true
}

// TestSweepAsksEveryNode: a quiescence sweep asks every node, so with
// unacknowledged writes at all three nodes, the answers to one sweep leave
// the next reading true. A sweep that stopped at the first node not
// quiesced would ask one node's links per sweep.
func TestSweepAsksEveryNode(t *testing.T) {
	nodes := startCluster(t, "causal", 3)
	for i, nd := range nodes {
		if _, err := nd.Do(model.ObjectID(fmt.Sprintf("k%d", i)), model.Write("v")); err != nil {
			t.Fatal(err)
		}
	}
	delivered := func() bool {
		for _, nd := range nodes {
			if nd.shards[0].receives.Load() != int64(len(nodes)-1) {
				return false
			}
		}
		return true
	}
	for deadline := time.Now().Add(10 * time.Second); !delivered(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the writes were not delivered everywhere")
		}
	}
	if linksAcked(nodes) {
		t.Fatal("a link heard an acknowledgement nobody asked for")
	}
	if sweepQuiesced(nodes) {
		t.Fatal("the first sweep after traffic read true")
	}
	for deadline := time.Now().Add(2 * time.Second); !linksAcked(nodes) && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if !sweepQuiesced(nodes) {
		t.Fatal("the sweep after the answers to one sweep read false: the first sweep did not ask every link")
	}
}

// TestBootMeshClosesWhatItBootedOnError: a mesh that cannot come up whole
// leaves no listener behind — node 0's port is free again once node 1 has
// failed to boot.
func TestBootMeshClosesWhatItBootedOnError(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	_, err = BootMesh(2, func(i int) Config {
		cfg := fastConfig(0, 0, openCausal(t))
		if i == 0 {
			cfg.Listen = addr
		} else {
			cfg.Store = nil // NewNode refuses
		}
		return cfg
	})
	if err == nil {
		t.Fatal("BootMesh booted a node without a store")
	}
	if ln, err = net.Listen("tcp", addr); err != nil {
		t.Fatalf("node 0 still holds its port after the mesh failed: %v", err)
	}
	ln.Close()
}

// simHistories runs a 3-node causal simulation of steps scheduler steps,
// quiesces it, and returns what its tap recorded as per-node histories: a
// run the audit can replay without booting a cluster.
func simHistories(tb testing.TB, steps int) []History {
	const n = 3
	rec := livecheck.NewRecorder()
	c := sim.NewCluster(openCausal(tb), n, 1)
	c.SetTap(rec.Observe)
	c.RunRandom(sim.WorkloadConfig{Objects: []model.ObjectID{"x0", "x1", "x2"}, Steps: steps, SendProb: 0.9, DeliverProb: 0.95})
	c.Quiesce()
	hists := make([]History, n)
	for node, evs := range rec.PerNode() {
		h := History{Node: node, N: n, Store: "causal"}
		for _, ev := range evs {
			h.Events = append(h.Events, Event{
				Kind: ev.Kind, Lamport: ev.Lamport,
				Object: ev.Object, Op: ev.Op, Rval: ev.Rval,
				Dot: ev.Dot, Frontier: ev.Frontier,
				Origin: ev.Origin, Seq: ev.Seq,
			})
		}
		hists[node] = h
	}
	return hists
}

// BenchmarkAudit is AuditShards — merge, CheckWellFormed, the routing check
// and the livecheck replay — over 3-node causal histories of about 1 k, 10 k
// and 100 k events the simulator recorded. It grows linearly in the events.
func BenchmarkAudit(b *testing.B) {
	for _, size := range []struct {
		name  string
		steps int
	}{{"1k", 480}, {"10k", 4800}, {"100k", 48000}} {
		hists := simHistories(b, size.steps)
		events := 0
		for _, h := range hists {
			events += len(h.Events)
		}
		b.Run(size.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				audits, err := AuditShards(1, these(hists...), spec.MVRTypes())
				if err != nil {
					b.Fatal(err)
				}
				if err := audits[0].Err(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(events), "events")
		})
	}
}
