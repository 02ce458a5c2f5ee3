package cluster

import (
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/livecheck"
	"repro/internal/model"
	"repro/internal/spec"
)

// TestLiveCheckerFlagsViolationDuringRun is the tentpole's acceptance
// check on the TCP engine: a fault schedule that makes the lww store
// surface a causal inversion — r2 applies a write whose causal dependency
// is stuck behind a cut link — must be flagged by the streaming checker
// WHILE the cluster is still degraded, before heal and quiescence. After
// the run, the offline audit over the same recorded histories must agree.
func TestLiveCheckerFlagsViolationDuringRun(t *testing.T) {
	const n = 3
	em := fault.NewNetem(n)
	ck := livecheck.New(n, livecheck.Options{Types: spec.MVRTypes()})

	nodes := startClusterWith(t, "lww", n, func(cfg *Config) {
		cfg.Transport = em
		cfg.Tap = func(_ int, ev livecheck.Event) { ck.Observe(ev) }
	})

	// Cut r0→r2: r0's writes reach r1 but wait in r0's log while its link
	// to r2 redials. r1→r2 stays open, so a write made at r1 AFTER seeing r0's
	// arrives at r2 ahead of its causal dependency — and lww applies it
	// immediately instead of buffering.
	em.Apply(fault.Directive{Kind: fault.KindLinkCut, From: 0, To: 2}, time.Millisecond)

	if _, err := nodes[0].Do("x", model.Write("a")); err != nil {
		t.Fatal(err)
	}
	waitValue := func(nd *Node, want model.Value) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			resp, err := nd.Do("x", model.Read())
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range resp.Values {
				if v == want {
					return
				}
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Fatalf("r%d never saw %q", nd.ID(), want)
	}
	waitValue(nodes[1], "a")
	if _, err := nodes[1].Do("x", model.Write("b")); err != nil {
		t.Fatal(err)
	}
	// The polling reads at r2 are themselves tapped do events: the first
	// one whose frontier covers b without a is the violation moment.
	waitValue(nodes[2], "b")

	during := ck.Verdict()
	if during.Violations == 0 {
		t.Fatalf("live checker saw nothing while the cluster was degraded: %+v", during)
	}
	found := false
	for _, v := range during.First {
		if v.Kind == livecheck.CausalDependency && v.Node == 2 &&
			v.Dot == (model.Dot{Origin: 1, Seq: 1}) && v.Dep == (model.Dot{Origin: 0, Seq: 1}) {
			found = true
		}
	}
	if !found {
		t.Fatalf("want CausalDependency at r2 for (r1,1) missing (r0,1); got %v", during.First)
	}

	// Heal, drain, and replay the recorded histories offline: the
	// post-run audit must reach the same verdict as the streaming one (and
	// auditClean holds it to the reference's), without failing a store that
	// does not owe it.
	em.Heal()
	settle(t, nodes, "x")
	audit := auditClean(t, 1, HistoriesOf(nodes))[0]
	if audit.CausalOwed {
		t.Fatal("the audit holds lww to Definition 12, which it does not claim")
	}
	if audit.Causal == nil {
		t.Fatal("post-run audit calls the run causal; the streaming checker flagged it")
	}
}
