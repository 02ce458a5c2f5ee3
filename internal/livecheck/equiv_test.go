package livecheck_test

import (
	"fmt"
	"testing"

	"repro/internal/abstract"
	"repro/internal/cluster"
	"repro/internal/consistency"
	"repro/internal/fault"
	"repro/internal/livecheck"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/store"

	_ "repro/internal/store/causal"
	_ "repro/internal/store/gsp"
	_ "repro/internal/store/kbuffer"
	_ "repro/internal/store/lww"
	_ "repro/internal/store/statesync"
)

// histories rebuilds per-node cluster histories from a Recorder's streams,
// feeding the same frontier data the live checker saw into the offline
// BuildAudit pipeline — the two sides of the equivalence claim consume
// identical inputs.
func histories(rec *livecheck.Recorder, n int, storeName string) []cluster.History {
	per := rec.PerNode()
	hists := make([]cluster.History, n)
	for i := 0; i < n; i++ {
		h := cluster.History{Node: model.ReplicaID(i), N: n, Store: storeName}
		for _, ev := range per[model.ReplicaID(i)] {
			h.Events = append(h.Events, cluster.Event{
				Kind: ev.Kind, Lamport: ev.Lamport,
				Object: ev.Object, Op: ev.Op, Rval: ev.Rval,
				Dot: ev.Dot, Frontier: ev.Frontier,
				Origin: ev.Origin, Seq: ev.Seq,
			})
		}
		hists[i] = h
	}
	return hists
}

// TestStreamingMatchesPostRunAudit is the checker's equivalence property:
// for every registered store, on seeded chaos schedules, three verdicts on
// the very histories the tap recorded agree — the streaming checker's, the
// post-run audit's (cluster.AuditShards, the same checker over the merged
// events) and the reference's (BuildAudit + CheckCausal). The causal stores
// must come out clean on every side; the weaker stores may violate — the
// property is agreement, not cleanliness.
func TestStreamingMatchesPostRunAudit(t *testing.T) {
	objs := []model.ObjectID{"x0", "x1", "x2"}
	const nodes = 3
	violating := make(map[string]bool)
	for _, name := range store.Names() {
		for seed := int64(0); seed < 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				st, err := store.Open(name, spec.MVRTypes(), store.Options{})
				if err != nil {
					t.Fatal(err)
				}
				ck := livecheck.New(nodes, livecheck.Options{Types: spec.MVRTypes()})
				rec := livecheck.NewRecorder()
				c := sim.NewCluster(st, nodes, seed)
				c.SetTap(livecheck.Tee(ck.Observe, rec.Observe))
				sched := fault.Generate(fault.Config{
					Seed: seed, N: nodes, Steps: 300,
					Partitions: 1, Crashes: 1, LinkFaults: 2,
				})
				c.RunScheduled(sched, sim.WorkloadConfig{
					Objects: objs, Steps: 300,
					MutateRatio: 0.4, SendProb: 0.9, DeliverProb: 0.95,
				})
				c.Quiesce()

				v := ck.Verdict()
				hists := histories(rec, nodes, name)
				audited, err := cluster.BuildAudit(hists)
				if err != nil {
					t.Fatal(err)
				}
				reference := consistency.CheckCausal(audited.Abstract, spec.MVRTypes())
				if (v.Violations > 0) != (reference != nil) {
					t.Fatalf("streaming verdict disagrees with the reference:\nlive: %+v\nfirst: %v\nreference: %v",
						v, v.First, reference)
				}
				audits, err := cluster.AuditShards(1, func(int) ([]cluster.History, error) { return hists, nil }, spec.MVRTypes())
				if err != nil {
					t.Fatal(err)
				}
				if err := audits[0].WellFormed; err != nil {
					t.Fatalf("recorded streams merged into a malformed execution: %v", err)
				}
				if (audits[0].Causal != nil) != (reference != nil) {
					t.Fatalf("post-run audit disagrees with the reference:\naudit: %v\nreference: %v", audits[0].Causal, reference)
				}
				violating[name] = violating[name] || reference != nil
			})
		}
	}
	// The agreement must have been tested on violating runs too, not only
	// on clean ones.
	for _, name := range []string{"lww", "gsp"} {
		if !violating[name] {
			t.Errorf("no %s run violated: the three verdicts were never compared on a violation", name)
		}
	}
}

// TestBoundedStateSublinear pins the o(history) claim: with a stationary
// undelivered window (no faults, delivery keeping pace with minting), the
// checker's peak tracked state must not scale with the run length — 4x the
// steps may not even double the peak, and the peak must sit far below the
// event count.
func TestBoundedStateSublinear(t *testing.T) {
	objs := []model.ObjectID{"x0", "x1", "x2"}
	const nodes = 3
	run := func(steps int) livecheck.Verdict {
		st, err := store.Open("causal", spec.MVRTypes(), store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		ck := livecheck.New(nodes, livecheck.Options{Types: spec.MVRTypes()})
		c := sim.NewCluster(st, nodes, 7)
		c.SetTap(ck.Observe)
		c.RunScheduled(fault.Schedule{}, sim.WorkloadConfig{
			Objects: objs, Steps: steps,
			MutateRatio: 0.4, SendProb: 0.9, DeliverProb: 0.95,
		})
		c.Quiesce()
		return ck.Verdict()
	}
	small := run(4000)
	large := run(16000)
	if small.Violations != 0 || large.Violations != 0 {
		t.Fatalf("causal store flagged on a fault-free run: %+v / %+v", small, large)
	}
	if large.PeakTracked >= 2*small.PeakTracked {
		t.Fatalf("peak tracked state scales with history: %d at 4k steps, %d at 16k",
			small.PeakTracked, large.PeakTracked)
	}
	if int64(large.PeakTracked)*10 >= large.Events {
		t.Fatalf("peak tracked state (%d) is not small against history length (%d events)",
			large.PeakTracked, large.Events)
	}
}

// sameVis fails the test unless two derivations of one run relate the same
// pairs: the same H and, pair by pair, the same vis (abstract.Equivalent
// compares histories and ignores vis).
func sameVis(t *testing.T, sim, tcp *abstract.Execution) {
	t.Helper()
	if len(sim.H) != len(tcp.H) {
		t.Fatalf("the simulator derives %d do events, the audit %d", len(sim.H), len(tcp.H))
	}
	for j := range sim.H {
		for i := 0; i < j; i++ {
			if sim.Vis(i, j) != tcp.Vis(i, j) {
				t.Fatalf("vis(%d,%d): simulator %v, audit %v\n%s -> %s", i, j, sim.Vis(i, j), tcp.Vis(i, j), sim.H[i], sim.H[j])
			}
		}
	}
}

// TestDerivationsAgree holds the two engines to one abstract execution per
// run: what the simulator derives from its exact visibility record
// (DerivedAbstract) and what the TCP engine's audit derives from the
// frontiers the same run tapped (BuildAudit over the recorded stream) have
// identical vis, on generated fault schedules and under every delivery
// discipline the simulator has. That holds for the stores whose visibility is
// a per-origin prefix however messages are delivered. It is false by design
// for gsp and lww, which apply an update the moment it arrives: delivered out
// of order they see past a gap, the frontier — a prefix — cannot say so, and
// the two derivations differ in both directions. No TCP run can show that (a
// link is FIFO, so there the frontier is exact), so those two are held to
// agreement on FIFO delivery only — no reordering discipline, no link-fault
// windows; sim.TestPastMatchesMatrix holds the simulator's record to the
// exact answer for them everywhere else.
func TestDerivationsAgree(t *testing.T) {
	fifoOnly := map[string]bool{"gsp": true, "lww": true}
	modes := map[string]sim.Faults{
		"fifo":            {},
		"reorder":         {Reorder: true},
		"adversarial":     {Adversarial: true},
		"drop+reorder":    {DropProb: 0.2, Reorder: true},
		"dup+adversarial": {DupProb: 0.3, Adversarial: true},
	}
	objs := []model.ObjectID{"x0", "x1", "x2"}
	const nodes = 3
	for _, name := range store.Names() {
		for mode, faults := range modes {
			linkFaults := 2
			if fifoOnly[name] {
				if mode != "fifo" {
					continue
				}
				linkFaults = 0
			}
			for seed := int64(0); seed < 4; seed++ {
				t.Run(fmt.Sprintf("%s/%s/seed%d", name, mode, seed), func(t *testing.T) {
					st, err := store.Open(name, spec.MVRTypes(), store.Options{})
					if err != nil {
						t.Fatal(err)
					}
					rec := livecheck.NewRecorder()
					c := sim.NewCluster(st, nodes, seed)
					c.SetTap(rec.Observe)
					c.SetFaults(faults)
					sched := fault.Generate(fault.Config{
						Seed: seed, N: nodes, Steps: 200,
						Partitions: 1, Crashes: 1, LinkFaults: linkFaults,
					})
					c.RunScheduled(sched, sim.WorkloadConfig{Objects: objs, Steps: 200, MutateRatio: 0.4})
					c.Quiesce()
					c.ReadAll("x0")

					audited, err := cluster.BuildAudit(histories(rec, nodes, name))
					if err != nil {
						t.Fatal(err)
					}
					sameVis(t, c.DerivedAbstract(), audited.Abstract)
				})
			}
		}
	}
}

// mute is a store whose replicas report neither dots nor visibility: the
// wrapper's method set is store.Replica's and nothing more.
type mute struct{ store.Store }

func (m mute) NewReplica(id model.ReplicaID, n int) store.Replica {
	return struct{ store.Replica }{m.Store.NewReplica(id, n)}
}

// TestNoVisibilityReportDerivesSessionOrderOnly: an absent report is not an
// empty one. For a store that reports no visibility both engines derive
// session order and nothing else — the simulator used to give every read an
// edge to every later event ("saw nothing ⊆ anything"), visibility the store
// never claimed and BuildAudit already refused to fabricate.
func TestNoVisibilityReportDerivesSessionOrderOnly(t *testing.T) {
	inner, err := store.Open("causal", spec.MVRTypes(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const nodes = 3
	rec := livecheck.NewRecorder()
	c := sim.NewCluster(mute{inner}, nodes, 3)
	c.SetTap(rec.Observe)
	c.RunRandom(sim.WorkloadConfig{Objects: []model.ObjectID{"x", "y"}, Steps: 120})
	c.Quiesce()

	derived := c.DerivedAbstract()
	reads := 0
	for j, e := range derived.H {
		if e.Op.Kind == model.OpRead {
			reads++
		}
		for i := 0; i < j; i++ {
			if session := derived.H[i].Replica == e.Replica; derived.Vis(i, j) != session {
				t.Fatalf("vis(%d,%d) = %v between r%d and r%d: not session order", i, j, derived.Vis(i, j), derived.H[i].Replica, e.Replica)
			}
		}
	}
	if reads == 0 {
		t.Fatal("the run made no reads; nothing could have been fabricated")
	}
	audited, err := cluster.BuildAudit(histories(rec, nodes, "mute"))
	if err != nil {
		t.Fatal(err)
	}
	sameVis(t, derived, audited.Abstract)
}
