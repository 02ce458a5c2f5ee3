package sim

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/abstract"
	"repro/internal/consistency"
	"repro/internal/fault"
	"repro/internal/livecheck"
	"repro/internal/model"
	"repro/internal/spec"
	"repro/internal/store"
	"repro/internal/store/causal"
	_ "repro/internal/store/gsp"
	"repro/internal/store/kbuffer"
	"repro/internal/store/lww"
	"repro/internal/store/statesync"
)

func newCausalCluster(n int, seed int64) *Cluster {
	return NewCluster(causal.New(spec.MVRTypes()), n, seed)
}

func TestDoRecordsEvents(t *testing.T) {
	c := newCausalCluster(2, 1)
	c.Do(0, "x", model.Write("a"))
	c.Do(1, "x", model.Read())
	if got := len(c.Execution().DoEvents()); got != 2 {
		t.Fatalf("%d do events recorded", got)
	}
}

func TestSendAndDeliver(t *testing.T) {
	c := newCausalCluster(3, 1)
	c.Do(0, "x", model.Write("a"))
	if _, ok := c.Send(0); !ok {
		t.Fatal("send failed")
	}
	if _, ok := c.Send(0); ok {
		t.Fatal("second send should have nothing pending")
	}
	if c.QueueLen(1) != 1 || c.QueueLen(2) != 1 {
		t.Fatalf("queues: %d %d", c.QueueLen(1), c.QueueLen(2))
	}
	if !c.DeliverOne(1) {
		t.Fatal("delivery failed")
	}
	if got := c.Do(1, "x", model.Read()); !got.Equal(model.ReadResponse([]model.Value{"a"})) {
		t.Fatalf("read after delivery = %s", got)
	}
	if got := c.Do(2, "x", model.Read()); len(got.Values) != 0 {
		t.Fatalf("undelivered replica read = %s", got)
	}
}

func TestPartitionBlocksDelivery(t *testing.T) {
	c := newCausalCluster(3, 1)
	c.Partition([]model.ReplicaID{0}, []model.ReplicaID{1, 2})
	c.Do(0, "x", model.Write("a"))
	c.Send(0)
	if c.DeliverOne(1) {
		t.Fatal("delivery crossed the partition")
	}
	c.Heal()
	if !c.DeliverOne(1) {
		t.Fatal("delivery failed after healing")
	}
}

func TestQuiesceReachesConvergence(t *testing.T) {
	c := newCausalCluster(4, 7)
	objs := []model.ObjectID{"x", "y"}
	c.RunRandom(WorkloadConfig{Objects: objs, Steps: 200})
	c.Quiesce()
	if !c.IsQuiescent() {
		t.Fatal("cluster not quiescent after Quiesce")
	}
	if err := c.CheckConverged(objs); err != nil {
		t.Fatal(err)
	}
	if err := c.Execution().CheckWellFormed(); err != nil {
		t.Fatal(err)
	}
}

func TestQuiesceWithFaultsSuspended(t *testing.T) {
	c := newCausalCluster(3, 9)
	c.SetFaults(Faults{DropProb: 1.0}) // everything dropped during the run
	c.Do(0, "x", model.Write("a"))
	c.Send(0) // dropped copies
	c.Quiesce()
	// The dropped message is gone (no retransmission), but quiescence holds.
	if !c.IsQuiescent() {
		t.Fatal("not quiescent")
	}
}

func TestCheckConvergedLossyRunSentinel(t *testing.T) {
	c := newCausalCluster(3, 9)
	c.SetFaults(Faults{DropProb: 1.0})
	c.Do(0, "x", model.Write("a"))
	c.Send(0)
	c.Quiesce()
	if c.Drops() != 2 {
		t.Fatalf("Drops() = %d, want 2", c.Drops())
	}
	err := c.CheckConverged([]model.ObjectID{"x"})
	if !errors.Is(err, ErrLossyRun) {
		t.Fatalf("CheckConverged = %v, want ErrLossyRun", err)
	}
}

func TestCheckConvergedDropFreeRunHasNoSentinel(t *testing.T) {
	c := newCausalCluster(3, 9)
	c.SetFaults(Faults{DupProb: 0.3, Reorder: true}) // faults, but no drops
	c.RunRandom(WorkloadConfig{Objects: []model.ObjectID{"x"}, Steps: 100})
	c.Quiesce()
	if c.Drops() != 0 {
		t.Fatalf("Drops() = %d, want 0", c.Drops())
	}
	if err := c.CheckConverged([]model.ObjectID{"x"}); err != nil {
		t.Fatalf("drop-free run: %v", err)
	}
}

func TestCheckConvergedStateSyncTolerantOfLoss(t *testing.T) {
	// The state-sync store declares ConvergesUnderLoss: a post-loss
	// mutation's full-state broadcast subsumes every dropped message, so
	// CheckConverged rules on the reads instead of returning ErrLossyRun.
	c := NewCluster(statesync.New(spec.MVRTypes()), 3, 5)
	c.SetFaults(Faults{DropProb: 0.6})
	objs := []model.ObjectID{"x", "y"}
	c.RunRandom(WorkloadConfig{Objects: objs, Steps: 150, MutateRatio: 0.8})
	if c.Drops() == 0 {
		t.Fatal("workload dropped nothing; the scenario needs real loss")
	}
	c.SetFaults(Faults{})
	// A loss-free tail: one mutation per replica re-dirties everyone, and
	// the quiescence drain then propagates full states everywhere.
	for r := 0; r < c.N(); r++ {
		c.Do(model.ReplicaID(r), "x", model.Write(model.Value(fmt.Sprintf("tail%d", r))))
	}
	c.Quiesce()
	if err := c.CheckConverged(objs); err != nil {
		t.Fatalf("state-sync after lossy run: %v", err)
	}
}

func TestDuplicateFaultDeliversTwiceHarmlessly(t *testing.T) {
	c := newCausalCluster(2, 3)
	c.SetFaults(Faults{DupProb: 1.0})
	c.Do(0, "x", model.Write("a"))
	c.Send(0)
	if c.QueueLen(1) != 2 {
		t.Fatalf("queue = %d, want duplicated 2", c.QueueLen(1))
	}
	c.DeliverOne(1)
	c.DeliverOne(1)
	if got := c.Do(1, "x", model.Read()); !got.Equal(model.ReadResponse([]model.Value{"a"})) {
		t.Fatalf("read = %s", got)
	}
}

func TestReorderFaultStillConverges(t *testing.T) {
	c := newCausalCluster(3, 11)
	c.SetFaults(Faults{Reorder: true})
	objs := []model.ObjectID{"x"}
	c.RunRandom(WorkloadConfig{Objects: objs, Steps: 150})
	c.Quiesce()
	if err := c.CheckConverged(objs); err != nil {
		t.Fatal(err)
	}
}

func TestDeliverFromAndDeliverMsg(t *testing.T) {
	c := newCausalCluster(3, 1)
	c.Do(0, "x", model.Write("a"))
	id0, _ := c.Send(0)
	c.Do(1, "y", model.Write("b"))
	c.Send(1)
	if !c.DeliverFrom(2, 1) {
		t.Fatal("DeliverFrom failed")
	}
	if !c.DeliverMsg(2, id0) {
		t.Fatal("DeliverMsg failed")
	}
	if c.DeliverMsg(2, id0) {
		t.Fatal("message delivered twice via DeliverMsg")
	}
}

func TestDerivedAbstractIsCausalForCausalStore(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		c := newCausalCluster(3, seed)
		objs := []model.ObjectID{"x", "y", "z"}
		c.RunRandom(WorkloadConfig{Objects: objs, Steps: 120})
		c.Quiesce()
		a := c.DerivedAbstract()
		if err := consistency.CheckCausal(a, spec.MVRTypes()); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestDerivedAbstractEventuallyConsistentAfterQuiescence(t *testing.T) {
	c := newCausalCluster(3, 5)
	objs := []model.ObjectID{"x", "y"}
	c.RunRandom(WorkloadConfig{Objects: objs, Steps: 100})
	c.Quiesce()
	boundary := len(c.Execution().DoEvents())
	if err := c.CheckConverged(objs); err != nil {
		t.Fatal(err)
	}
	a := c.DerivedAbstract()
	if err := consistency.CheckConvergedSuffix(a, boundary); err != nil {
		t.Fatal(err)
	}
}

func TestDerivedAbstractLWWIsNotMVRCorrect(t *testing.T) {
	// Drive the LWW store into exposed hiding: with MVR typing its derived
	// abstract execution cannot be correct once concurrency was hidden.
	c := NewCluster(lww.New(spec.MVRTypes()), 2, 1)
	c.Do(0, "x", model.Write("a"))
	c.Do(1, "x", model.Write("b"))
	c.Send(0)
	c.Send(1)
	c.DeliverOne(0)
	c.DeliverOne(1)
	c.Do(0, "x", model.Read())
	c.Do(1, "x", model.Read())
	a := c.DerivedAbstract()
	if err := spec.CheckCorrect(a, spec.MVRTypes()); err == nil {
		t.Fatal("LWW store's derived execution should violate the MVR specification")
	}
}

func TestPropertyCheckersCleanForCausalStore(t *testing.T) {
	c := newCausalCluster(3, 2)
	c.RunRandom(WorkloadConfig{Objects: []model.ObjectID{"x"}, Steps: 100})
	c.Quiesce()
	if v := c.PropertyViolations(); len(v) != 0 {
		t.Fatalf("violations: %v", v)
	}
}

func TestPropertyCheckersFlagKBuffer(t *testing.T) {
	c := NewCluster(kbuffer.New(spec.MVRTypes(), 2), 2, 2)
	c.Do(0, "x", model.Write("a"))
	c.Send(0)
	c.DeliverOne(1)
	c.Do(1, "x", model.Read())
	found := false
	for _, v := range c.PropertyViolations() {
		if v.Property == "invisible reads" {
			found = true
		}
	}
	if !found {
		t.Fatal("K-buffer read went undetected")
	}
}

func TestWorkloadMixedTypes(t *testing.T) {
	types := spec.MVRTypes().
		With("s", spec.TypeORSet).
		With("c", spec.TypeCounter).
		With("r", spec.TypeRegister)
	cl := NewCluster(causal.New(types), 3, 13)
	objs := []model.ObjectID{"x", "s", "c", "r"}
	ops := cl.RunRandom(WorkloadConfig{Objects: objs, Steps: 300})
	if ops != 300 {
		t.Fatalf("ops = %d", ops)
	}
	cl.Quiesce()
	if err := cl.CheckConverged(objs); err != nil {
		t.Fatal(err)
	}
	if v := cl.PropertyViolations(); len(v) != 0 {
		t.Fatalf("violations: %v", v)
	}
}

func TestReadAllReturnsPerReplica(t *testing.T) {
	c := newCausalCluster(3, 1)
	c.Do(0, "x", model.Write("a"))
	resps := c.ReadAll("x")
	if len(resps) != 3 {
		t.Fatalf("%d responses", len(resps))
	}
	if len(resps[0].Values) != 1 || len(resps[1].Values) != 0 {
		t.Fatalf("responses = %v", resps)
	}
}

func TestConvergenceFailureReported(t *testing.T) {
	c := newCausalCluster(2, 1)
	c.Do(0, "x", model.Write("a"))
	// No propagation: replicas disagree.
	if err := c.CheckConverged([]model.ObjectID{"x"}); err == nil {
		t.Fatal("expected divergence report")
	}
}

func TestIsolatedReplicaInPartition(t *testing.T) {
	c := newCausalCluster(3, 1)
	c.Partition([]model.ReplicaID{0, 1}) // replica 2 in no group: isolated
	c.Do(0, "x", model.Write("a"))
	c.Send(0)
	if !c.DeliverOne(1) {
		t.Fatal("intra-group delivery failed")
	}
	if c.DeliverOne(2) {
		t.Fatal("isolated replica received a message")
	}
}

func TestAdversarialDeliveryStillCausal(t *testing.T) {
	// LIFO delivery maximizes dependency inversions; the causal store must
	// buffer through all of them and still produce a causally consistent
	// derived execution and converge.
	for seed := int64(0); seed < 6; seed++ {
		c := newCausalCluster(4, seed)
		c.SetFaults(Faults{Adversarial: true})
		objs := []model.ObjectID{"x", "y"}
		c.RunRandom(WorkloadConfig{Objects: objs, Steps: 200})
		c.Quiesce()
		if err := c.CheckConverged(objs); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := consistency.CheckCausal(c.DerivedAbstract(), spec.MVRTypes()); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestAdversarialDeliveryPicksNewest(t *testing.T) {
	c := newCausalCluster(2, 1)
	c.SetFaults(Faults{Adversarial: true})
	c.Do(0, "x", model.Write("a"))
	c.Send(0)
	c.Do(0, "y", model.Write("b"))
	c.Send(0)
	// The adversarial scheduler delivers the second (newest) message first;
	// the causal store applies it immediately (its deps are satisfied by the
	// first update being... in the same batch? No: separate sends). The
	// second message depends on the first write, so it must buffer.
	c.DeliverOne(1)
	if got := c.Do(1, "y", model.Read()); len(got.Values) != 0 {
		t.Fatalf("dependent update applied before its dependency: %s", got)
	}
	c.DeliverOne(1)
	if got := c.Do(1, "y", model.Read()); !got.Equal(model.ReadResponse([]model.Value{"b"})) {
		t.Fatalf("read = %s", got)
	}
}

// TestClusterWorkerReproducible pins the seed-splitting contract: a worker
// cluster is a pure function of (root, worker) — same inputs give an
// identical run, different workers give decorrelated ones, and the chosen
// stream is recorded on the cluster.
func TestClusterWorkerReproducible(t *testing.T) {
	runDigest := func(c *Cluster) string {
		c.RunRandom(WorkloadConfig{Objects: []model.ObjectID{"x", "y"}, Steps: 80})
		c.Quiesce()
		return fmt.Sprintf("%v", c.ReadAll("x"))
	}
	a := NewClusterWorker(causal.New(spec.MVRTypes()), 3, 42, 1)
	b := NewClusterWorker(causal.New(spec.MVRTypes()), 3, 42, 1)
	if a.Seed() != b.Seed() || runDigest(a) != runDigest(b) {
		t.Fatal("same (root, worker) must reproduce the same run")
	}
	other := NewClusterWorker(causal.New(spec.MVRTypes()), 3, 42, 2)
	if other.Seed() == a.Seed() {
		t.Fatal("different workers must draw different seed streams")
	}
	root := NewCluster(causal.New(spec.MVRTypes()), 3, 42)
	if root.Seed() != 42 {
		t.Fatalf("Seed() = %d, want the constructor seed 42", root.Seed())
	}
	if a.Seed() == 42 {
		t.Fatal("worker streams must not collide with the root seed")
	}
}

// matrix is the derivation this package used before it kept one past per do
// event, held as the reference: sees[j][i] says do event j saw the dot of do
// event i, probed dot by dot when j was recorded — O(|do|) Sees calls and
// bools per operation, which is why it lives here and not in sim.go.
type matrix struct {
	c    *Cluster
	sees [][]bool
}

func (m *matrix) observe(ev livecheck.Event) {
	if ev.Kind != model.ActDo {
		return
	}
	vr := m.c.replicas[ev.Node].(store.VisReporter)
	row := make([]bool, len(m.sees))
	for i, d := range m.c.doDots[:len(row)] {
		row[i] = d.Seq != 0 && vr.Sees(d)
	}
	m.sees = append(m.sees, row)
}

func (m *matrix) derive() *abstract.Execution {
	dots := m.c.doDots
	a := abstract.FromEvents(m.c.exec.DoEvents())
	for j := range a.H {
		for i := 0; i < j; i++ {
			vis := a.H[i].Replica == a.H[j].Replica || m.sees[j][i]
			if !vis && dots[i].Seq == 0 { // a read: its past contained in j's
				vis = true
				for k := 0; k < i; k++ {
					if m.sees[i][k] && !m.sees[j][k] {
						vis = false
					}
				}
			}
			if vis {
				a.AddVis(i, j)
			}
		}
	}
	return a
}

// TestPastMatchesMatrix pins the visibility record to the derivation it
// replaced: over every registered store and delivery discipline — FIFO,
// random, newest-first, lossy, duplicating, each under a generated fault
// schedule — the abstract execution derived from one past per do event is the
// matrix's, pair for pair. The stores whose visibility is not a per-origin
// prefix under reordering (gsp, lww) must also be seen to exercise beyond.
func TestPastMatchesMatrix(t *testing.T) {
	modes := map[string]Faults{
		"clean":           {},
		"reorder":         {Reorder: true},
		"adversarial":     {Adversarial: true},
		"drop+reorder":    {DropProb: 0.2, Reorder: true},
		"dup+adversarial": {DupProb: 0.3, Adversarial: true},
	}
	beyond := map[string]int{}
	for _, name := range store.Names() {
		for mode, faults := range modes {
			for seed := int64(0); seed < 6; seed++ {
				st, err := store.Open(name, spec.MVRTypes(), store.Options{})
				if err != nil {
					t.Fatal(err)
				}
				c := NewCluster(st, 3, seed)
				ref := &matrix{c: c}
				c.SetTap(ref.observe)
				c.SetFaults(faults)
				sched := fault.Generate(fault.Config{Seed: seed, N: 3, Steps: 120, Partitions: 1, Crashes: 1, LinkFaults: 2})
				c.RunScheduled(sched, WorkloadConfig{Objects: []model.ObjectID{"x", "y"}, Steps: 120})
				c.Quiesce()
				c.ReadAll("x")

				got, want := c.DerivedAbstract(), ref.derive()
				for j := range want.H {
					for i := 0; i < j; i++ {
						if got.Vis(i, j) != want.Vis(i, j) {
							t.Fatalf("%s/%s/seed %d: vis(%d,%d) = %v, the matrix derives %v\n%s -> %s",
								name, mode, seed, i, j, got.Vis(i, j), want.Vis(i, j), want.H[i], want.H[j])
						}
					}
				}
				for _, p := range c.pasts {
					beyond[name] += len(p.beyond)
				}
			}
		}
	}
	for _, name := range []string{"gsp", "lww"} {
		if beyond[name] == 0 {
			t.Errorf("%s never saw past a gap: the reordered runs do not exercise past.beyond", name)
		}
	}
}
