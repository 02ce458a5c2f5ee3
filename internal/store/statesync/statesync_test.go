package statesync

import (
	"fmt"
	"testing"

	"repro/internal/consistency"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/store/causal"
	"repro/internal/store/storetest"
)

func pair(t *testing.T, types spec.Types) (*Replica, *Replica) {
	t.Helper()
	st := New(types)
	r0, ok0 := st.NewReplica(0, 2).(*Replica)
	r1, ok1 := st.NewReplica(1, 2).(*Replica)
	if !ok0 || !ok1 {
		t.Fatal("unexpected replica type")
	}
	return r0, r1
}

func sync(t *testing.T, from, to *Replica) {
	t.Helper()
	payload := storetest.Send(from)
	if payload == nil {
		t.Fatal("expected a pending state")
	}
	to.Receive(payload)
}

func TestWriteReadBack(t *testing.T) {
	r0, _ := pair(t, spec.MVRTypes())
	r0.Do("x", model.Write("a"))
	if got := r0.Do("x", model.Read()); !got.Equal(model.ReadResponse([]model.Value{"a"})) {
		t.Fatalf("read = %s", got)
	}
}

func TestStatePropagates(t *testing.T) {
	r0, r1 := pair(t, spec.MVRTypes())
	r0.Do("x", model.Write("a"))
	r0.Do("y", model.Write("b"))
	sync(t, r0, r1)
	if got := r1.Do("y", model.Read()); !got.Equal(model.ReadResponse([]model.Value{"b"})) {
		t.Fatalf("read = %s", got)
	}
}

func TestConcurrentMVRSiblings(t *testing.T) {
	r0, r1 := pair(t, spec.MVRTypes())
	r0.Do("x", model.Write("a"))
	r1.Do("x", model.Write("b"))
	p0 := storetest.Send(r0)
	p1 := storetest.Send(r1)
	r0.Receive(p1)
	r1.Receive(p0)
	want := model.ReadResponse([]model.Value{"a", "b"})
	if got := r0.Do("x", model.Read()); !got.Equal(want) {
		t.Fatalf("r0 = %s", got)
	}
	if got := r1.Do("x", model.Read()); !got.Equal(want) {
		t.Fatalf("r1 = %s", got)
	}
}

func TestCausalOverwriteCollapses(t *testing.T) {
	r0, r1 := pair(t, spec.MVRTypes())
	r0.Do("x", model.Write("a"))
	sync(t, r0, r1)
	r1.Do("x", model.Write("b"))
	sync(t, r1, r0)
	if got := r0.Do("x", model.Read()); !got.Equal(model.ReadResponse([]model.Value{"b"})) {
		t.Fatalf("read = %s", got)
	}
}

func TestJoinIsIdempotent(t *testing.T) {
	r0, r1 := pair(t, spec.MVRTypes())
	r0.Do("x", model.Write("a"))
	payload := storetest.Send(r0)
	r1.Receive(payload)
	before := r1.StateDigest()
	r1.Receive(payload)
	r1.Receive(payload)
	if r1.StateDigest() != before {
		t.Fatal("join not idempotent")
	}
}

func TestDropRecovery(t *testing.T) {
	// The defining property: a LOST state message is subsumed by any later
	// one.
	r0, r1 := pair(t, spec.MVRTypes())
	r0.Do("x", model.Write("a"))
	_ = r0.PendingMessage() // dropped on the floor
	r0.OnSend()
	r0.Do("y", model.Write("b"))
	sync(t, r0, r1) // only the later message arrives
	if got := r1.Do("x", model.Read()); !got.Equal(model.ReadResponse([]model.Value{"a"})) {
		t.Fatalf("earlier write lost despite later state message: %s", got)
	}
}

func TestORSetObservedRemoveSticksAcrossJoins(t *testing.T) {
	types := spec.Types{DefaultType: spec.TypeORSet}
	r0, r1 := pair(t, types)
	r0.Do("s", model.Add("e"))
	sync(t, r0, r1)
	r1.Do("s", model.Remove("e"))
	sync(t, r1, r0)
	if got := r0.Do("s", model.Read()); len(got.Values) != 0 {
		t.Fatalf("removed element resurrected: %s", got)
	}
	// The stale adder's next state must not resurrect the element either.
	r0.Do("other", model.Add("z"))
	sync(t, r0, r1)
	if got := r1.Do("s", model.Read()); len(got.Values) != 0 {
		t.Fatalf("stale state resurrected the element: %s", got)
	}
}

func TestORSetConcurrentAddWins(t *testing.T) {
	types := spec.Types{DefaultType: spec.TypeORSet}
	r0, r1 := pair(t, types)
	r0.Do("s", model.Add("e"))
	sync(t, r0, r1)
	r1.Do("s", model.Remove("e"))
	r0.Do("s", model.Add("e")) // concurrent re-add
	p0 := storetest.Send(r0)
	p1 := storetest.Send(r1)
	r0.Receive(p1)
	r1.Receive(p0)
	want := model.ReadResponse([]model.Value{"e"})
	if got := r0.Do("s", model.Read()); !got.Equal(want) {
		t.Fatalf("r0 = %s", got)
	}
	if got := r1.Do("s", model.Read()); !got.Equal(want) {
		t.Fatalf("r1 = %s", got)
	}
}

func TestCounterJoin(t *testing.T) {
	types := spec.Types{DefaultType: spec.TypeCounter}
	r0, r1 := pair(t, types)
	r0.Do("c", model.Inc(5))
	r0.Do("c", model.Inc(-1))
	r1.Do("c", model.Inc(-2))
	p0 := storetest.Send(r0)
	p1 := storetest.Send(r1)
	r0.Receive(p1)
	r1.Receive(p0)
	want := model.CountResponse(2)
	if got := r0.Do("c", model.Read()); !got.Equal(want) {
		t.Fatalf("r0 = %s", got)
	}
	if got := r1.Do("c", model.Read()); !got.Equal(want) {
		t.Fatalf("r1 = %s", got)
	}
}

func TestRegisterLWWJoin(t *testing.T) {
	types := spec.Types{DefaultType: spec.TypeRegister}
	r0, r1 := pair(t, types)
	r0.Do("reg", model.Write("a"))
	r1.Do("reg", model.Write("b"))
	p0 := storetest.Send(r0)
	p1 := storetest.Send(r1)
	r0.Receive(p1)
	r1.Receive(p0)
	g0 := r0.Do("reg", model.Read())
	g1 := r1.Do("reg", model.Read())
	if !g0.Equal(g1) || len(g0.Values) != 1 {
		t.Fatalf("register diverged: %s vs %s", g0, g1)
	}
}

func TestInvisibleReadsAndOpDriven(t *testing.T) {
	r0, r1 := pair(t, spec.MVRTypes())
	if r0.PendingMessage() != nil {
		t.Fatal("initial pending state")
	}
	r0.Do("x", model.Write("a"))
	sync(t, r0, r1)
	if r1.PendingMessage() != nil {
		t.Fatal("receive created a pending state (Definition 15 violated)")
	}
	before := r1.StateDigest()
	r1.Do("x", model.Read())
	r1.Do("nothere", model.Read())
	if r1.StateDigest() != before {
		t.Fatal("read changed state (Definition 16 violated)")
	}
}

func TestConvergesUnderHeavyDrops(t *testing.T) {
	// The op-based causal store cannot converge past dropped updates; the
	// state-based store reconverges from any later message. After the lossy
	// phase each replica mutates once more and broadcasts loss-free.
	runLossy := func(st interface {
		Name() string
	}, cluster *sim.Cluster, objs []model.ObjectID) error {
		cluster.SetFaults(sim.Faults{DropProb: 0.7})
		cluster.RunRandom(sim.WorkloadConfig{Objects: objs, Steps: 120, MutateRatio: 0.8})
		cluster.SetFaults(sim.Faults{})
		for r := 0; r < cluster.N(); r++ {
			cluster.Do(model.ReplicaID(r), objs[0], model.Write(model.Value("final-"+st.Name()+string(rune('0'+r)))))
		}
		cluster.Quiesce()
		return cluster.CheckConverged(objs)
	}

	objs := []model.ObjectID{"x", "y"}
	ss := New(spec.MVRTypes())
	if err := runLossy(ss, sim.NewCluster(ss, 3, 5), objs); err != nil {
		t.Fatalf("statesync failed to reconverge: %v", err)
	}

	cs := causal.New(spec.MVRTypes())
	err := runLossy(cs, sim.NewCluster(cs, 3, 5), objs)
	if err == nil {
		t.Log("op-based store happened to converge despite drops (all lost updates were to the final-write object)")
	} else {
		t.Logf("op-based store diverged as expected: %v", err)
	}
}

func TestDerivedAbstractCausal(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		c := sim.NewCluster(New(spec.MVRTypes()), 3, seed)
		objs := []model.ObjectID{"x", "y"}
		c.RunRandom(sim.WorkloadConfig{Objects: objs, Steps: 100})
		c.Quiesce()
		if err := c.CheckConverged(objs); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		a := c.DerivedAbstract()
		if err := consistency.CheckCausal(a, spec.MVRTypes()); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if v := c.PropertyViolations(); len(v) != 0 {
			t.Fatalf("seed %d: %v", seed, v)
		}
	}
}

func TestCorruptPayloadIgnored(t *testing.T) {
	_, r1 := pair(t, spec.MVRTypes())
	before := r1.StateDigest()
	r1.Receive([]byte{0xff, 0xff, 0x03})
	if r1.StateDigest() != before {
		t.Fatal("corrupt payload changed state")
	}
}

func TestMessageSizeGrowsWithState(t *testing.T) {
	r0, _ := pair(t, spec.MVRTypes())
	r0.Do("x", model.Write("a"))
	small := len(r0.PendingMessage())
	r0.OnSend()
	for i := 0; i < 50; i++ {
		r0.Do(model.ObjectID(fmt.Sprintf("obj%d", i)), model.Write(model.Value(fmt.Sprintf("v%d", i))))
	}
	large := len(r0.PendingMessage())
	if large <= small*3 {
		t.Fatalf("full-state message did not grow: %d vs %d bytes", small, large)
	}
}

// TestStateDigestIsDirtyFlagPlusEncoding pins the digest's layout: the dirty
// flag on its own line, then the canonical state encoding — the bytes a
// dirty replica broadcasts.
func TestStateDigestIsDirtyFlagPlusEncoding(t *testing.T) {
	r0, _ := pair(t, spec.MVRTypes())
	r0.Do("x", model.Write("a"))
	payload := string(r0.PendingMessage()) // kept past OnSend, so copied
	if got, want := r0.StateDigest(), "dirty=true\n"+payload; got != want {
		t.Fatalf("dirty digest = %q, want %q", got, want)
	}
	r0.OnSend()
	if got, want := r0.StateDigest(), "dirty=false\n"+payload; got != want {
		t.Fatalf("clean digest = %q, want %q", got, want)
	}
}
