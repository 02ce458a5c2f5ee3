package causal

import (
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/store/storetest"
)

// variants are the encodings the Options loops of this package run: dense
// clocks and batched messages (the registered store), sparse clocks, and one
// message per update.
var variants = []Options{{}, {SparseDeps: true}, {PerUpdateMessages: true}}

func newPair(t *testing.T, opts Options) (*Replica, *Replica) {
	t.Helper()
	st := NewWithOptions(spec.MVRTypes(), opts)
	r0, ok0 := st.NewReplica(0, 2).(*Replica)
	r1, ok1 := st.NewReplica(1, 2).(*Replica)
	if !ok0 || !ok1 {
		t.Fatal("causal store returned unexpected replica type")
	}
	return r0, r1
}

// relay broadcasts r's pending message into the peers.
func relay(t *testing.T, from *Replica, to ...*Replica) []byte {
	t.Helper()
	payload := storetest.Send(from)
	if payload == nil {
		t.Fatal("expected a pending message")
	}
	for _, r := range to {
		r.Receive(payload)
	}
	return payload
}

func TestLocalWriteImmediatelyVisible(t *testing.T) {
	r0, _ := newPair(t, Options{})
	if got := r0.Do("x", model.Write("a")); !got.OK {
		t.Fatalf("write returned %s", got)
	}
	got := r0.Do("x", model.Read())
	if want := model.ReadResponse([]model.Value{"a"}); !got.Equal(want) {
		t.Fatalf("read = %s, want %s", got, want)
	}
}

func TestReadOfUnwrittenObjectIsEmpty(t *testing.T) {
	r0, _ := newPair(t, Options{})
	if got := r0.Do("x", model.Read()); len(got.Values) != 0 {
		t.Fatalf("read of fresh object = %s, want {}", got)
	}
}

func TestRemoteWritePropagates(t *testing.T) {
	r0, r1 := newPair(t, Options{})
	r0.Do("x", model.Write("a"))
	relay(t, r0, r1)
	got := r1.Do("x", model.Read())
	if want := model.ReadResponse([]model.Value{"a"}); !got.Equal(want) {
		t.Fatalf("remote read = %s, want %s", got, want)
	}
}

func TestConcurrentWritesSurfaceAsSiblings(t *testing.T) {
	r0, r1 := newPair(t, Options{})
	r0.Do("x", model.Write("a"))
	r1.Do("x", model.Write("b"))
	p0 := storetest.Send(r0)
	p1 := storetest.Send(r1)
	r0.Receive(p1)
	r1.Receive(p0)
	want := model.ReadResponse([]model.Value{"a", "b"})
	if got := r0.Do("x", model.Read()); !got.Equal(want) {
		t.Fatalf("r0 read = %s, want %s", got, want)
	}
	if got := r1.Do("x", model.Read()); !got.Equal(want) {
		t.Fatalf("r1 read = %s, want %s", got, want)
	}
}

func TestCausalOverwriteCollapsesSiblings(t *testing.T) {
	r0, r1 := newPair(t, Options{})
	r0.Do("x", model.Write("a"))
	relay(t, r0, r1)
	r1.Do("x", model.Write("b")) // causally after a
	relay(t, r1, r0)
	want := model.ReadResponse([]model.Value{"b"})
	if got := r0.Do("x", model.Read()); !got.Equal(want) {
		t.Fatalf("r0 read = %s, want %s", got, want)
	}
}

func TestCausalBufferingHoldsOutOfOrderUpdate(t *testing.T) {
	st := New(spec.MVRTypes())
	r0 := st.NewReplica(0, 3).(*Replica)
	r1 := st.NewReplica(1, 3).(*Replica)
	r2 := st.NewReplica(2, 3).(*Replica)

	r0.Do("x", model.Write("a"))
	pa := storetest.Send(r0)
	r1.Receive(pa)
	r1.Do("y", model.Write("b")) // depends on a
	pb := storetest.Send(r1)

	// r2 receives b before a: it must buffer b, exposing neither y=b without
	// its dependency nor a stale view afterwards.
	r2.Receive(pb)
	if got := r2.Do("y", model.Read()); len(got.Values) != 0 {
		t.Fatalf("y visible before its dependency: %s", got)
	}
	if r2.BufferedUpdates() != 1 {
		t.Fatalf("buffered = %d, want 1", r2.BufferedUpdates())
	}
	r2.Receive(pa)
	if got, want := r2.Do("y", model.Read()), model.ReadResponse([]model.Value{"b"}); !got.Equal(want) {
		t.Fatalf("y after both deliveries = %s, want %s", got, want)
	}
	if got, want := r2.Do("x", model.Read()), model.ReadResponse([]model.Value{"a"}); !got.Equal(want) {
		t.Fatalf("x after both deliveries = %s, want %s", got, want)
	}
	if r2.BufferedUpdates() != 0 {
		t.Fatalf("buffer not drained: %d", r2.BufferedUpdates())
	}
}

// TestWaitingUpdateOwnsItsClock: an update ready as decoded borrows its
// clock from the receive scratch, which the next Receive reuses, so one that
// must wait takes a clock of its own. r1 overwrites r0's x=v with x=w, and r2
// gets w first; r3's writes to z, which see neither, then pass through r2's
// scratch, and v arrives last. w must wait for v and then apply over it with
// the deps it was sent: x reads {w} and r2 ends where r1 is. (Had w kept the
// scratch, r3's first clock, which does not see v, would have released it.)
func TestWaitingUpdateOwnsItsClock(t *testing.T) {
	for _, opts := range variants {
		st := NewWithOptions(spec.MVRTypes(), opts)
		var rs [4]*Replica
		for i := range rs {
			rs[i] = st.NewReplica(model.ReplicaID(i), len(rs)).(*Replica)
		}
		rs[0].Do("x", model.Write("v"))
		pv := relay(t, rs[0], rs[1])
		rs[1].Do("x", model.Write("w"))
		relay(t, rs[1], rs[2])
		for _, z := range []model.Value{"z1", "z2", "z3"} {
			rs[3].Do("z", model.Write(z))
			relay(t, rs[3], rs[1], rs[2])
			if got := rs[2].Do("x", model.Read()); rs[2].BufferedUpdates() != 1 || len(got.Values) != 0 {
				t.Fatalf("%+v: after r3's %s, r2 buffers %d updates and reads x = %s; w must wait for v", opts, z, rs[2].BufferedUpdates(), got)
			}
		}
		rs[2].Receive(pv)
		if got, want := rs[2].Do("x", model.Read()), model.ReadResponse([]model.Value{"w"}); !got.Equal(want) {
			t.Fatalf("%+v: r2 reads x = %s once v arrived, want %s", opts, got, want)
		}
		if a, b := rs[1].StateDigest(), rs[2].StateDigest(); a != b {
			t.Fatalf("%+v: digests diverged:\nr1:\n%s\nr2:\n%s", opts, a, b)
		}
	}
}

func TestDuplicateDeliveryIsIdempotent(t *testing.T) {
	for _, opts := range variants {
		r0, r1 := newPair(t, opts)
		r0.Do("x", model.Write("a"))
		payload := relay(t, r0, r1)
		before := r1.StateDigest()
		r1.Receive(payload)
		r1.Receive(payload)
		if after := r1.StateDigest(); after != before {
			t.Fatalf("%+v: duplicate delivery changed state:\nbefore:\n%s\nafter:\n%s", opts, before, after)
		}
	}
}

func TestReadsAreInvisible(t *testing.T) {
	for _, opts := range variants {
		r0, r1 := newPair(t, opts)
		r0.Do("x", model.Write("a"))
		relay(t, r0, r1)
		before := r1.StateDigest()
		r1.Do("x", model.Read())
		r1.Do("nope", model.Read())
		if after := r1.StateDigest(); after != before {
			t.Fatalf("%+v: read changed replica state (Definition 16 violated)", opts)
		}
	}
}

func TestOpDrivenMessages(t *testing.T) {
	for _, opts := range variants {
		r0, r1 := newPair(t, opts)
		if r0.PendingMessage() != nil {
			t.Fatalf("%+v: message pending in initial state (Definition 15 violated)", opts)
		}
		r0.Do("x", model.Write("a"))
		payload := storetest.Send(r0)
		if payload == nil {
			t.Fatalf("%+v: no message pending after a write", opts)
		}
		if r0.PendingMessage() != nil {
			t.Fatalf("%+v: message still pending after send", opts)
		}
		r1.Receive(payload)
		if r1.PendingMessage() != nil {
			t.Fatalf("%+v: receive created a pending message (Definition 15 violated)", opts)
		}
	}
}

func TestOutboxBatchesMultipleWrites(t *testing.T) {
	r0, r1 := newPair(t, Options{})
	r0.Do("x", model.Write("a"))
	r0.Do("y", model.Write("b"))
	r0.Do("z", model.Write("c"))
	relay(t, r0, r1)
	for _, tc := range []struct {
		obj  model.ObjectID
		want model.Value
	}{{"x", "a"}, {"y", "b"}, {"z", "c"}} {
		if got := r1.Do(tc.obj, model.Read()); !got.Equal(model.ReadResponse([]model.Value{tc.want})) {
			t.Fatalf("read %s = %s, want {%s}", tc.obj, got, tc.want)
		}
	}
}

// TestPerUpdateMessagesOption: with per-update messages a send relays the
// oldest queued update alone, so two writes take exactly two sends; and the
// variant still converges at quiescence through partitions, a crash, link
// faults and duplicated, reordered deliveries, as the battery's convergence
// subtests ask of the batched one.
func TestPerUpdateMessagesOption(t *testing.T) {
	st := NewWithOptions(spec.MVRTypes(), Options{PerUpdateMessages: true})
	r0 := st.NewReplica(0, 2).(*Replica)
	r1 := st.NewReplica(1, 2).(*Replica)
	r0.Do("x", model.Write("a"))
	r0.Do("y", model.Write("b"))
	count := 0
	for r0.PendingMessage() != nil {
		p := storetest.Send(r0)
		r1.Receive(p)
		count++
		if count > 10 {
			t.Fatal("per-update send never drained")
		}
	}
	if count != 2 {
		t.Fatalf("sent %d messages, want 2", count)
	}
	if got := r1.Do("y", model.Read()); !got.Equal(model.ReadResponse([]model.Value{"b"})) {
		t.Fatalf("read y = %s", got)
	}
	objs := []model.ObjectID{"x", "y", "z"}
	for seed := int64(0); seed < 4; seed++ {
		c := sim.NewCluster(st, 3, seed)
		c.SetFaults(sim.Faults{DupProb: 0.2, Reorder: true})
		sched := fault.Generate(fault.Config{Seed: seed, N: 3, Steps: 150, Partitions: 2, Crashes: 1, LinkFaults: 3})
		c.RunScheduled(sched, sim.WorkloadConfig{Objects: objs, Steps: 150})
		c.Quiesce()
		if err := c.CheckConverged(objs); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestSparseDepsRoundTrip(t *testing.T) {
	st := NewWithOptions(spec.MVRTypes(), Options{SparseDeps: true})
	r0 := st.NewReplica(0, 8).(*Replica)
	r1 := st.NewReplica(1, 8).(*Replica)
	r0.Do("x", model.Write("a"))
	p := storetest.Send(r0)
	r1.Receive(p)
	if got := r1.Do("x", model.Read()); !got.Equal(model.ReadResponse([]model.Value{"a"})) {
		t.Fatalf("sparse read = %s", got)
	}
}

func TestLWWRegisterConvergesToLatest(t *testing.T) {
	types := spec.Types{DefaultType: spec.TypeRegister}
	st := New(types)
	r0 := st.NewReplica(0, 2).(*Replica)
	r1 := st.NewReplica(1, 2).(*Replica)
	r0.Do("reg", model.Write("a"))
	r1.Do("reg", model.Write("b"))
	p0 := storetest.Send(r0)
	p1 := storetest.Send(r1)
	r0.Receive(p1)
	r1.Receive(p0)
	g0 := r0.Do("reg", model.Read())
	g1 := r1.Do("reg", model.Read())
	if !g0.Equal(g1) {
		t.Fatalf("register diverged: %s vs %s", g0, g1)
	}
	if len(g0.Values) != 1 {
		t.Fatalf("register read = %s, want a single value", g0)
	}
}

// TestRegisterStampsStayCausal: only register writes carry a stamp, so the
// one that orders a later register write after an earlier one must reach its
// writer through whatever carried the causality — here an MVR write, which
// carries none. r0 writes register R twice (stamps 1 and 2); r1 applies
// that, then writes MVR x; r2 gets x first and must buffer it until R's
// writes arrive; r2 then writes R. r2's write happened after r0's, so every
// replica must read it — a stamp r2 had not learned would lose to r0's 2 —
// and the replicas end in one state.
func TestRegisterStampsStayCausal(t *testing.T) {
	types := spec.Types{DefaultType: spec.TypeMVR, ByObject: map[model.ObjectID]spec.ObjectType{"R": spec.TypeRegister}}
	c := sim.NewCluster(New(types), 3, 1)
	c.Do(0, "R", model.Write("r0-first"))
	c.Do(0, "R", model.Write("r0"))
	mR, _ := c.Send(0)
	c.DeliverMsg(1, mR)
	c.Do(1, "x", model.Write("x1"))
	mx, _ := c.Send(1)
	c.DeliverMsg(2, mx)
	r2 := c.Replica(2).(*Replica)
	if r2.BufferedUpdates() != 1 {
		t.Fatalf("r2 buffers %d updates before R's writes arrive, want x alone", r2.BufferedUpdates())
	}
	c.DeliverMsg(2, mR)
	if got, want := c.Do(2, "x", model.Read()), model.ReadResponse([]model.Value{"x1"}); !got.Equal(want) {
		t.Fatalf("r2 reads x = %s after R's writes arrived, want %s", got, want)
	}
	c.Do(2, "R", model.Write("r2"))
	c.Quiesce()
	want := model.ReadResponse([]model.Value{"r2"})
	for i, got := range c.ReadAll("R") {
		if !got.Equal(want) {
			t.Errorf("r%d reads R = %s, want %s", i, got, want)
		}
	}
	for i := 1; i < c.N(); i++ {
		if a, b := c.Replica(0).StateDigest(), c.Replica(model.ReplicaID(i)).StateDigest(); a != b {
			t.Errorf("digests diverged at quiescence:\nr0:\n%s\nr%d:\n%s", a, i, b)
		}
	}
}

// TestMVROnlyRunHasNoStamps: no MVR write carries a stamp, so on an
// MVR-only store the Lamport clock never leaves 0, under reordered and
// duplicated delivery alike.
func TestMVROnlyRunHasNoStamps(t *testing.T) {
	c := sim.NewCluster(New(spec.MVRTypes()), 3, 7)
	c.SetFaults(sim.Faults{DupProb: 0.2, Reorder: true})
	c.RunRandom(sim.WorkloadConfig{Objects: []model.ObjectID{"x", "y", "z"}, Steps: 200})
	c.Quiesce()
	for i := 0; i < c.N(); i++ {
		if d := c.Replica(model.ReplicaID(i)).StateDigest(); !strings.Contains(d, " lamport=0\n") {
			t.Errorf("r%d digest:\n%s\nwant lamport=0", i, d)
		}
	}
}

func TestORSetAddWins(t *testing.T) {
	types := spec.Types{DefaultType: spec.TypeORSet}
	st := New(types)
	r0 := st.NewReplica(0, 2).(*Replica)
	r1 := st.NewReplica(1, 2).(*Replica)

	r0.Do("s", model.Add("e"))
	p := storetest.Send(r0)
	r1.Receive(p)

	// Concurrently: r1 removes the observed add while r0 re-adds.
	r1.Do("s", model.Remove("e"))
	r0.Do("s", model.Add("e"))
	p1 := storetest.Send(r1)
	p0 := storetest.Send(r0)
	r0.Receive(p1)
	r1.Receive(p0)

	want := model.ReadResponse([]model.Value{"e"}) // the concurrent add wins
	if got := r0.Do("s", model.Read()); !got.Equal(want) {
		t.Fatalf("r0 set = %s, want %s", got, want)
	}
	if got := r1.Do("s", model.Read()); !got.Equal(want) {
		t.Fatalf("r1 set = %s, want %s", got, want)
	}
}

func TestORSetRemoveObservedAdd(t *testing.T) {
	types := spec.Types{DefaultType: spec.TypeORSet}
	st := New(types)
	r0 := st.NewReplica(0, 2).(*Replica)
	r1 := st.NewReplica(1, 2).(*Replica)
	r0.Do("s", model.Add("e"))
	p := storetest.Send(r0)
	r1.Receive(p)
	r1.Do("s", model.Remove("e"))
	p1 := storetest.Send(r1)
	r0.Receive(p1)
	if got := r0.Do("s", model.Read()); len(got.Values) != 0 {
		t.Fatalf("observed remove did not remove: %s", got)
	}
}

func TestCounterSumsDeltas(t *testing.T) {
	types := spec.Types{DefaultType: spec.TypeCounter}
	st := New(types)
	r0 := st.NewReplica(0, 2).(*Replica)
	r1 := st.NewReplica(1, 2).(*Replica)
	r0.Do("c", model.Inc(5))
	r1.Do("c", model.Inc(-2))
	p0 := storetest.Send(r0)
	p1 := storetest.Send(r1)
	r0.Receive(p1)
	r1.Receive(p0)
	want := model.CountResponse(3)
	if got := r0.Do("c", model.Read()); !got.Equal(want) {
		t.Fatalf("r0 counter = %s, want %s", got, want)
	}
	if got := r1.Do("c", model.Read()); !got.Equal(want) {
		t.Fatalf("r1 counter = %s, want %s", got, want)
	}
}

func TestCorruptPayloadIgnored(t *testing.T) {
	_, r1 := newPair(t, Options{})
	before := r1.StateDigest()
	r1.Receive([]byte{0xff, 0xff, 0xff})
	if r1.StateDigest() != before {
		t.Fatal("corrupt payload changed state")
	}
}

func TestStateDigestMentionsObjects(t *testing.T) {
	r0, _ := newPair(t, Options{})
	r0.Do("x", model.Write("a"))
	if d := r0.StateDigest(); !strings.Contains(d, "obj x") {
		t.Fatalf("digest missing object state:\n%s", d)
	}
}

func TestStoreNameReflectsOptions(t *testing.T) {
	if got := NewWithOptions(spec.MVRTypes(), Options{SparseDeps: true}).Name(); got != "causal+sparse" {
		t.Fatalf("name = %q", got)
	}
	if got := New(spec.MVRTypes()).Name(); got != "causal" {
		t.Fatalf("name = %q", got)
	}
}

func TestVisReporterTracksApplication(t *testing.T) {
	r0, r1 := newPair(t, Options{})
	r0.Do("x", model.Write("a"))
	dot, ok := r0.LastDot()
	if !ok || dot != (model.Dot{Origin: 0, Seq: 1}) {
		t.Fatalf("LastDot = %v, %v", dot, ok)
	}
	if r1.Sees(dot) {
		t.Fatal("r1 sees the write before delivery")
	}
	relay(t, r0, r1)
	if !r1.Sees(dot) {
		t.Fatal("r1 does not see the write after delivery")
	}
}
