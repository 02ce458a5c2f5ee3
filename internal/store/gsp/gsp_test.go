package gsp

import (
	"encoding/binary"
	"runtime"
	"testing"

	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/store/causal"
	"repro/internal/store/storetest"
)

func trio(t *testing.T) (*Replica, *Replica, *Replica) {
	t.Helper()
	st := New(spec.MVRTypes())
	r0, ok0 := st.NewReplica(0, 3).(*Replica) // sequencer
	r1, ok1 := st.NewReplica(1, 3).(*Replica)
	r2, ok2 := st.NewReplica(2, 3).(*Replica)
	if !ok0 || !ok1 || !ok2 {
		t.Fatal("unexpected replica type")
	}
	return r0, r1, r2
}

// pump broadcasts every pending message and delivers to all peers until no
// replica has anything to send.
func pump(replicas ...*Replica) {
	for {
		sent := false
		for _, from := range replicas {
			payload := storetest.Send(from)
			if payload == nil {
				continue
			}
			sent = true
			for _, to := range replicas {
				if to != from {
					to.Receive(payload)
				}
			}
		}
		if !sent {
			return
		}
	}
}

func TestReadYourWritesBeforeConfirmation(t *testing.T) {
	_, r1, _ := trio(t)
	r1.Do("x", model.Write("a"))
	if got := r1.Do("x", model.Read()); !got.Equal(model.ReadResponse([]model.Value{"a"})) {
		t.Fatalf("pending write invisible locally: %s", got)
	}
}

func TestSequencerOrdersAllWrites(t *testing.T) {
	r0, r1, r2 := trio(t)
	r1.Do("x", model.Write("a"))
	r2.Do("x", model.Write("b"))
	pump(r0, r1, r2)
	l0, l1, l2 := r0.Log(), r1.Log(), r2.Log()
	if len(l0) != 2 || len(l1) != 2 || len(l2) != 2 {
		t.Fatalf("logs: %v %v %v", l0, l1, l2)
	}
	for i := range l0 {
		if l0[i] != l1[i] || l0[i] != l2[i] {
			t.Fatalf("confirmed orders differ: %v %v %v", l0, l1, l2)
		}
	}
	// Everyone converges to the same single value — no exposed concurrency.
	g0 := r0.Do("x", model.Read())
	g1 := r1.Do("x", model.Read())
	g2 := r2.Do("x", model.Read())
	if !g0.Equal(g1) || !g0.Equal(g2) || len(g0.Values) != 1 {
		t.Fatalf("reads: %s %s %s", g0, g1, g2)
	}
}

func TestSequencerOwnWritesCommitImmediately(t *testing.T) {
	r0, _, _ := trio(t)
	r0.Do("x", model.Write("a"))
	if len(r0.Log()) != 1 {
		t.Fatalf("log = %v", r0.Log())
	}
	if got := r0.Do("x", model.Read()); !got.Equal(model.ReadResponse([]model.Value{"a"})) {
		t.Fatalf("read = %s", got)
	}
}

func TestCommitsApplyInOrderWithBuffering(t *testing.T) {
	r0, r1, _ := trio(t)
	r0.Do("x", model.Write("a"))
	c1 := storetest.Send(r0)
	r0.Do("x", model.Write("b"))
	c2 := storetest.Send(r0)
	// Deliver out of order: the second commit must buffer.
	r1.Receive(c2)
	if len(r1.Log()) != 0 {
		t.Fatalf("out-of-order commit applied: %v", r1.Log())
	}
	if got := r1.Do("x", model.Read()); len(got.Values) != 0 {
		t.Fatalf("read exposed buffered commit: %s", got)
	}
	r1.Receive(c1)
	if len(r1.Log()) != 2 {
		t.Fatalf("drain failed: %v", r1.Log())
	}
	if got := r1.Do("x", model.Read()); !got.Equal(model.ReadResponse([]model.Value{"b"})) {
		t.Fatalf("read = %s", got)
	}
}

func TestDuplicateProposalSequencedOnce(t *testing.T) {
	r0, r1, _ := trio(t)
	r1.Do("x", model.Write("a"))
	p := storetest.Send(r1)
	r0.Receive(p)
	r0.OnSend() // discard the commit broadcast
	r0.Receive(p)
	if len(r0.Log()) != 1 {
		t.Fatalf("duplicate proposal sequenced twice: %v", r0.Log())
	}
}

func TestDuplicateCommitIgnored(t *testing.T) {
	r0, r1, _ := trio(t)
	r0.Do("x", model.Write("a"))
	c := storetest.Send(r0)
	r1.Receive(c)
	before := r1.StateDigest()
	r1.Receive(c)
	if r1.StateDigest() != before {
		t.Fatal("duplicate commit changed state")
	}
}

func TestViolatesOpDrivenMessagesAtSequencer(t *testing.T) {
	// The defining Definition 15 violation: receiving a proposal creates a
	// pending commit at the sequencer.
	c := sim.NewCluster(New(spec.MVRTypes()), 3, 1)
	c.Do(1, "x", model.Write("a"))
	c.Send(1)
	c.DeliverOne(0) // sequencer receives the proposal
	found := false
	for _, v := range c.PropertyViolations() {
		if v.Property == "op-driven messages" && v.Replica == 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("GSP's op-driven-messages violation went undetected")
	}
}

func TestReadsRemainInvisible(t *testing.T) {
	r0, r1, r2 := trio(t)
	r1.Do("x", model.Write("a"))
	pump(r0, r1, r2)
	before := r2.StateDigest()
	r2.Do("x", model.Read())
	r2.Do("other", model.Read())
	if r2.StateDigest() != before {
		t.Fatal("GSP read changed state")
	}
}

func TestCounterThroughGlobalSequence(t *testing.T) {
	types := spec.Types{DefaultType: spec.TypeCounter}
	st := New(types)
	r0 := st.NewReplica(0, 2).(*Replica)
	r1 := st.NewReplica(1, 2).(*Replica)
	r0.Do("c", model.Inc(5))
	r1.Do("c", model.Inc(-2))
	pump(r0, r1)
	want := model.CountResponse(3)
	if got := r0.Do("c", model.Read()); !got.Equal(want) {
		t.Fatalf("r0 counter = %s", got)
	}
	if got := r1.Do("c", model.Read()); !got.Equal(want) {
		t.Fatalf("r1 counter = %s", got)
	}
}

func TestUnsupportedOperationRejected(t *testing.T) {
	_, r1, _ := trio(t)
	if got := r1.Do("s", model.Add("e")); got.OK {
		t.Fatal("GSP should not acknowledge set operations")
	}
}

func TestPrefixAgreementUnderRandomWorkload(t *testing.T) {
	c := sim.NewCluster(New(spec.MVRTypes()), 4, 17)
	objs := []model.ObjectID{"x", "y"}
	c.RunRandom(sim.WorkloadConfig{Objects: objs, Steps: 300})
	c.Quiesce()
	if err := c.CheckConverged(objs); err != nil {
		t.Fatal(err)
	}
	// Confirmed logs agree exactly after quiescence.
	base, ok := c.Replica(0).(*Replica)
	if !ok {
		t.Fatal("unexpected replica type")
	}
	for r := 1; r < c.N(); r++ {
		rep := c.Replica(model.ReplicaID(r)).(*Replica)
		l0, lr := base.Log(), rep.Log()
		if len(l0) != len(lr) {
			t.Fatalf("log lengths differ: %d vs %d", len(l0), len(lr))
		}
		for i := range l0 {
			if l0[i] != lr[i] {
				t.Fatalf("global order differs at %d: %v vs %v", i, l0[i], lr[i])
			}
		}
	}
}

// hostileCount is a payload of size bytes that announces count records and
// then holds zeros — each eight of which do decode as a record (of no known
// kind, so it is skipped).
func hostileCount(size int, count uint64) []byte {
	p := make([]byte, size)
	binary.PutUvarint(p, count)
	return p
}

// TestReceiveHostileCountAllocatesBounded: the record count is the peer's
// to choose, so nothing may be sized from it beyond what the payload's own
// bytes can hold. (Sized from the count alone, one 1 MiB frame announcing a
// million records allocated 80 MB before its first field was read.)
func TestReceiveHostileCountAllocatesBounded(t *testing.T) {
	const size = 1 << 20
	for _, count := range []uint64{size - 16, size/minRecBytes - 1} {
		for _, id := range []model.ReplicaID{0, 2} { // the sequencer and a follower
			r := New(spec.MVRTypes()).NewReplica(id, 3)
			before := r.StateDigest()
			payload := hostileCount(size, count)
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			r.Receive(payload)
			runtime.ReadMemStats(&m1)
			if got := m1.TotalAlloc - m0.TotalAlloc; got > 16*size {
				t.Errorf("r%d: a %d-byte payload announcing %d records made Receive allocate %d B", id, size, count, got)
			}
			if r.StateDigest() != before {
				t.Errorf("r%d: a payload announcing %d records changed the state", id, count)
			}
		}
	}
}

func TestCorruptPayloadIgnored(t *testing.T) {
	_, r1, _ := trio(t)
	before := r1.StateDigest()
	r1.Receive([]byte{0xff, 0xff})
	if r1.StateDigest() != before {
		t.Fatal("corrupt payload changed state")
	}
}

func TestSeesPendingAndConfirmed(t *testing.T) {
	r0, r1, _ := trio(t)
	r1.Do("x", model.Write("a"))
	dot, _ := r1.LastDot()
	if !r1.Sees(dot) {
		t.Fatal("own pending write invisible")
	}
	if r0.Sees(dot) {
		t.Fatal("unconfirmed write visible remotely")
	}
	pump(r0, r1)
	if !r0.Sees(dot) {
		t.Fatal("confirmed write invisible at sequencer")
	}
}

// TestSequencerPartitionBlocksConvergence demonstrates the liveness trade
// GSP makes (the §5.3 comparison: one-way convergence / GSP-style liveness
// is weaker than gossip): with the sequencer isolated, the connected
// majority cannot converge — proposals have nowhere to be ordered — whereas
// a write-propagating store converges within any connected component.
func TestSequencerPartitionBlocksConvergence(t *testing.T) {
	c := sim.NewCluster(New(spec.MVRTypes()), 3, 1)
	c.Partition([]model.ReplicaID{1, 2}) // sequencer 0 isolated
	c.Do(1, "x", model.Write("a"))
	c.Do(2, "x", model.Write("b"))
	c.Send(1)
	c.Send(2)
	for c.DeliverOne(1) || c.DeliverOne(2) {
	}
	// Each replica sees only its own pending write: no agreement.
	g1 := c.Do(1, "x", model.Read())
	g2 := c.Do(2, "x", model.Read())
	if g1.Equal(g2) {
		t.Fatalf("unexpected agreement without the sequencer: %s vs %s", g1, g2)
	}
	// Healing restores liveness: the sequencer orders the buffered
	// proposals and everyone converges.
	c.Heal()
	c.Quiesce()
	g1 = c.Do(1, "x", model.Read())
	g2 = c.Do(2, "x", model.Read())
	if !g1.Equal(g2) || len(g1.Values) != 1 {
		t.Fatalf("no convergence after healing: %s vs %s", g1, g2)
	}
}

// TestWritePropagatingStoreConvergesWithoutAnyCoordinator is the contrast:
// the same partition scenario converges within the connected component for
// the causal store — no distinguished replica is needed.
func TestWritePropagatingStoreConvergesWithoutAnyCoordinator(t *testing.T) {
	c := sim.NewCluster(causal.New(spec.MVRTypes()), 3, 1)
	c.Partition([]model.ReplicaID{1, 2}) // replica 0 isolated, irrelevant
	c.Do(1, "x", model.Write("a"))
	c.Do(2, "x", model.Write("b"))
	c.Send(1)
	c.Send(2)
	for c.DeliverOne(1) || c.DeliverOne(2) {
	}
	g1 := c.Do(1, "x", model.Read())
	g2 := c.Do(2, "x", model.Read())
	if !g1.Equal(g2) || len(g1.Values) != 2 {
		t.Fatalf("connected component did not converge: %s vs %s", g1, g2)
	}
}
