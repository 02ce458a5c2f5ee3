package kbuffer

import (
	"testing"

	"repro/internal/model"
	"repro/internal/spec"
	"repro/internal/store/storetest"
)

func pair(t *testing.T, k int) (*Replica, *Replica) {
	t.Helper()
	st := New(spec.MVRTypes(), k)
	r0, ok0 := st.NewReplica(0, 2).(*Replica)
	r1, ok1 := st.NewReplica(1, 2).(*Replica)
	if !ok0 || !ok1 {
		t.Fatal("unexpected replica type")
	}
	return r0, r1
}

func TestName(t *testing.T) {
	if got := New(spec.MVRTypes(), 3).Name(); got != "kbuffer(k=3)" {
		t.Fatalf("name = %q", got)
	}
}

func TestKFloorsAtOne(t *testing.T) {
	if got := New(spec.MVRTypes(), 0).Name(); got != "kbuffer(k=1)" {
		t.Fatalf("name = %q", got)
	}
}

func TestWithholdsForKReads(t *testing.T) {
	const k = 3
	r0, r1 := pair(t, k)
	r0.Do("x", model.Write("a"))
	p := storetest.Send(r0)
	r1.Receive(p)
	if r1.HeldMessages() != 1 {
		t.Fatalf("held = %d", r1.HeldMessages())
	}
	// The first k-1 reads stay blind; the k-th read exposes.
	for i := 1; i < k; i++ {
		if got := r1.Do("x", model.Read()); len(got.Values) != 0 {
			t.Fatalf("read %d exposed early: %s", i, got)
		}
	}
	if got := r1.Do("x", model.Read()); !got.Equal(model.ReadResponse([]model.Value{"a"})) {
		t.Fatalf("read %d = %s, want exposure", k, got)
	}
	if r1.HeldMessages() != 0 {
		t.Fatalf("held after exposure = %d", r1.HeldMessages())
	}
}

func TestLocalWritesImmediatelyVisible(t *testing.T) {
	r0, _ := pair(t, 5)
	r0.Do("x", model.Write("a"))
	if got := r0.Do("x", model.Read()); !got.Equal(model.ReadResponse([]model.Value{"a"})) {
		t.Fatalf("own write hidden: %s", got)
	}
}

func TestReadsAreVisible(t *testing.T) {
	r0, r1 := pair(t, 2)
	r0.Do("x", model.Write("a"))
	p := storetest.Send(r0)
	r1.Receive(p)
	before := r1.StateDigest()
	r1.Do("x", model.Read())
	if r1.StateDigest() == before {
		t.Fatal("read left state unchanged — K-buffer must violate Definition 16")
	}
}

func TestOpDrivenPreserved(t *testing.T) {
	r0, r1 := pair(t, 2)
	r0.Do("x", model.Write("a"))
	p := storetest.Send(r0)
	r1.Receive(p)
	if r1.PendingMessage() != nil {
		t.Fatal("receive created a pending message")
	}
}

func TestVisibilityGrantedOnlyOnExposure(t *testing.T) {
	r0, r1 := pair(t, 2)
	r0.Do("x", model.Write("a"))
	dot, _ := r0.LastDot()
	p := storetest.Send(r0)
	r1.Receive(p)
	if r1.Sees(dot) {
		t.Fatal("dot visible before exposure")
	}
	r1.Do("x", model.Read())
	r1.Do("x", model.Read())
	if !r1.Sees(dot) {
		t.Fatal("dot invisible after exposure")
	}
}

func TestCountdownSharedAcrossObjects(t *testing.T) {
	// Reads of ANY object age the withheld queue (the §5.3 example counts
	// local read operations, not per-object reads).
	r0, r1 := pair(t, 2)
	r0.Do("x", model.Write("a"))
	p := storetest.Send(r0)
	r1.Receive(p)
	r1.Do("other", model.Read())
	r1.Do("other", model.Read())
	if got := r1.Do("x", model.Read()); !got.Equal(model.ReadResponse([]model.Value{"a"})) {
		t.Fatalf("exposure after cross-object reads failed: %s", got)
	}
}

func TestMultipleHeldMessagesExposeInOrder(t *testing.T) {
	r0, r1 := pair(t, 1)
	r0.Do("x", model.Write("a"))
	p1 := storetest.Send(r0)
	r0.Do("x", model.Write("b"))
	p2 := storetest.Send(r0)
	r1.Receive(p1)
	r1.Receive(p2)
	if got := r1.Do("x", model.Read()); !got.Equal(model.ReadResponse([]model.Value{"b"})) {
		t.Fatalf("read = %s, want b after both exposures", got)
	}
}

func TestWriteDoesNotAgeCountdown(t *testing.T) {
	r0, r1 := pair(t, 1)
	r0.Do("x", model.Write("a"))
	p := storetest.Send(r0)
	r1.Receive(p)
	r1.Do("y", model.Write("local"))
	if r1.HeldMessages() != 1 {
		t.Fatal("a write aged the countdown; only reads should")
	}
}

// TestReceiveKeepsGivenPayload: a received payload is the replica's to keep
// (store.Replica.Receive), so it is withheld as given, not copied, and
// exposed from that same memory once its reads have elapsed.
func TestReceiveKeepsGivenPayload(t *testing.T) {
	r0, r1 := pair(t, 1)
	r0.Do("x", model.Write("a"))
	p := storetest.Send(r0)
	r1.Receive(p)
	if len(r1.held) != 1 || &r1.held[0].payload[0] != &p[0] {
		t.Fatal("the withheld payload is a copy of the one received")
	}
	if got := r1.Do("x", model.Read()); !got.Equal(model.ReadResponse([]model.Value{"a"})) {
		t.Fatalf("after its read the withheld write reads %s", got)
	}
}
