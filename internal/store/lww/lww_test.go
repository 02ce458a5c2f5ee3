package lww

import (
	"testing"

	"repro/internal/model"
	"repro/internal/spec"
	"repro/internal/store/storetest"
)

func pair(t *testing.T) (*Replica, *Replica) {
	t.Helper()
	st := New(spec.MVRTypes())
	r0, ok0 := st.NewReplica(0, 2).(*Replica)
	r1, ok1 := st.NewReplica(1, 2).(*Replica)
	if !ok0 || !ok1 {
		t.Fatal("unexpected replica type")
	}
	return r0, r1
}

func TestNameAndTypes(t *testing.T) {
	st := New(spec.MVRTypes())
	if st.Name() != "lww" {
		t.Fatalf("name = %q", st.Name())
	}
	if st.Types().Of("x") != spec.TypeMVR {
		t.Fatal("declared types lost")
	}
}

func TestLocalWriteReadBack(t *testing.T) {
	r0, _ := pair(t)
	r0.Do("x", model.Write("a"))
	if got := r0.Do("x", model.Read()); !got.Equal(model.ReadResponse([]model.Value{"a"})) {
		t.Fatalf("read = %s", got)
	}
}

func TestEmptyRead(t *testing.T) {
	r0, _ := pair(t)
	if got := r0.Do("x", model.Read()); len(got.Values) != 0 {
		t.Fatalf("read = %s", got)
	}
}

func TestUnsupportedOperation(t *testing.T) {
	r0, _ := pair(t)
	if got := r0.Do("x", model.Add("e")); got.OK {
		t.Fatal("add should not be acknowledged")
	}
}

func TestConcurrentWritesConvergeToSingleWinner(t *testing.T) {
	r0, r1 := pair(t)
	r0.Do("x", model.Write("a"))
	r1.Do("x", model.Write("b"))
	p0 := storetest.Send(r0)
	p1 := storetest.Send(r1)
	r0.Receive(p1)
	r1.Receive(p0)
	g0 := r0.Do("x", model.Read())
	g1 := r1.Do("x", model.Read())
	if !g0.Equal(g1) {
		t.Fatalf("diverged: %s vs %s", g0, g1)
	}
	if len(g0.Values) != 1 {
		t.Fatalf("hiding store exposed multiple values: %s", g0)
	}
	// Tie on timestamp resolves to the higher origin.
	if g0.Values[0] != "b" {
		t.Fatalf("winner = %s, want b (higher origin)", g0)
	}
}

func TestHigherTimestampWinsOverOrigin(t *testing.T) {
	r0, r1 := pair(t)
	r1.Do("x", model.Write("b")) // ts 1 at r1
	r0.Do("y", model.Write("filler"))
	r0.Do("x", model.Write("a")) // ts 2 at r0
	p0 := storetest.Send(r0)
	p1 := storetest.Send(r1)
	r0.Receive(p1)
	r1.Receive(p0)
	want := model.ReadResponse([]model.Value{"a"})
	if got := r1.Do("x", model.Read()); !got.Equal(want) {
		t.Fatalf("read = %s, want %s", got, want)
	}
}

func TestImmediateApplicationNoCausalBuffering(t *testing.T) {
	// The LWW store applies out of causal order: receiving only the second
	// message exposes its write immediately.
	st := New(spec.MVRTypes())
	r0 := st.NewReplica(0, 3).(*Replica)
	r1 := st.NewReplica(1, 3).(*Replica)
	r2 := st.NewReplica(2, 3).(*Replica)
	r0.Do("x", model.Write("a"))
	pa := storetest.Send(r0)
	r1.Receive(pa)
	r1.Do("y", model.Write("b"))
	pb := storetest.Send(r1)
	r2.Receive(pb) // missing dependency a
	if got := r2.Do("y", model.Read()); !got.Equal(model.ReadResponse([]model.Value{"b"})) {
		t.Fatalf("eager application expected, read = %s", got)
	}
	if got := r2.Do("x", model.Read()); len(got.Values) != 0 {
		t.Fatalf("x should be unknown: %s", got)
	}
}

func TestDuplicateDeliveryIdempotent(t *testing.T) {
	r0, r1 := pair(t)
	r0.Do("x", model.Write("a"))
	p := storetest.Send(r0)
	r1.Receive(p)
	before := r1.StateDigest()
	r1.Receive(p)
	if r1.StateDigest() != before {
		t.Fatal("duplicate delivery changed state")
	}
}

func TestInvisibleReadsAndOpDriven(t *testing.T) {
	r0, r1 := pair(t)
	if r0.PendingMessage() != nil {
		t.Fatal("initial pending message")
	}
	r0.Do("x", model.Write("a"))
	p := storetest.Send(r0)
	r1.Receive(p)
	if r1.PendingMessage() != nil {
		t.Fatal("receive created a pending message")
	}
	before := r1.StateDigest()
	r1.Do("x", model.Read())
	r1.Do("unknown", model.Read())
	if r1.StateDigest() != before {
		t.Fatal("read changed state")
	}
}

func TestCorruptPayloadIgnored(t *testing.T) {
	_, r1 := pair(t)
	before := r1.StateDigest()
	r1.Receive([]byte{0xff, 0x01})
	if r1.StateDigest() != before {
		t.Fatal("corrupt payload changed state")
	}
}

func TestVisReporter(t *testing.T) {
	r0, r1 := pair(t)
	r0.Do("x", model.Write("a"))
	dot, ok := r0.LastDot()
	if !ok {
		t.Fatal("no dot after write")
	}
	if r1.Sees(dot) {
		t.Fatal("premature visibility")
	}
	p := storetest.Send(r0)
	r1.Receive(p)
	if !r1.Sees(dot) {
		t.Fatal("visibility lost")
	}
	if _, ok := r1.LastDot(); ok {
		t.Fatal("r1 has no local mutator")
	}
}

func TestOutboxBatches(t *testing.T) {
	r0, r1 := pair(t)
	r0.Do("x", model.Write("a"))
	r0.Do("y", model.Write("b"))
	p := storetest.Send(r0)
	r1.Receive(p)
	if got := r1.Do("y", model.Read()); !got.Equal(model.ReadResponse([]model.Value{"b"})) {
		t.Fatalf("batched update lost: %s", got)
	}
}
