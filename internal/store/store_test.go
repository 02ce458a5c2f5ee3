package store

import (
	"strconv"
	"testing"

	"repro/internal/model"
)

// fakeReplica is a scriptable replica for exercising the property checkers.
type fakeReplica struct {
	id            model.ReplicaID
	digest        string
	pending       []byte
	mutateFromNth int // reads numbered from here on change the state (0: never)
	pendOnReceive bool
	reads         int
	renders       int
}

func (f *fakeReplica) ID() model.ReplicaID { return f.id }

func (f *fakeReplica) Do(obj model.ObjectID, op model.Operation) model.Response {
	if op.Kind == model.OpRead {
		f.reads++
		if f.mutateFromNth > 0 && f.reads >= f.mutateFromNth {
			f.digest = "read" + strconv.Itoa(f.reads)
		}
		return model.ReadResponse(nil)
	}
	f.digest += "w"
	f.pending = []byte{1}
	return model.OKResponse()
}

func (f *fakeReplica) PendingMessage() []byte { return f.pending }
func (f *fakeReplica) OnSend()                { f.pending = nil }
func (f *fakeReplica) Receive(payload []byte) {
	if f.pendOnReceive {
		f.pending = []byte{2}
	}
}
func (f *fakeReplica) StateDigest() string { return string(f.AppendStateDigest(nil)) }
func (f *fakeReplica) AppendStateDigest(dst []byte) []byte {
	f.renders++
	return append(dst, f.digest...)
}

func TestCheckerCleanReplica(t *testing.T) {
	f := &fakeReplica{id: 1}
	c := NewPropertyChecker(f)
	c.CheckDo("x", model.Write("a"))
	c.CheckDo("x", model.Read())
	c.CheckReceive(nil)
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	if len(c.Violations()) != 0 {
		t.Fatalf("violations: %v", c.Violations())
	}
}

func TestCheckerFlagsInitialPending(t *testing.T) {
	f := &fakeReplica{id: 2, pending: []byte{9}}
	c := NewPropertyChecker(f)
	if c.Err() == nil {
		t.Fatal("initial pending message undetected")
	}
}

func TestCheckerFlagsVisibleRead(t *testing.T) {
	f := &fakeReplica{id: 3, mutateFromNth: 1}
	c := NewPropertyChecker(f)
	c.CheckDo("x", model.Read())
	err := c.Err()
	if err == nil {
		t.Fatal("visible read undetected")
	}
	var pv *PropertyViolation
	if !asViolation(err, &pv) || pv.Property != "invisible reads" || pv.Replica != 3 {
		t.Fatalf("violation = %v", err)
	}
}

func asViolation(err error, target **PropertyViolation) bool {
	pv, ok := err.(*PropertyViolation)
	if ok {
		*target = pv
	}
	return ok
}

func TestCheckerIgnoresWriteStateChanges(t *testing.T) {
	f := &fakeReplica{id: 4}
	c := NewPropertyChecker(f)
	c.CheckDo("x", model.Write("a"))
	if c.Err() != nil {
		t.Fatal("writes may change state")
	}
}

func TestCheckerFlagsMessageDrivenMessages(t *testing.T) {
	f := &fakeReplica{id: 5, pendOnReceive: true}
	c := NewPropertyChecker(f)
	c.CheckReceive([]byte{1})
	err := c.Err()
	if err == nil {
		t.Fatal("message-driven message undetected")
	}
	var pv *PropertyViolation
	if !asViolation(err, &pv) || pv.Property != "op-driven messages" {
		t.Fatalf("violation = %v", err)
	}
}

func TestCheckerAllowsPendingThroughReceive(t *testing.T) {
	// Definition 15(2) only forbids creating a pending message where none
	// existed; keeping one pending is fine.
	f := &fakeReplica{id: 6, pendOnReceive: true}
	c := NewPropertyChecker(f)
	f.Do("x", model.Write("a")) // creates pending
	c.CheckReceive([]byte{1})
	if c.Err() != nil {
		t.Fatalf("unexpected violation: %v", c.Err())
	}
}

// TestCheckerReusesRenderBetweenReads pins the render-reuse invariant: a read
// directly after a checked read costs one render (its "after"), and the
// reused "before" still catches a replica that starts mutating on that read.
func TestCheckerReusesRenderBetweenReads(t *testing.T) {
	f := &fakeReplica{id: 8, mutateFromNth: 2}
	c := NewPropertyChecker(f)
	c.CheckDo("x", model.Read())
	if f.renders != 2 || c.Err() != nil {
		t.Fatalf("first read: %d renders, err %v; want 2 renders, clean", f.renders, c.Err())
	}
	c.CheckDo("x", model.Read())
	if f.renders != 3 {
		t.Fatalf("back-to-back read rendered %d times in total, want 3", f.renders)
	}
	if len(c.Violations()) != 1 {
		t.Fatalf("replica mutating on its second consecutive read: %d violations, want 1", len(c.Violations()))
	}
	c.CheckDo("x", model.Read())
	if len(c.Violations()) != 2 {
		t.Fatalf("third consecutive mutating read: %d violations, want 2", len(c.Violations()))
	}
}

// TestCheckerRendersAfreshAfterOtherTransitions: a write, a receive or a send
// between two reads changes σ legitimately, so the second read must render
// its own "before" and stay clean.
func TestCheckerRendersAfreshAfterOtherTransitions(t *testing.T) {
	transitions := map[string]func(c *PropertyChecker){
		"write":   func(c *PropertyChecker) { c.CheckDo("x", model.Write("a")) },
		"receive": func(c *PropertyChecker) { c.CheckReceive([]byte{1}) },
		"send":    func(c *PropertyChecker) { c.OnSend() },
	}
	for name, step := range transitions {
		f := &fakeReplica{id: 9}
		c := NewPropertyChecker(f)
		c.CheckDo("x", model.Read())
		step(c)
		f.digest += name // the transition moved σ
		before := f.renders
		c.CheckDo("x", model.Read())
		if got := f.renders - before; got != 2 {
			t.Errorf("read after a %s rendered %d times, want 2 (fresh before and after)", name, got)
		}
		if err := c.Err(); err != nil {
			t.Errorf("read after a %s: %v", name, err)
		}
	}
}

// TestCheckerFlagsChangeBehindItsBack: reuse can only flag more. A state
// change the checker did not drive, between two reads, makes the reused
// "before" stale and the second read is reported.
func TestCheckerFlagsChangeBehindItsBack(t *testing.T) {
	f := &fakeReplica{id: 10}
	c := NewPropertyChecker(f)
	c.CheckDo("x", model.Read())
	f.Do("x", model.Write("a"))
	c.CheckDo("x", model.Read())
	if len(c.Violations()) != 1 {
		t.Fatalf("%d violations, want 1", len(c.Violations()))
	}
}

// TestCheckerOnSendForwards: the checker is the entrance for sends too.
func TestCheckerOnSendForwards(t *testing.T) {
	f := &fakeReplica{id: 11}
	c := NewPropertyChecker(f)
	c.CheckDo("x", model.Write("a"))
	c.OnSend()
	if f.PendingMessage() != nil {
		t.Fatal("OnSend did not reach the replica")
	}
}

func TestViolationErrorString(t *testing.T) {
	v := &PropertyViolation{Property: "invisible reads", Replica: 7, Detail: "boom"}
	want := "store: invisible reads violated at r7: boom"
	if v.Error() != want {
		t.Fatalf("error = %q", v.Error())
	}
}
