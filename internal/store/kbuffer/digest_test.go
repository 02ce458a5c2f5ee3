package kbuffer

import (
	"fmt"
	"testing"

	"repro/internal/model"
	"repro/internal/store"
	"repro/internal/store/storetest"
)

// TestAppendStateDigestRendersHeldQueue pins the withheld-queue lines, which
// the fmt renderer printed as "held[%d]=%d bytes countdown=%d\n" after the
// inner causal digest.
func TestAppendStateDigestRendersHeldQueue(t *testing.T) {
	r0, r1 := pair(t, 3)
	for i := 0; i < 2; i++ {
		r0.Do("x", model.Write(model.Value(fmt.Sprintf("v%d", i))))
		p := storetest.Send(r0)
		r1.Receive(p)
		r1.Do("x", model.Read()) // ages what is held
	}
	want := r1.inner.StateDigest()
	for i, h := range r1.held {
		want += fmt.Sprintf("held[%d]=%d bytes countdown=%d\n", i, len(h.payload), h.countdown)
	}
	if len(r1.held) != 2 || r1.held[0].countdown == r1.held[1].countdown {
		t.Fatalf("expected two held payloads at different countdowns: %+v", r1.held)
	}
	if got := r1.StateDigest(); got != want {
		t.Fatalf("digest:\n got: %q\nwant: %q", got, want)
	}
}

// TestCheckerFlagsEveryAgingRead: the K-buffer store's reads are visible by
// design, and the checker must say so on every read that ages the queue —
// the first (fresh "before" render) and the back-to-back ones after it
// (which reuse the previous read's "after" render) alike — and stop saying
// so once nothing is withheld.
func TestCheckerFlagsEveryAgingRead(t *testing.T) {
	const k = 3
	r0, r1 := pair(t, k)
	r0.Do("x", model.Write("a"))
	p := storetest.Send(r0)
	c := store.NewPropertyChecker(r1)
	c.CheckReceive(p)
	for read := 1; read <= k; read++ {
		c.CheckDo("x", model.Read())
		if got := len(c.Violations()); got != read {
			t.Fatalf("after aging read %d: %d violations, want %d", read, got, read)
		}
	}
	c.CheckDo("x", model.Read())
	if got := len(c.Violations()); got != k {
		t.Fatalf("read with nothing withheld was flagged: %d violations, want %d", got, k)
	}
	for _, v := range c.Violations() {
		if v.Property != "invisible reads" {
			t.Fatalf("unexpected violation %v", v)
		}
	}
}
