package fault

import (
	"bytes"
	"fmt"
	"net"
	"reflect"
	"testing"
	"time"
)

// shapedPipe wires a shaped writer to a frame reader for one direction.
func shapedPipe(t *testing.T, em *Netem) (net.Conn, <-chan []byte) {
	t.Helper()
	a, b := net.Pipe()
	t.Cleanup(func() { a.Close(); b.Close() })
	w := em.WrapConn(a, 0, 1)
	got := pipeFrames(t, b)
	if _, err := writeFrame(w, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-got:
	case <-time.After(5 * time.Second):
		t.Fatal("timeout waiting for hello")
	}
	return w, got
}

// TestShapedConnDelayDoesNotBlockWriter is the regression test for the
// blocking-sleep delay enforcement: a delay window must stamp frames with
// delivery deadlines, not sleep in the caller's write path. Before the
// fix, each Write slept the full delay while holding the conn lock, so n
// back-to-back frames cost n×delay to write AND n×delay to arrive; now the
// writes return immediately and the frames' delays overlap.
func TestShapedConnDelayDoesNotBlockWriter(t *testing.T) {
	em := NewNetem(2)
	w, got := shapedPipe(t, em)

	em.Apply(Directive{Kind: KindLinkDelay, From: 0, To: 1, DelaySteps: 100}, time.Millisecond)
	start := time.Now()
	const frames = 4
	for i := 0; i < frames; i++ {
		if _, err := writeFrame(w, []byte(fmt.Sprintf("u%d", i))); err != nil {
			t.Fatalf("write u%d: %v", i, err)
		}
	}
	if wrote := time.Since(start); wrote > 60*time.Millisecond {
		t.Fatalf("writes blocked for %v; delay must not sleep in the writer path", wrote)
	}
	for i := 0; i < frames; i++ {
		select {
		case f := <-got:
			if want := fmt.Sprintf("u%d", i); string(f) != want {
				t.Fatalf("frame %d: got %q, want %q (FIFO violated)", i, f, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("timeout waiting for frame %d", i)
		}
	}
	elapsed := time.Since(start)
	if elapsed < 60*time.Millisecond {
		t.Fatalf("frames arrived after %v; the 100ms delay window was not enforced", elapsed)
	}
	if elapsed > 300*time.Millisecond {
		t.Fatalf("frames took %v; delays serialized instead of overlapping", elapsed)
	}
}

// TestShapedConnBandwidthCap: a rate window spaces frames by their
// serialization time, while the writes themselves return immediately.
func TestShapedConnBandwidthCap(t *testing.T) {
	em := NewNetem(2)
	w, got := shapedPipe(t, em)

	// 2 KiB/s with 512-byte frames (510 payload + 2 header): 250ms each.
	em.Apply(Directive{Kind: KindLinkRate, From: 0, To: 1, RateKBps: 2}, time.Millisecond)
	payload := bytes.Repeat([]byte{'x'}, 510)
	start := time.Now()
	const frames = 3
	for i := 0; i < frames; i++ {
		if _, err := writeFrame(w, payload); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if wrote := time.Since(start); wrote > 60*time.Millisecond {
		t.Fatalf("writes blocked for %v under a rate cap", wrote)
	}
	for i := 0; i < frames; i++ {
		select {
		case f := <-got:
			if len(f) != len(payload) {
				t.Fatalf("frame %d: %d bytes, want %d", i, len(f), len(payload))
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("timeout waiting for frame %d", i)
		}
	}
	if elapsed := time.Since(start); elapsed < 500*time.Millisecond {
		t.Fatalf("3 frames of 512B passed a 2KiB/s cap in %v; cap not enforced", elapsed)
	}
}

// TestShapedConnJitterAsymmetric: delay windows carry per-direction
// distributions — jitter applies only to the configured direction, frames
// stay FIFO under jitter, and link-clear removes the whole distribution.
func TestShapedConnJitterAsymmetric(t *testing.T) {
	em := NewNetem(2)
	em.Apply(Directive{Kind: KindLinkDelay, From: 0, To: 1, DelaySteps: 2, JitterSteps: 3}, time.Millisecond)
	fwd, tick := em.link(0, 1)
	rev, _ := em.link(1, 0)
	if d, j := time.Duration(fwd.Delay)*tick, time.Duration(fwd.Jitter)*tick; d != 2*time.Millisecond || j != 3*time.Millisecond {
		t.Fatalf("forward distribution = %v±%v, want 2ms±3ms", d, j)
	}
	if rev.Delay != 0 || rev.Jitter != 0 {
		t.Fatalf("reverse direction shaped too: %+v", rev)
	}

	w, got := shapedPipe(t, em)
	const frames = 8
	for i := 0; i < frames; i++ {
		if _, err := writeFrame(w, []byte(fmt.Sprintf("j%d", i))); err != nil {
			t.Fatalf("write j%d: %v", i, err)
		}
	}
	for i := 0; i < frames; i++ {
		select {
		case f := <-got:
			if want := fmt.Sprintf("j%d", i); string(f) != want {
				t.Fatalf("frame %d: got %q, want %q (jitter broke FIFO)", i, f, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("timeout waiting for frame %d", i)
		}
	}

	em.Apply(Directive{Kind: KindLinkClear, From: 0, To: 1}, time.Millisecond)
	if lk, _ := em.link(0, 1); lk != (Link{}) {
		t.Fatalf("link-clear left shaping behind: %+v", lk)
	}
}

// TestObserverSpans: the observer turns directive timelines into
// deterministic span metrics and aggregates engine counters.
func TestObserverSpans(t *testing.T) {
	o := NewObserver(3)
	o.Directive(Directive{Step: 1, Kind: KindLinkCut, From: 0, To: 1})
	o.Directive(Directive{Step: 2, Kind: KindCrash, Node: 1})
	o.Directive(Directive{Step: 3, Kind: KindPartition, Groups: [][]int{{0}, {1, 2}}})
	o.Directive(Directive{Step: 4, Kind: KindLinkRestore, From: 0, To: 1})
	o.Directive(Directive{Step: 5, Kind: KindLinkDelay, From: 1, To: 2, DelaySteps: 2})
	o.Directive(Directive{Step: 7, Kind: KindRestart, Node: 1})
	o.Directive(Directive{Step: 8, Kind: KindLinkClear, From: 1, To: 2})
	o.Directive(Directive{Step: 9, Kind: KindHeal})
	o.AddBlocked(3)
	o.AddDupCopies(2)
	o.AddSyncUpdates(5)
	o.ObserveQuiesce(4, 17)
	o.SetViolations(1)
	o.Finish(10)

	m := o.Metrics()
	want := Metrics{
		Downtime:      []int64{0, 5, 0},
		PartitionSpan: 6,
		LinkFaultSpan: 6, // cut 1..4 plus delay 5..8
		Blocked:       3, DupCopies: 2,
		SyncUpdates:   5,
		QuiesceRounds: 4, QuiesceDeliveries: 17,
		Violations: 1,
	}
	if !reflect.DeepEqual(m, want) {
		t.Fatalf("metrics = %+v, want %+v", m, want)
	}
	if m.TotalDowntime() != 5 {
		t.Fatalf("TotalDowntime = %d, want 5", m.TotalDowntime())
	}
}

// TestObserverFinishAndNil: Finish closes dangling windows; every method
// is a no-op on a nil observer.
func TestObserverFinishAndNil(t *testing.T) {
	o := NewObserver(2)
	o.Directive(Directive{Step: 3, Kind: KindCrash, Node: 0})
	o.Directive(Directive{Step: 4, Kind: KindPartition, Groups: [][]int{{0}, {1}}})
	o.Finish(10)
	m := o.Metrics()
	if m.Downtime[0] != 7 || m.PartitionSpan != 6 {
		t.Fatalf("dangling windows: downtime=%v span=%d, want 7 and 6", m.Downtime, m.PartitionSpan)
	}

	var nilObs *Observer
	nilObs.Directive(Directive{Step: 1, Kind: KindCrash, Node: 0})
	nilObs.AddBlocked(1)
	nilObs.ObserveQuiesce(1, 1)
	nilObs.Finish(10)
	if got := nilObs.Metrics(); !reflect.DeepEqual(got, Metrics{}) {
		t.Fatalf("nil observer returned %+v", got)
	}
}
