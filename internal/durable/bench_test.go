package durable

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"testing"

	"repro/internal/cluster"
	"repro/internal/model"
)

// What an append and a recovery cost as the history behind them grows. The
// write path must be flat in it; recovery is linear (it replays everything).
//
//	go test ./internal/durable -run '^$' -bench . -benchmem -benchtime 8192x

var benchHistories = []int{1 << 10, 1 << 15, 1 << 18}

// benchEvent is event i of a write-heavy node's journal with 256 B values:
// each write is a do, its send, and a receive of some peer's write.
func benchEvent(i int) cluster.Event {
	seq := uint64(i/3 + 1)
	switch i % 3 {
	case 0:
		return cluster.Event{
			Kind: model.ActDo, Lamport: uint64(i + 1),
			Object: model.ObjectID(fmt.Sprintf("k%06d", i%1024)), Op: model.Write(model.Value(benchPayload)),
			Rval: model.OKResponse(), Dot: model.Dot{Origin: 0, Seq: seq}, Frontier: []uint64{seq - 1, seq - 1, 0},
		}
	case 1:
		return cluster.Event{Kind: model.ActSend, Lamport: uint64(i + 1), Origin: 0, Seq: seq, Payload: benchPayload}
	default:
		return cluster.Event{Kind: model.ActReceive, Lamport: uint64(i + 1), Origin: 1, Seq: seq, Payload: benchPayload}
	}
}

var benchPayload = bytes.Repeat([]byte("v"), 256)

// openWithHistory returns a log in a fresh directory that already holds n
// events, written through Append at the default seal cadence.
func openWithHistory(tb testing.TB, n int) (*Log, string) {
	tb.Helper()
	dir := tb.TempDir()
	l, _, err := Open(dir, testMeta(), Options{NoSync: true})
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := l.Append(benchEvent(i)); err != nil {
			tb.Fatal(err)
		}
	}
	return l, dir
}

// bytesWritten reads how many bytes this process has handed to write(2) —
// every journal byte, any rewrite included — or false where /proc does not
// say.
func bytesWritten() (int64, bool) {
	data, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0, false
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("wchar: ")); ok {
			n, err := strconv.ParseInt(string(rest), 10, 64)
			return n, err == nil
		}
	}
	return 0, false
}

func BenchmarkAppend(b *testing.B) {
	for _, n := range benchHistories {
		b.Run(fmt.Sprintf("history=%d", n), func(b *testing.B) {
			l, _ := openWithHistory(b, n)
			defer l.Close()
			// Built outside the timed loop; only the seq is fixed up inside it.
			events := make([]cluster.Event, 3*1024)
			for i := range events {
				events[i] = benchEvent(i)
			}
			before, counted := bytesWritten()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				at := n + i
				ev := events[at%len(events)]
				ev.Seq = uint64(at/3 + 1)
				if err := l.Append(ev); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if after, ok := bytesWritten(); ok && counted {
				b.ReportMetric(float64(after-before)/float64(b.N), "disk-B/op")
			}
		})
	}
}

func BenchmarkOpen(b *testing.B) {
	for _, n := range benchHistories {
		b.Run(fmt.Sprintf("history=%d", n), func(b *testing.B) {
			l, dir := openWithHistory(b, n)
			if err := l.Close(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l, hist, err := Open(dir, testMeta(), Options{NoSync: true})
				if err != nil {
					b.Fatal(err)
				}
				if len(hist.Events) != n {
					b.Fatalf("recovered %d events, want %d", len(hist.Events), n)
				}
				l.Close()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/event")
		})
	}
}

// TestAppendCostIndependentOfHistory is the deterministic form of
// BenchmarkAppend's claim: one seal cycle — sealEvery appends, ending in a
// seal — allocates and writes the same behind a 256 k-event history as
// behind a 1 k one. A write path that rewrites or re-serialises anything
// sized by the history fails this by orders of magnitude.
//
// Disk bytes are exact. Allocation is not — the runtime's own background
// allocation lands in a burst or misses it — so the allocation figure is the
// cheapest of a few consecutive cycles, and the ratio is only held above a
// noise floor that a per-seal O(history) buffer still clears by an order of
// magnitude (a whole-file checkpoint rewrite read 32 KB per append here).
func TestAppendCostIndependentOfHistory(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 256 k-event journal")
	}
	if _, ok := bytesWritten(); !ok {
		t.Skip("no /proc/self/io to count written bytes from")
	}
	const (
		burst      = sealEvery
		cycles     = 3
		allocFloor = 2048 // B per append; below it the ratio is growth noise
	)
	measure := func(history int) (allocBytes, diskBytes float64) {
		l, _ := openWithHistory(t, history)
		defer l.Close()
		events := make([]cluster.Event, burst)
		for c := 0; c < cycles; c++ {
			for i := range events {
				events[i] = benchEvent(history + c*burst + i)
			}
			var m0, m1 runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&m0)
			w0, _ := bytesWritten()
			for _, ev := range events {
				if err := l.Append(ev); err != nil {
					t.Fatal(err)
				}
			}
			w1, _ := bytesWritten()
			runtime.ReadMemStats(&m1)
			if l.walCount != 0 {
				t.Fatalf("burst of %d behind %d events left %d records unsealed; it should end on a seal", burst, history+c*burst, l.walCount)
			}
			alloc, disk := float64(m1.TotalAlloc-m0.TotalAlloc)/burst, float64(w1-w0)/burst
			if c == 0 || alloc < allocBytes {
				allocBytes = alloc
			}
			if c == 0 || disk < diskBytes {
				diskBytes = disk
			}
		}
		return allocBytes, diskBytes
	}
	smallAlloc, smallDisk := measure(1 << 10)
	largeAlloc, largeDisk := measure(1 << 18)
	t.Logf("per append behind 1 k events: %.0f B allocated, %.0f B written; behind 256 k: %.0f B, %.0f B", smallAlloc, smallDisk, largeAlloc, largeDisk)
	if largeAlloc > 1.25*smallAlloc && largeAlloc > allocFloor {
		t.Errorf("an append allocates %.0f B behind 256 k events, %.0f B behind 1 k: the write path grows with history", largeAlloc, smallAlloc)
	}
	if largeDisk > 1.25*smallDisk {
		t.Errorf("an append writes %.0f B behind 256 k events, %.0f B behind 1 k: the write path grows with history", largeDisk, smallDisk)
	}
}
