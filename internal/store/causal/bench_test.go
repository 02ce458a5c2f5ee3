package causal

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"slices"
	"testing"

	"repro/internal/model"
	"repro/internal/seglog"
	"repro/internal/spec"
)

// Per-layer benchmarks of the store's side of a replicated write: the
// origin's Do + PendingMessage + OnSend, and the receiver's Receive, with
// allocations, behind short and long lifetimes — neither may depend on how
// many updates the replica has applied.
//
//	go test ./internal/store/causal -run '^$' -bench . -benchmem

// allocBytes returns how many bytes the process allocates while fn runs.
func allocBytes(fn func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc - before.TotalAlloc)
}

// writer is replica 0 of a 3-replica population, writing values of a fixed
// size round-robin over 64 keys the way the cluster drives it: every write
// is broadcast at once.
type writer struct {
	r     *Replica
	keys  []model.ObjectID
	value model.Value
	n     int
}

func newWriter(valueBytes int) *writer {
	w := &writer{r: New(spec.MVRTypes()).NewReplica(0, 3).(*Replica)}
	for i := 0; i < 64; i++ {
		w.keys = append(w.keys, model.ObjectID(fmt.Sprintf("k%06d", i)))
	}
	w.value = model.Value(make([]byte, valueBytes))
	return w
}

// write performs one write and returns its broadcast, lent by the replica
// until its next write.
func (w *writer) write() []byte {
	w.r.Do(w.keys[w.n%len(w.keys)], model.Write(w.value))
	w.n++
	p := w.r.PendingMessage()
	w.r.OnSend()
	return p
}

var payloadSink []byte

func BenchmarkCausalWrite(b *testing.B) {
	for _, valueBytes := range []int{16, 256} {
		for _, behind := range []int{1 << 10, 1 << 18} {
			b.Run(fmt.Sprintf("value=%d/behind=%d", valueBytes, behind), func(b *testing.B) {
				w := newWriter(valueBytes)
				for i := 0; i < behind; i++ {
					w.write()
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					payloadSink = w.write()
				}
			})
		}
	}
}

func BenchmarkCausalReceive(b *testing.B) {
	for _, valueBytes := range []int{16, 256} {
		for _, behind := range []int{1 << 10, 1 << 18} {
			b.Run(fmt.Sprintf("value=%d/behind=%d", valueBytes, behind), func(b *testing.B) {
				w := newWriter(valueBytes)
				r := New(spec.MVRTypes()).NewReplica(1, 3)
				for i := 0; i < behind; i++ {
					r.Receive(slices.Clone(w.write()))
				}
				// The stream is minted a chunk at a time, off the clock.
				chunk := make([][]byte, 0, 4096)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if i%cap(chunk) == 0 {
						b.StopTimer()
						chunk = chunk[:0]
						for j := 0; j < cap(chunk); j++ {
							chunk = append(chunk, slices.Clone(w.write()))
						}
						b.StartTimer()
					}
					r.Receive(chunk[i%cap(chunk)])
				}
			})
		}
	}
}

// allocRuns is how many writes or receives an allocation count averages
// over. testing.AllocsPerRun divides in integers, so the apply log's new
// segment, one allocation per seglog.SegmentLen applies, counts as none.
const allocRuns = seglog.SegmentLen

// clockedPair returns a writer, replica 0 of three, and a receiver of its
// writes, replica 1, both past a write of replica 2's: the writer's clocks
// are not all zero, so the sparse encoding has an entry to carry.
func clockedPair(opts Options) (src, dst *Replica) {
	st := NewWithOptions(spec.MVRTypes(), opts)
	src, dst = st.NewReplica(0, 3).(*Replica), st.NewReplica(1, 3).(*Replica)
	other := st.NewReplica(2, 3)
	other.Do("k", model.Write("other"))
	p := slices.Clone(other.PendingMessage())
	src.Receive(p)
	dst.Receive(p)
	return src, dst
}

// TestWriteAllocatesNoClock: a write's dependency clock is copied into the
// outbox's arena, which OnSend empties for the next write, so a write of an
// object the replica holds allocates nothing from Do to OnSend: its value is
// the caller's, its version takes the one it overwrites' place, and the
// message is encoded into the replica's own buffer.
func TestWriteAllocatesNoClock(t *testing.T) {
	for _, opts := range []Options{{}, {SparseDeps: true}} {
		src, _ := clockedPair(opts)
		write := model.Write("0123456789abcdef")
		do := func() {
			src.Do("k", write)
			_ = src.PendingMessage()
			src.OnSend()
		}
		if got := testing.AllocsPerRun(allocRuns, do); got != 0 {
			t.Errorf("%+v: a write allocates %.0f times, want 0", opts, got)
		}
	}
}

// TestReadyReceiveAllocatesNothing: an update ready as it arrives decodes
// its clock into the receive scratch and is applied before Receive returns,
// and the value its version keeps is a view of the payload, which the
// replica is given to keep; so receiving it allocates nothing.
func TestReadyReceiveAllocatesNothing(t *testing.T) {
	for _, opts := range []Options{{}, {SparseDeps: true}} {
		src, dst := clockedPair(opts)
		payloads := make([][]byte, allocRuns+2) // AllocsPerRun runs once more to warm up
		for i := range payloads {
			src.Do("k", model.Write("0123456789abcdef"))
			payloads[i] = slices.Clone(src.PendingMessage())
			src.OnSend()
		}
		dst.Receive(payloads[0]) // the object's first update decodes its key
		next := 1
		got := testing.AllocsPerRun(allocRuns, func() {
			dst.Receive(payloads[next])
			next++
		})
		if dst.BufferedUpdates() != 0 || !dst.Sees(model.Dot{Origin: 0, Seq: uint64(next)}) {
			t.Fatalf("%+v: %d receives left %d buffered", opts, next, dst.BufferedUpdates())
		}
		if got != 0 {
			t.Errorf("%+v: a ready receive allocates %.0f times, want 0", opts, got)
		}
	}
}

// TestApplyCostIndependentOfHistory is the store's companion of the
// shard's TestRecordCostIndependentOfHistory: behind 256 k applied updates a
// burst of 256 writes, or of 256 receives, allocates what one behind a
// thousand did, give or take a segment of the apply log and a regrowth of
// its segment table (a slice header per segment). (As an
// append-doubled slice the log re-copied itself on the way: one unlucky
// apply allocated, and moved, megabytes.)
func TestApplyCostIndependentOfHistory(t *testing.T) {
	const total, burst = 256 << 10, 256
	w := newWriter(16)
	r := New(spec.MVRTypes()).NewReplica(1, 3)
	var writes, receives []float64
	payloads := make([][]byte, 0, burst)
	for i := 0; i < total; i += burst {
		payloads = payloads[:0]
		writes = append(writes, allocBytes(func() {
			for j := 0; j < burst; j++ {
				payloads = append(payloads, slices.Clone(w.write()))
			}
		}))
		receives = append(receives, allocBytes(func() {
			for _, p := range payloads {
				r.Receive(p)
			}
		}))
	}
	if got := len(r.(*Replica).ApplyOrder()); got != total {
		t.Fatalf("receiver applied %d updates, want %d", got, total)
	}
	segment := float64(seglog.SegmentLen * 4)            // of origins
	table := float64(2 * 24 * total / seglog.SegmentLen) // of segment headers, grown by append
	for name, bursts := range map[string][]float64{"writes": writes, "receives": receives} {
		early := slices.Max(bursts[4:8]) // past the first segment's doublings
		if worst := slices.Max(bursts[8:]); worst > early+segment+table+1024 {
			t.Errorf("a burst of %d %s allocated %.0f B behind a long history, %.0f B behind a short one", burst, name, worst, early)
		}
	}
}

// minimalUpdate is the shortest update a replica of three encodes: r2's
// first write of the empty value to the empty key, six bytes.
func minimalUpdate() []byte {
	src := New(spec.MVRTypes()).NewReplica(2, 3)
	src.Do("", model.Write(""))
	return slices.Clone(src.PendingMessage()[1:]) // behind the count
}

// hostileCount is a payload of size bytes that announces count updates,
// then repeats minimalUpdate as far as the bytes go and pads with zeros:
// every copy decodes (as a duplicate of the first), and the payload fails
// only at its end — on the padding, or on the bytes left over.
func hostileCount(size int, count uint64) []byte {
	unit := minimalUpdate()
	p := binary.AppendUvarint(make([]byte, 0, size), count)
	for len(p)+len(unit) <= size {
		p = append(p, unit...)
	}
	return append(p, make([]byte, size-len(p))...)
}

// TestReceiveHostileCountAllocatesBounded: the update count is the peer's
// to choose, so nothing may be sized from it, and a payload that fails part
// way leaves nothing behind. (Sized from the count alone, one 1 MiB frame
// announcing a million updates allocated 120 MB before its first field was
// read.)
func TestReceiveHostileCountAllocatesBounded(t *testing.T) {
	const size = 1 << 20
	for _, count := range []uint64{size - 16, uint64(size/len(minimalUpdate())) - 1} {
		r := New(spec.MVRTypes()).NewReplica(1, 3).(*Replica)
		before := r.StateDigest()
		payload := hostileCount(size, count)
		if got := allocBytes(func() { r.Receive(payload) }); got > 16*size {
			t.Errorf("a %d-byte payload announcing %d updates made Receive allocate %.0f B", size, count, got)
		}
		if r.StateDigest() != before {
			t.Errorf("a payload announcing %d updates changed the state", count)
		}
	}
}
