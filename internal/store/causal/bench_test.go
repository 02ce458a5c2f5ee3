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

// BenchmarkCausalReceive is one received update, applied as it arrives,
// behind short and long lifetimes; its waiting leg is an update that must
// wait for its dependency, then the dependency, which releases both.
func BenchmarkCausalReceive(b *testing.B) {
	b.Run("waiting", func(b *testing.B) {
		ws := newWaitingStream(Options{})
		chunk := make([][2][]byte, 0, 4096)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%cap(chunk) == 0 {
				b.StopTimer()
				chunk = chunk[:0]
				for j := 0; j < cap(chunk); j++ {
					chunk = append(chunk, ws.next())
				}
				b.StartTimer()
			}
			pair := chunk[i%cap(chunk)]
			ws.dst.Receive(pair[0])
			ws.dst.Receive(pair[1])
		}
		if ws.dst.BufferedUpdates() != 0 {
			b.Fatalf("%d updates still waiting", ws.dst.BufferedUpdates())
		}
	})
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

// waitingStream mints pairs of updates that a receiver, replica 1 of three,
// gets out of causal order: replica 0's write, which depends on a write of
// replica 2's that replica 0 has received, and then replica 2's write.
type waitingStream struct {
	src, other, dst *Replica
}

func newWaitingStream(opts Options) *waitingStream {
	st := NewWithOptions(spec.MVRTypes(), opts)
	ws := &waitingStream{st.NewReplica(0, 3).(*Replica), st.NewReplica(2, 3).(*Replica), st.NewReplica(1, 3).(*Replica)}
	// The first pair decodes both keys: the receiver holds both objects.
	pair := ws.next()
	ws.dst.Receive(pair[0])
	ws.dst.Receive(pair[1])
	return ws
}

// next returns the next pair, in the order the receiver gets it: the
// dependent update first.
func (ws *waitingStream) next() [2][]byte {
	ws.other.Do("j", model.Write("0123456789abcdef"))
	dep := slices.Clone(ws.other.PendingMessage())
	ws.other.OnSend()
	ws.src.Receive(slices.Clone(dep))
	ws.src.Do("k", model.Write("0123456789abcdef"))
	waiting := slices.Clone(ws.src.PendingMessage())
	ws.src.OnSend()
	return [2][]byte{waiting, dep}
}

// TestWaitingReceiveAllocatesNothing: an update that must wait keeps its
// clock in the replica's own slab, which drain packs behind the updates
// still waiting, so once warm, receiving it and then the update that
// releases it allocates nothing.
func TestWaitingReceiveAllocatesNothing(t *testing.T) {
	for _, opts := range []Options{{}, {SparseDeps: true}} {
		ws := newWaitingStream(opts)
		pairs := make([][2][]byte, allocRuns+1) // AllocsPerRun runs once more to warm up
		for i := range pairs {
			pairs[i] = ws.next()
		}
		next, waited := 0, 0
		got := testing.AllocsPerRun(allocRuns, func() {
			ws.dst.Receive(pairs[next][0])
			waited += ws.dst.BufferedUpdates()
			ws.dst.Receive(pairs[next][1])
			next++
		})
		if waited != next || ws.dst.BufferedUpdates() != 0 || !ws.dst.Sees(model.Dot{Origin: 0, Seq: uint64(next + 1)}) {
			t.Fatalf("%+v: of %d pairs, %d dependent updates waited and %d are still buffered", opts, next, waited, ws.dst.BufferedUpdates())
		}
		if got != 0 {
			t.Errorf("%+v: a waiting receive and its release allocate %.0f times, want 0", opts, got)
		}
	}
}

// TestCorruptPayloadLeavesNoWaitingClock: a payload that fails after an
// update that must wait takes the update back out, and its clock with it,
// so a stream of such payloads grows nothing.
func TestCorruptPayloadLeavesNoWaitingClock(t *testing.T) {
	ws := newWaitingStream(Options{})
	for i := 0; i < 3; i++ {
		waiting := ws.next()[0]
		// The count says two, and a truncated update follows the first.
		corrupt := append([]byte{2}, waiting[1:]...)
		corrupt = append(corrupt, 0xff)
		ws.dst.Receive(corrupt)
		if ws.dst.BufferedUpdates() != 0 || len(ws.dst.waitDeps) != 0 {
			t.Fatalf("payload %d: %d updates buffered, %d clock entries kept", i, ws.dst.BufferedUpdates(), len(ws.dst.waitDeps))
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
