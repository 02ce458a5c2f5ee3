package cluster

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/model"
	"repro/internal/seglog"
	"repro/internal/wire"
)

// Per-layer benchmarks of the serving path inside a node, each on the
// piece of the shard loop it names, with allocations. They run on a loose
// shard (no sockets, no loop goroutine) unless the hand-off itself is the
// subject.
//
//	go test ./internal/cluster -run '^$' -bench . -benchmem

const benchValue = "0123456789abcdef"

// fileJournal stands in for durable.Log under NoSync (importing
// internal/durable here would be an import cycle; its own BenchmarkAppend
// times the real one): encode the event in a pooled writer and write it to
// a file, no fsync.
func fileJournal(b *testing.B) func(Event) error {
	f, err := os.Create(filepath.Join(b.TempDir(), "journal"))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { f.Close() })
	return func(ev Event) error {
		w := wire.GetWriter()
		defer wire.PutWriter(w)
		if err := AppendEventBinary(w, ev); err != nil {
			return err
		}
		_, err := f.Write(w.Bytes())
		return err
	}
}

// BenchmarkDoInLoop is one client operation on the shard loop — checked
// store.Do, frontier, record, broadcast — over 64 preloaded keys, in memory
// and with a journal. A write records two events (do, send); a read one.
func BenchmarkDoInLoop(b *testing.B) {
	keys := make([]model.ObjectID, 64)
	for i := range keys {
		keys[i] = model.ObjectID(fmt.Sprintf("k%02d", i))
	}
	for _, op := range []model.Operation{model.Read(), model.Write(benchValue)} {
		for _, journal := range []bool{false, true} {
			name := fmt.Sprintf("%v/mem", op.Kind)
			if journal {
				name = fmt.Sprintf("%v/journal", op.Kind)
			}
			b.Run(name, func(b *testing.B) {
				s := looseShard(b, "causal")
				for _, k := range keys {
					s.doInLoop(k, model.Write(benchValue))
				}
				if journal {
					s.journal = fileJournal(b)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s.doInLoop(keys[i%len(keys)], op)
				}
				if s.jerr != nil {
					b.Fatal(s.jerr)
				}
			})
		}
	}
}

// benchUpdates mints n real updates at replica 0 of the causal store.
func benchUpdates(b *testing.B, n int) []protoUpdate {
	src := looseShard(b, "causal").n.cfg.Store.NewReplica(0, 3)
	us := make([]protoUpdate, n)
	for i := range us {
		src.Do(model.ObjectID(fmt.Sprintf("k%02d", i%64)), model.Write(benchValue))
		us[i] = protoUpdate{Origin: 0, Seq: uint64(i + 1), Lamport: uint64(i + 1), Payload: append([]byte(nil), src.PendingMessage()...)}
		src.OnSend()
	}
	return us
}

// BenchmarkApplyUpdate is one replicated update on the receiving shard's
// loop: payload copy, checked store.Receive, record, index, hash. The
// receiver is replaced (off the clock) each time it has applied the whole
// minted stream.
func BenchmarkApplyUpdate(b *testing.B) {
	us := benchUpdates(b, 1<<14)
	var s *shard
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%len(us) == 0 {
			b.StopTimer()
			s = looseShard(b, "causal")
			b.StartTimer()
		}
		if _, ok := s.applyUpdate(us[i%len(us)]); !ok {
			b.Fatal(s.jerr)
		}
	}
}

// BenchmarkLoopHandoff is one crossing into a running shard loop and back
// with a reused function and done channel: what serveClient and
// serveReplication pay per request and per batch.
func BenchmarkLoopHandoff(b *testing.B) {
	s := looseShard(b, "lww")
	s.n.wg.Add(1)
	go s.loop()
	b.Cleanup(func() { close(s.n.done); s.n.wg.Wait() })
	fn, done := func() {}, make(chan struct{}, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.handoff(fn, done); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecord records one event (with its update and hash, two times in
// three) behind histories of different lengths: ns/op and B/op must not
// depend on the length. The shard is rebuilt, off the clock, every 256 k
// events so memory stays bounded however large b.N gets.
func BenchmarkRecord(b *testing.B) {
	payload := []byte(benchValue)
	for _, behind := range []int{1 << 10, 1 << 18} {
		b.Run(fmt.Sprintf("behind=%d", behind), func(b *testing.B) {
			var s *shard
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%(1<<18) == 0 {
					b.StopTimer()
					s = looseShard(b, "lww")
					for j := 0; j < behind; j++ {
						recordStep(b, s, j, payload)
					}
					b.StartTimer()
				}
				recordStep(b, s, behind+i%(1<<18), payload)
			}
		})
	}
}

// BenchmarkNoteUpdate is what a shard keeps of one update beside its event
// record — the record's position in the update index and, every LeafSpan
// updates, a stored chain value — behind histories of two lengths: ns/op
// and B/op must not depend on the length, and B/op is the position plus the
// update's share of the stored chain values. The records themselves are
// written off the clock; the shard is rebuilt every 256 k updates so memory
// stays bounded however large b.N gets.
func BenchmarkNoteUpdate(b *testing.B) {
	const chunk = 1 << 10
	payload := []byte(benchValue)
	for _, behind := range []int{1 << 10, 1 << 18} {
		b.Run(fmt.Sprintf("behind=%d", behind), func(b *testing.B) {
			var s *shard
			at := make([]seglog.Pos, chunk)
			kept := make([][]byte, chunk)
			seq := uint64(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%chunk == 0 {
					b.StopTimer()
					if i%(1<<18) == 0 {
						s, seq = looseShard(b, "lww"), 0
						for j := 0; j < behind; j++ {
							seq = noteRecorded(b, s, 0, seq+1, payload)
						}
					}
					for j := range at {
						kept[j], at[j] = s.record(Event{Kind: model.ActReceive, Lamport: seq, Origin: 0, Seq: seq + uint64(j) + 1, Payload: payload})
					}
					b.StartTimer()
				}
				seq++
				if err := s.noteUpdate(0, seq, at[i%chunk], kept[i%chunk]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkNextBatch cuts one batch from the tail of the shard's log — a
// sender that has written almost everything and is waiting for acks — at two
// depths of unacked log. The batch is read back out of the records into the
// sender's scratch: payloads alias the records, nothing is allocated, and
// the cost is the batch's, whatever the depth.
func BenchmarkNextBatch(b *testing.B) {
	payload := []byte(benchValue)
	for _, depth := range []int{64, 64 << 10} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			s := looseShard(b, "lww")
			for i := 1; i <= depth; i++ {
				noteRecorded(b, s, s.n.cfg.ID, uint64(i), payload)
			}
			p := newPeerSender(s.n, 2, "unused")
			var us []protoUpdate
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				us, _ = p.nextBatch(0, uint64(depth-32), 64, 1<<20)
			}
			if len(us) != 32 {
				b.Fatalf("batch of %d, want the 32 unsent updates", len(us))
			}
			if allocs := testing.AllocsPerRun(100, func() { p.nextBatch(0, uint64(depth-32), 64, 1<<20) }); allocs != 0 {
				b.Fatalf("nextBatch allocates %.0f times per batch", allocs)
			}
		})
	}
}

// BenchmarkHistorySnapshot is History() behind 64 k events, in its two
// parts: what the shard's loop does (copy the block table) and what the
// caller's goroutine does afterwards (decode every event).
func BenchmarkHistorySnapshot(b *testing.B) {
	s := looseShard(b, "lww")
	for i := 0; i < 64<<10; i++ {
		recordStep(b, s, i, []byte(benchValue))
	}
	var h encodedHistory
	b.Run("loop-turn", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h = s.events.snapshot(History{})
		}
	})
	b.Run("decode", func(b *testing.B) {
		h = s.events.snapshot(History{})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if got, err := h.decode(); err != nil || len(got.Events) != 64<<10 {
				b.Fatalf("decoded %d events, err %v", len(got.Events), err)
			}
		}
	})
}
