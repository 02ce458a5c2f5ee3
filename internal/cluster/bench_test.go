package cluster

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/membership"
	"repro/internal/model"
	"repro/internal/seglog"
	"repro/internal/wire"
)

// Per-layer benchmarks of the serving path inside a node, each on the
// step of a shard turn it names, with allocations. They run on a loose
// shard (no sockets, no peers) unless a whole cluster is the subject.
//
//	go test ./internal/cluster -run '^$' -bench . -benchmem

const benchValue = "0123456789abcdef"

// fileJournal is a Journal that stands in for durable.Log (importing
// internal/durable here would be an import cycle; its own BenchmarkAppend
// times the real one): Stage appends the record to a buffer, Commit writes
// the buffer to a file in one write and, with sync, fsyncs it. It counts
// both, and the bytes written, as the figures a write's cost is read in.
type fileJournal struct {
	f                       *os.File
	sync                    bool
	pending                 []byte
	walWrites, syncs, bytes atomic.Int64
}

func openFileJournal(path string, sync bool) (*fileJournal, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &fileJournal{f: f, sync: sync}, nil
}

func (j *fileJournal) Stage(rec []byte) error {
	j.pending = append(j.pending, rec...)
	return nil
}

func (j *fileJournal) Commit() error {
	if len(j.pending) == 0 {
		return nil
	}
	j.walWrites.Add(1)
	j.bytes.Add(int64(len(j.pending)))
	if _, err := j.f.Write(j.pending); err != nil {
		return err
	}
	j.pending = j.pending[:0]
	if !j.sync {
		return nil
	}
	j.syncs.Add(1)
	return j.f.Sync()
}

func (j *fileJournal) Close() error { return j.f.Close() }

// fileStorage opens one fileJournal per node, under dir.
type fileStorage struct {
	dir      string
	journals []*fileJournal // by node; one shard each
}

func (s *fileStorage) OpenJournal(id model.ReplicaID, n int, storeName string, shard, shards int, _ func([]byte) error) (Journal, error) {
	j, err := openFileJournal(filepath.Join(s.dir, fmt.Sprintf("journal-r%d", id)), true)
	if err != nil {
		return nil, err
	}
	s.journals[id] = j
	return j, nil
}

func (s *fileStorage) Open(model.ReplicaID, int, string, int, int) (func(Event) error, *History, *membership.Forest, func() error, error) {
	panic("fileStorage journals through OpenJournal")
}

// BenchmarkDoInLoop is one client operation in its shard's turn — the lock,
// checked store.Do, frontier, record, broadcast — over 64 preloaded keys, in
// memory and with a journal. A write records two events (do, send); a read
// one. It reports the bytes of records the history keeps per operation
// (history-B/op) and, with a journal, the bytes it writes (journal-B/op): a
// write's send leaves out the value its do record holds, so a write of the
// 16-byte benchValue keeps 15 bytes fewer than do and send whole.
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
					s.do(k, model.Write(benchValue))
				}
				if journal {
					j, err := openFileJournal(filepath.Join(b.TempDir(), "journal"), false)
					if err != nil {
						b.Fatal(err)
					}
					b.Cleanup(func() { j.Close() })
					s.journal = staged{j}
				}
				kept := encodedBytes(s)
				var written int64
				if journal {
					written = s.journal.(staged).Journal.(*fileJournal).bytes.Load()
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := s.do(keys[i%len(keys)], op); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				b.ReportMetric(float64(encodedBytes(s)-kept)/float64(b.N), "history-B/op")
				if journal {
					written = s.journal.(staged).Journal.(*fileJournal).bytes.Load() - written
					b.ReportMetric(float64(written)/float64(b.N), "journal-B/op")
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

// BenchmarkApplyUpdate is one replicated update in the receiving shard's
// turn: payload copy, checked store.Receive, record, index, hash. The
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
		if !s.applyUpdate(us[i%len(us)]) {
			b.Fatal(s.jerr)
		}
	}
}

// BenchmarkInflateTo inflates one compressed batch frame of 2 and of 64
// updates into a reused buffer, as recvFrame does into a connection's frame
// reader: what it allocates is compress/flate's own, per frame.
func BenchmarkInflateTo(b *testing.B) {
	us := benchUpdates(b, 64)
	for _, n := range []int{2, 64} {
		b.Run(fmt.Sprintf("updates=%d", n), func(b *testing.B) {
			var raw, comp wire.Writer
			appendBatchFrame(&raw, newSendingEnd(1), section{0, us[:n]})
			wire.DeflateTo(&comp, raw.Bytes())
			var buf []byte
			b.SetBytes(int64(raw.Len()))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				if buf, err = wire.InflateTo(buf[:0], comp.Bytes(), raw.Len()); err != nil {
					b.Fatal(err)
				}
			}
			if !bytes.Equal(buf, raw.Bytes()) {
				b.Fatal("the frame did not inflate to its raw bytes")
			}
		})
	}
}

// BenchmarkReplicatedWrite is one write at r0 of a three-node loopback
// cluster, timed until both peers have applied it: the client call in a
// turn of r0's shard, one batch frame to each peer, the apply in a turn of
// each peer's. It reports the frames and wire bytes the whole cluster wrote
// per write: a write costs each peer one frame, and a peer writes nothing
// back until the quiescence check asks, which it does only off the clock.
// Each write but the first follows a frame by less than batchPace, so it
// waits out the link's pace: the mem leg measures the pace, not the path.
// The durable leg journals every node to a file in b.TempDir() (fileJournal,
// fsynced) and reports the cluster's wal writes and commits per write: one
// of each, the origin's, since a receiver commits only when asked (or when
// a block's worth of receives is staged). The stream leg, in memory, makes
// b.N writes back to back and then waits once for all of them: its ns/op is
// a write's share of a busy link, and its frames/write how well the pace
// batches them.
func BenchmarkReplicatedWrite(b *testing.B) {
	b.Run("mem", func(b *testing.B) { benchReplicatedWrite(b, false, false) })
	b.Run("durable", func(b *testing.B) { benchReplicatedWrite(b, true, false) })
	b.Run("stream", func(b *testing.B) { benchReplicatedWrite(b, false, true) })
}

func benchReplicatedWrite(b *testing.B, durable, stream bool) {
	storage := &fileStorage{dir: b.TempDir(), journals: make([]*fileJournal, 3)}
	nodes, err := BootMesh(3, func(i int) Config {
		cfg := Config{Store: looseShard(b, "causal").n.cfg.Store, Listen: "127.0.0.1:0"}
		if durable {
			cfg.Storage = storage
		}
		return cfg
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		for _, nd := range nodes {
			nd.Close()
		}
	})
	// A write is applied once both peers count it received: the counter
	// moves in the turn that applies it, where a journaled receiver's tap
	// would wait for a commit.
	received := func() int64 {
		return nodes[1].shards[0].receives.Load() + nodes[2].shards[0].receives.Load()
	}
	// One write at every node opens all six links before the clock starts.
	for _, nd := range nodes {
		if _, err := nd.Do(model.ObjectID(fmt.Sprintf("warm-%d", nd.ID())), model.Write(benchValue)); err != nil {
			b.Fatal(err)
		}
	}
	if !WaitQuiesced(nodes, 30*time.Second) {
		b.Fatal("the cluster never quiesced after the warm-up writes")
	}
	// The transport and journal counters, read without Stats: a Stats call
	// may ask a question, and its answer is a frame and a commit.
	wrote := func() (frames, bytes, walWrites, commits int64) {
		for _, nd := range nodes {
			frames += nd.count[cFramesOut].Load()
			bytes += nd.count[cBytesOut].Load()
		}
		for _, j := range storage.journals {
			if j != nil {
				walWrites += j.walWrites.Load()
				commits += j.syncs.Load()
			}
		}
		return frames, bytes, walWrites, commits
	}
	frames, bytes, walWrites, commits := wrote()
	want := received()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nodes[0].Do("x", model.Write(benchValue)); err != nil {
			b.Fatal(err)
		}
		if !stream {
			for want += 2; received() < want; {
				time.Sleep(time.Microsecond)
			}
		}
	}
	if stream {
		for want += 2 * int64(b.N); received() < want; {
			time.Sleep(time.Microsecond)
		}
	}
	b.StopTimer()
	framesAfter, bytesAfter, walWritesAfter, commitsAfter := wrote()
	b.ReportMetric(float64(framesAfter-frames)/float64(b.N), "frames/write")
	b.ReportMetric(float64(bytesAfter-bytes)/float64(b.N), "wire-B/write")
	if durable {
		b.ReportMetric(float64(walWritesAfter-walWrites)/float64(b.N), "wal-writes/write")
		b.ReportMetric(float64(commitsAfter-commits)/float64(b.N), "commits/write")
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
// sender that has written almost everything — at two depths of log beyond
// the peer's delivered count. The batch is read back out of the records into the
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
				us, _, _ = p.nextBatch(0, uint64(depth-32), 64, 0)
			}
			if len(us) != 32 {
				b.Fatalf("batch of %d, want the 32 unsent updates", len(us))
			}
			if allocs := testing.AllocsPerRun(100, func() { p.nextBatch(0, uint64(depth-32), 64, 0) }); allocs != 0 {
				b.Fatalf("nextBatch allocates %.0f times per batch", allocs)
			}
		})
	}
}

// BenchmarkHistorySnapshot is History() behind 64 k events, in its two
// parts: what the shard's turn does (copy the block table) and what the
// caller does after the turn (decode every event).
func BenchmarkHistorySnapshot(b *testing.B) {
	s := looseShard(b, "lww")
	for i := 0; i < 64<<10; i++ {
		recordStep(b, s, i, []byte(benchValue))
	}
	var h encodedHistory
	b.Run("turn", func(b *testing.B) {
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
