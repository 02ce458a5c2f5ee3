package cluster

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"net"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/membership"
	"repro/internal/model"
	"repro/internal/seglog"
	"repro/internal/spec"
	"repro/internal/store"
	"repro/internal/wire"

	_ "repro/internal/store/gsp"
	_ "repro/internal/store/kbuffer"
)

// emptyMsgStore wraps a store so that each mutator is followed, after the
// store's own message, by a broadcast that is present and empty: the
// smallest message store.Replica allows.
type emptyMsgStore struct{ store.Store }

func (s emptyMsgStore) NewReplica(id model.ReplicaID, n int) store.Replica {
	return &emptyMsgReplica{Replica: s.Store.NewReplica(id, n)}
}

type emptyMsgReplica struct {
	store.Replica
	owed bool
}

func (r *emptyMsgReplica) Do(obj model.ObjectID, op model.Operation) model.Response {
	r.owed = r.owed || op.Kind.IsMutator()
	return r.Replica.Do(obj, op)
}

func (r *emptyMsgReplica) PendingMessage() []byte {
	if p := r.Replica.PendingMessage(); p != nil || !r.owed {
		return p
	}
	return []byte{}
}

func (r *emptyMsgReplica) OnSend() {
	if r.Replica.PendingMessage() != nil {
		r.Replica.OnSend()
		return
	}
	r.owed = false
}

func (r *emptyMsgReplica) Receive(payload []byte) {
	if len(payload) > 0 {
		r.Replica.Receive(payload)
	}
}

// lendingStorage wraps a NodeStorage so that its journal is handed each do
// event's frontier in a copy the wrapper owns and scribbles over as soon as
// the call returns: the journal contract at its strictest. A journal that
// keeps the frontier it was shown without cloning it keeps garbage, and
// whatever is restored or compared from it shows that.
type lendingStorage struct{ NodeStorage }

func (s lendingStorage) Open(id model.ReplicaID, n int, storeName string, shard, shards int) (func(Event) error, *History, *membership.Forest, func() error, error) {
	journal, restore, tree, closeLog, err := s.NodeStorage.Open(id, n, storeName, shard, shards)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	lent := func(ev Event) error {
		if ev.Frontier == nil {
			return journal(ev)
		}
		ev.Frontier = slices.Clone(ev.Frontier)
		err := journal(ev)
		for i := range ev.Frontier {
			ev.Frontier[i] = math.MaxUint64
		}
		return err
	}
	return lent, restore, tree, closeLog, nil
}

// memStorage is the tests' JournalStorage that keeps nothing on disk (the
// Supervisor's, in internal/supervisor, is the same): each (node, shard)
// journal is the list of records committed to it, which outlives the
// incarnation committing them, and OpenJournal hands it back to replay. A staged record is the history's own immutable
// copy (Journal.Stage), so the list holds no copy of its own.
type memStorage struct {
	mu   sync.Mutex
	logs map[[2]int][][]byte // (node, shard) → committed records
}

// memJournal is one (node, shard) journal of a memStorage.
type memJournal struct {
	m      *memStorage
	key    [2]int
	staged [][]byte
}

func (j *memJournal) Stage(rec []byte) error {
	j.staged = append(j.staged, rec)
	return nil
}

func (j *memJournal) Commit() error {
	j.m.mu.Lock()
	defer j.m.mu.Unlock()
	if j.m.logs == nil {
		j.m.logs = make(map[[2]int][][]byte)
	}
	j.m.logs[j.key] = append(j.m.logs[j.key], j.staged...)
	clear(j.staged)
	j.staged = j.staged[:0]
	return nil
}

func (j *memJournal) Close() error {
	j.staged = nil
	return nil
}

func (m *memStorage) OpenJournal(id model.ReplicaID, n int, storeName string, shard, shards int, replay func(rec []byte) error) (Journal, error) {
	for _, rec := range m.records(id, shard) {
		if err := replay(rec); err != nil {
			return nil, err
		}
	}
	return &memJournal{m: m, key: [2]int{int(id), shard}}, nil
}

// Open is NodeStorage's per-event journal over the same records.
func (m *memStorage) Open(id model.ReplicaID, n int, storeName string, shard, shards int) (func(Event) error, *History, *membership.Forest, func() error, error) {
	return OpenPerEvent(m, id, n, storeName, shard, shards)
}

// records returns what (node, shard) has committed so far.
func (m *memStorage) records(id model.ReplicaID, shard int) [][]byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.logs[[2]int{int(id), shard}]
}

// decoded returns what (node, shard) has committed so far, decoded.
func (m *memStorage) decoded(id model.ReplicaID, shard int) ([]Event, error) {
	recs := m.records(id, shard)
	h, err := encodedHistory{History: History{Node: id}, blocks: recs, n: len(recs)}.decode()
	return h.Events, err
}

// events returns what (node, shard) has committed to m so far, decoded.
func (m *memStorage) events(id model.ReplicaID, shard int) []Event {
	evs, err := m.decoded(id, shard)
	if err != nil {
		panic(err)
	}
	return evs
}

// journaledCluster boots n linked nodes of st that journal to one memStorage,
// through lendingStorage.
func journaledCluster(t *testing.T, st store.Store, n int) ([]*Node, *memStorage) {
	t.Helper()
	mem := &memStorage{}
	// The store named here only stands in until the config is handed over.
	return startClusterWith(t, "lww", n, func(cfg *Config) { cfg.Store, cfg.Storage = st, lendingStorage{mem} }), mem
}

// restartAlone closes nd and boots its next incarnation from mem, linked to
// nobody.
func restartAlone(t *testing.T, nd *Node, mem *memStorage) *Node {
	t.Helper()
	nd.Close()
	cfg := fastConfig(nd.ID(), nd.cfg.N, nd.cfg.Store)
	cfg.Storage = lendingStorage{mem}
	next, err := NewNode(cfg)
	if err != nil {
		t.Fatalf("r%d does not restart from its own journal: %v", nd.ID(), err)
	}
	t.Cleanup(func() { next.Close() })
	return next
}

// TestEmptyPayloadSurvivesRestart: a message that is present and empty is
// recorded as present — at the sender, at the receiver and in both journals
// — so the receiver's journal restores. (A payload copied with
// append([]byte(nil), p...) came out nil, and restore refused the node's own
// journal as one that "predates payload recording".)
func TestEmptyPayloadSurvivesRestart(t *testing.T) {
	nodes, mem := journaledCluster(t, emptyMsgStore{openCausal(t)}, 2)
	if _, err := nodes[0].Do("k", model.Write("v")); err != nil {
		t.Fatal(err)
	}
	if !WaitQuiesced(nodes, 10*time.Second) {
		t.Fatal("cluster did not quiesce")
	}
	for _, nd := range nodes {
		empty := 0
		for _, ev := range mem.events(nd.ID(), 0) {
			if ev.Kind != model.ActDo && ev.Payload == nil {
				t.Fatalf("r%d journaled %v (r%d,%d) with no payload", nd.ID(), ev.Kind, ev.Origin, ev.Seq)
			}
			if ev.Kind != model.ActDo && len(ev.Payload) == 0 {
				empty++
			}
		}
		if empty != 1 {
			t.Fatalf("r%d journaled %d empty messages, want 1", nd.ID(), empty)
		}
		want := nd.History()
		if got := restartAlone(t, nd, mem).History(); !reflect.DeepEqual(got, want) {
			t.Fatalf("r%d restarted with history\n%+v\nwant\n%+v", nd.ID(), got, want)
		}
	}
}

// TestEncodedHistoryMatchesReference: the history is held encoded, and what
// History() decodes from it is, for every registered store, exactly the
// events the journal was handed one by one as they were recorded — nil and
// empty Frontier, Values and Payload told apart — with equal consecutive
// frontiers sharing one slice; and a node restarted from that journal holds
// the same history again.
func TestEncodedHistoryMatchesReference(t *testing.T) {
	stores := map[string]store.Store{}
	for _, name := range store.Names() {
		st, err := store.Open(name, spec.MVRTypes(), store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		stores[name] = st
	}
	stores["lww+empty-messages"] = emptyMsgStore{stores["lww"]}
	for name, st := range stores {
		t.Run(name, func(t *testing.T) {
			nodes, mem := journaledCluster(t, st, 3)
			rng := rand.New(rand.NewSource(20))
			for step := 0; step < 240; step++ {
				nd := nodes[rng.Intn(len(nodes))]
				obj := model.ObjectID(fmt.Sprintf("k%d", rng.Intn(5))) // k4 is only ever read
				op := model.Read()
				if obj != "k4" && rng.Intn(3) > 0 {
					op = model.Write(model.Value(fmt.Sprintf("v%d", step)))
				}
				if _, err := nd.Do(obj, op); err != nil {
					t.Fatal(err)
				}
			}
			if !WaitQuiesced(nodes, 20*time.Second) {
				t.Fatal("cluster did not quiesce")
			}
			for _, nd := range nodes {
				ref := mem.events(nd.ID(), 0)
				h := nd.History()
				if len(h.Events) != len(ref) {
					t.Fatalf("r%d: History() has %d events, the journal was handed %d", nd.ID(), len(h.Events), len(ref))
				}
				for i := range ref {
					if !reflect.DeepEqual(h.Events[i], ref[i]) {
						t.Fatalf("r%d event %d: History() has\n%#v\nthe journal was handed\n%#v", nd.ID(), i, h.Events[i], ref[i])
					}
				}
				var last []uint64
				for i, ev := range h.Events {
					if ev.Frontier == nil {
						continue
					}
					if last != nil && slices.Equal(last, ev.Frontier) && &last[0] != &ev.Frontier[0] {
						t.Fatalf("r%d event %d: frontier %v equals the previous do event's and is a second slice", nd.ID(), i, ev.Frontier)
					}
					last = ev.Frontier
				}
				next := restartAlone(t, nd, mem)
				if got := next.History(); !reflect.DeepEqual(got, h) {
					t.Fatalf("r%d restarted with a different history (%d events, was %d)", nd.ID(), len(got.Events), len(h.Events))
				}
				if got := len(mem.events(nd.ID(), 0)); got != len(ref) {
					t.Fatalf("r%d's restart grew its journal from %d to %d events", nd.ID(), len(ref), got)
				}
			}
		})
	}
}

// inBlocks reports whether p's first byte is a byte of one of the blocks.
func inBlocks(blocks [][]byte, p []byte) bool {
	for _, b := range blocks {
		for i := range b {
			if &b[i] == &p[0] {
				return true
			}
		}
	}
	return false
}

// TestPayloadStoredOnce: after a batch is applied, the record in the
// history, the update log's entry, the record the journal was staged and the
// slice the store was shown are one piece of memory — the history's — and
// not the connection's frame buffer; likewise for a message the shard minted
// itself, which is not the slice the store's PendingMessage returned.
func TestPayloadStoredOnce(t *testing.T) {
	src := openCausal(t).NewReplica(0, 3)
	var frame [][]byte // stands in for the connection's buffer
	var us []protoUpdate
	for i := 0; i < 8; i++ {
		src.Do("k", model.Write(model.Value(fmt.Sprintf("value-%d", i))))
		frame = append(frame, slices.Clone(src.PendingMessage()))
		src.OnSend()
		us = append(us, protoUpdate{Origin: 0, Seq: uint64(i + 1), Lamport: uint64(i + 1), Payload: frame[i]})
	}

	st := &retainingStore{Store: openCausal(t)}
	mem := &memStorage{}
	s := looseShardOf(t, st)
	j, err := mem.OpenJournal(s.n.cfg.ID, s.n.cfg.N, st.Name(), 0, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	s.journal = staged{j}
	if applied, err := s.applyRun(us, false); applied != 8 || err != nil || s.logLen(0) != 8 {
		t.Fatalf("applyRun = (%d, %v), watermark %d", applied, err, s.logLen(0))
	}
	if _, err := s.do("mine", model.Write("w")); err != nil {
		t.Fatal(err)
	}

	blocks, _ := s.events.recs.Snapshot()
	journaled := mem.records(s.n.cfg.ID, 0)
	// The journal's record of update i holds the payload at its tail.
	tail := func(rec, payload []byte) bool { return &rec[len(rec)-len(payload)] == &payload[0] }
	for i := range us {
		kept := s.updatePayload(0, uint64(i+1))
		if !bytes.Equal(kept, frame[i]) {
			t.Fatalf("update %d holds %q, sent %q", i+1, kept, frame[i])
		}
		if &kept[0] == &frame[i][0] {
			t.Fatalf("update %d is held in the connection's buffer", i+1)
		}
		if !inBlocks(blocks, kept) {
			t.Errorf("update %d's payload is not inside the history's records", i+1)
		}
		if shown := st.shown[i]; &shown[0] != &kept[0] {
			t.Errorf("the store was shown a second copy of update %d", i+1)
		}
		if rec := journaled[i]; !inBlocks(blocks, rec) || !tail(rec, kept) {
			t.Errorf("the journal was staged a second copy of update %d", i+1)
		}
	}
	mine := s.updatePayload(int(s.n.cfg.ID), 1) // "w" is too short to leave out: the send is whole
	if !inBlocks(blocks, mine) {
		t.Error("the shard's own broadcast is held outside the history's records")
	}
	if rec := journaled[len(journaled)-1]; !inBlocks(blocks, rec) || !tail(rec, mine) {
		t.Error("the journal was staged a second copy of the shard's own broadcast")
	}
}

// TestHistoryFrameIsTheLogVerbatim: a history reply frames the log's blocks
// as they are, and that is byte for byte the reference encoding of the
// decoded History; and the part of a snapshot taken in the shard's turn
// costs a copy of the block table, not of the events.
func TestHistoryFrameIsTheLogVerbatim(t *testing.T) {
	nd := bootNode(t, 0, 2, nil)
	for i := 0; i < 400; i++ { // several blocks' worth
		op := model.Read()
		if i%2 == 0 {
			op = model.Write(model.Value(fmt.Sprintf("value-%03d", i)))
		}
		if _, err := nd.Do(model.ObjectID(fmt.Sprintf("k%d", i%7)), op); err != nil {
			t.Fatal(err)
		}
	}
	conn, err := net.Dial("tcp", nd.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	req := wire.NewWriter()
	appendHistoryReq(req, 0)
	if _, err := wire.WriteFrame(conn, req.Bytes(), 0); err != nil {
		t.Fatal(err)
	}
	body, err := recvFrame(wire.NewFrameReader(conn), historyMaxFrame)
	if err != nil {
		t.Fatal(err)
	}
	want := wire.NewWriter()
	want.Uvarint(tHistoryResp)
	if err := appendHistory(want, nd.History()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want.Bytes()) {
		t.Fatalf("history reply of %d bytes differs from the %d-byte reference encoding of History()", len(body), want.Len())
	}

	// The allocation counter is the process's: the node above is closed
	// first, and the best of three snapshots counts, since a goroutine still
	// winding down (an earlier test's) can add to one reading but hardly to
	// all three.
	conn.Close()
	nd.Close()
	const events = 64 << 10
	s := looseShard(t, "lww")
	for i := 0; i < events; i++ {
		recordStep(t, s, i, []byte(benchValue))
	}
	var h encodedHistory
	taken := math.Inf(1)
	for range 3 {
		taken = min(taken, allocBytes(func() { h = s.events.snapshot(History{}) }))
	}
	if h.n != events {
		t.Fatalf("snapshot holds %d events, recorded %d", h.n, events)
	}
	if limit := float64(2 * len(h.blocks) * int(reflect.TypeOf(h.blocks).Elem().Size())); taken > limit {
		t.Errorf("taking a snapshot behind %d events allocated %.0f B, more than twice its %d-entry block table", events, taken, len(h.blocks))
	}
	if most := encodedBytes(s)/(seglog.BlockSize/2) + 8; len(h.blocks) > most {
		t.Errorf("%d events of %d B sit in %d blocks, want at most %d", events, encodedBytes(s), len(h.blocks), most)
	}
}

// TestStraddlingDoRecordDecodesWhole: a do record is opened with room for a
// write's tail, so a read whose values do not fit behind its head near the
// end of a block straddles it. Such records decode whole, in order, from the
// history the shard holds.
func TestStraddlingDoRecordDecodesWhole(t *testing.T) {
	s := looseShard(t, "lww")
	var ref []Event
	for i := 0; i < 400; i++ {
		ev := Event{Kind: model.ActDo, Lamport: uint64(200 + i), Object: model.ObjectID(fmt.Sprintf("k%d", i%7)), Op: model.Read(),
			Rval: model.Response{OK: true, Values: []model.Value{model.Value(strings.Repeat("v", 40+i%300))}}, Frontier: []uint64{uint64(i), 0, 7}}
		ref = append(ref, ev)
		ev.Object, ev.Op = s.openDo(ev.Lamport, ev.Object, ev.Op) // as do records it
		s.record(ev)
	}
	h, err := s.history()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(h.Events, ref) {
		t.Fatalf("the history decodes to %d events that differ from the %d recorded", len(h.Events), len(ref))
	}
	// Every head is as long (two-byte lamports). A block a straddle sealed
	// has a head and its room left, since the head was opened there; one an
	// open sealed has less.
	var head wire.Writer
	appendDoHead(&head, ref[0].Lamport, ref[0].Object, ref[0].Op)
	blocks, _ := s.events.recs.Snapshot()
	straddles := 0
	for _, b := range blocks[:len(blocks)-1] {
		if cap(b)-len(b) >= head.Len()+doTailMax(3) {
			straddles++
		}
	}
	if straddles == 0 {
		t.Fatalf("none of %d blocks was sealed by a straddling record", len(blocks))
	}
}

// liveHeap returns the bytes of live heap objects after a full collection.
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestRestoreKeepsOneCopy: a restored shard hands its store views of the
// records it rebuilt its history from, as a serving shard does, so once each
// event decoded from the journal is dropped, the values written — each
// key's one, kept by the store — live only in the history's blocks. The
// live heap beyond those blocks stays under a tenth of the values' bytes
// (before, the store pinned the decoded strings, a second copy of each).
func TestRestoreKeepsOneCopy(t *testing.T) {
	const writes, valueLen = 1000, 4 << 10
	var journal [][]byte // the history, encoded as a journal holds it
	{
		twin := openCausal(t).NewReplica(1, 3)
		value := make([]byte, valueLen)
		for i := 0; i < writes; i++ {
			for j := range value {
				value[j] = byte('a' + (i+j)%26)
			}
			obj, op := model.ObjectID(fmt.Sprintf("key-%04d", i)), model.Write(model.Value(value))
			resp := twin.Do(obj, op)
			dot, _ := twin.(store.DotReporter).LastDot()
			evs := []Event{
				{Kind: model.ActDo, Lamport: uint64(2*i + 1), Object: obj, Op: op, Rval: resp, Dot: dot},
				{Kind: model.ActSend, Lamport: uint64(2*i + 2), Origin: 1, Seq: uint64(i + 1), Payload: twin.PendingMessage()},
			}
			for _, ev := range evs {
				var w wire.Writer
				if err := AppendEventBinary(&w, ev); err != nil {
					t.Fatal(err)
				}
				journal = append(journal, w.Bytes())
			}
			twin.OnSend()
		}
	}
	mem := &memStorage{logs: map[[2]int][][]byte{{1, 0}: journal}}
	s := looseShard(t, "causal")
	base := liveHeap()
	if _, err := s.open(mem); err != nil {
		t.Fatal(err)
	}
	retained := float64(liveHeap()) - float64(base)
	blocks, n := s.events.recs.Snapshot()
	if n != 2*writes {
		t.Fatalf("restored %d events, want %d", n, 2*writes)
	}
	for _, b := range blocks {
		retained -= float64(cap(b))
	}
	values := float64(writes * valueLen)
	t.Logf("beyond its %d history blocks, a restored shard keeps %.0f B for %.0f B of values", len(blocks), retained, values)
	if retained > 0.1*values {
		t.Errorf("beyond its history blocks, a restored shard keeps %.0f B, more than a tenth of the %.0f B of values it holds", retained, values)
	}
	runtime.KeepAlive(s)
	runtime.KeepAlive(mem)
}
