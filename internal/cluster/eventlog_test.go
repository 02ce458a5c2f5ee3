package cluster

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"net"
	"reflect"
	"slices"
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
	j, _, err := mem.OpenJournal(s.n.cfg.ID, s.n.cfg.N, st.Name(), 0, 1)
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
		kept := s.events.update(s.updates[0].At(i)).Payload
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
	mine := s.events.update(s.updates[s.n.cfg.ID].At(0)).Payload
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

	const events = 64 << 10
	s := looseShard(t, "lww")
	for i := 0; i < events; i++ {
		recordStep(t, s, i, []byte(benchValue))
	}
	var h encodedHistory
	taken := allocBytes(func() { h = s.events.snapshot(History{}) })
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
