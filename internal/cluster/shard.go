package cluster

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/membership"
	"repro/internal/model"
	"repro/internal/seglog"
	"repro/internal/store"
)

// ShardRouter maps object keys onto shard indices. Routing is pure FNV-1a
// over the key bytes, so every node of a cluster (and every client) agrees
// on the placement without coordination — the same property that makes
// (Origin, Seq) message identity work. A router over one shard routes
// everything to shard 0.
type ShardRouter struct {
	shards uint32
}

// NewShardRouter builds a router over the given shard count (minimum 1).
func NewShardRouter(shards int) *ShardRouter {
	if shards < 1 {
		shards = 1
	}
	return &ShardRouter{shards: uint32(shards)}
}

// Shards returns the shard count.
func (r *ShardRouter) Shards() int { return int(r.shards) }

// Route returns the shard index for one object key.
func (r *ShardRouter) Route(obj model.ObjectID) int {
	if r.shards == 1 {
		return 0
	}
	// FNV-1a, inlined over the string: hash/fnv would cost a hasher and a
	// []byte copy of the key per request.
	h := uint32(2166136261)
	for i := 0; i < len(obj); i++ {
		h = (h ^ uint32(obj[i])) * 16777619
	}
	return int(h % r.shards)
}

// shard is one independent slice of a node: its own store replica behind
// its own single-goroutine event loop, its own Lamport clock and broadcast
// sequence domain, its own recorded history and durable journal. Each
// shard is the paper's §2 replica in miniature, and its histories audit on
// their own. Because no object ever spans two shards, verdicts on
// per-object properties (well-formedness of each broadcast domain,
// convergence) compose across shards. Causal consistency does not follow:
// happens-before chains through a node's session order across objects, so
// across shards, and nothing records or enforces order between a node's
// shards. It is not established for a sharded node.
type shard struct {
	n   *Node
	idx int

	replica store.Replica
	// reportsVis caches whether the replica implements store.VisReporter:
	// only then do recorded do events carry a frontier (an absent report is
	// recorded as absent, not as an all-zero claim).
	reportsVis bool
	checker    *store.PropertyChecker

	// calls hands work to the loop. A call is a value — the function to run
	// and the channel to signal when it has run — so a caller that keeps
	// both (a connection handler does, for the life of its connection)
	// crosses into the loop without allocating. See handoff.
	calls chan loopCall

	// journal, when non-nil, persists each recorded event before a hello ack
	// counting it or a response leaves the node (the per-shard log Config.Storage opened).
	// closeJournal, when non-nil, runs in Node.Close after the loops have
	// exited.
	journal      func(Event) error
	closeJournal func() error

	// State below is owned by this shard's event-loop goroutine.
	lamport uint64
	// frontier is the per-origin visible store-dot prefix. A do event
	// records it as it stands: the record encodes it, and the journal is
	// shown it for the call only.
	frontier []uint64
	// tapped is the frontier most recently streamed to Config.Tap, the one
	// consumer that keeps it. Streamed frontiers are immutable, so
	// consecutive do events that saw the same frontier share this one slice
	// instead of cloning it each.
	tapped []uint64
	// events is the recorded history, in its codec form (eventlog.go). The
	// node must keep all of it (it is the only input the checkers accept),
	// but appending to it never re-copies what is already there, so
	// recording an event costs the same behind a million events as behind
	// ten.
	events eventLog
	// jerr latches the first journal failure. Once set, the node is
	// fail-stopping: no hello is answered, operations error, and an
	// async Close is already underway. One shard failing to persist stops
	// the whole node — shards share the fate of their disk.
	jerr error
	// updates indexes every broadcast update this shard has, per origin in seq
	// order: updates[o].At(i) is where, in events, the send or receive record
	// of origin o's update i+1 starts, so its length is the origin's
	// watermark — the shard's own broadcast counter for the node itself, the
	// cumulative applied seq for everyone else. The record is the only copy
	// of what replication moves: links send runs of updates[self] and keep
	// positions in it, range serving reads the rest, and both read seq, stamp
	// and payload back out of the record (eventLog.update). logMu guards the
	// index and the block table of events it points into. The loop is the
	// only writer of either (record, noteUpdate) and reads them bare; every
	// other goroutine reads through logLen and logRun, under logMu.
	logMu   sync.RWMutex
	updates []seglog.Log[seglog.Pos]
	// tree is the hash-chain forest over updates, backing digest exchange with
	// joiners. The shard alone owns it: noteUpdate hashes each update in the
	// turn that recorded and journaled it, and restore rebuilds it that way.
	tree *membership.Forest

	ops      atomic.Int64
	sends    atomic.Int64
	receives atomic.Int64
}

func newShard(n *Node, idx int) *shard {
	replica := n.cfg.Store.NewReplica(n.cfg.ID, n.cfg.N)
	_, reportsVis := replica.(store.VisReporter)
	return &shard{
		n:          n,
		idx:        idx,
		replica:    replica,
		reportsVis: reportsVis,
		checker:    store.NewPropertyChecker(replica),
		calls:      make(chan loopCall),
		frontier:   make([]uint64, n.cfg.N),
		updates:    make([]seglog.Log[seglog.Pos], n.cfg.N),
		tree:       membership.NewForest(n.cfg.N),
	}
}

// loop is the shard's event loop: the only goroutine that touches the
// replica and the recorded history, serializing concurrent clients and
// peer deliveries into the single-threaded executions of Definition 1.
func (s *shard) loop() {
	defer s.n.wg.Done()
	for {
		select {
		case c := <-s.calls:
			c.fn()
			c.done <- struct{}{}
		case <-s.n.done:
			return
		}
	}
}

// loopCall is one unit of work for a shard's event loop: the loop runs fn,
// then signals done. done has capacity 1, so the loop never waits for its
// caller to be scheduled.
type loopCall struct {
	fn   func()
	done chan struct{}
}

// handoff runs fn on the shard's event loop and waits for it to finish,
// signalling through the caller's done channel (capacity 1, empty, and not
// shared with a concurrent handoff). It allocates nothing, so a caller that
// reuses fn and done — reading its arguments from, and writing its results
// to, a struct fn closes over — pays nothing per crossing. Whatever fn
// wrote is visible to the caller once handoff returns: the receive on done
// orders it. calls is unbuffered, so a successful send means the loop
// goroutine received the call and is committed to running it — after that
// the only correct move is to wait for completion.
func (s *shard) handoff(fn func(), done chan struct{}) error {
	select {
	case s.calls <- loopCall{fn, done}:
		<-done
		return nil
	case <-s.n.done:
		return ErrClosed
	}
}

// inLoop is handoff with a throw-away done channel, for callers off the
// serving path (Stats, History, Connect, membership).
func (s *shard) inLoop(fn func()) error {
	return s.handoff(fn, make(chan struct{}, 1))
}

// record appends one event to the shard's history and, when a journal is
// configured, persists it in the same event-loop turn — before a hello ack
// counting the update or the client's response can leave the node, so an
// acknowledged event is always durable. A journal failure fail-stops the
// node. It returns the history's own copy of ev.Payload and where the
// event's record starts (eventLog.append): ev.Payload itself may be
// connection memory or the store's lent message, so the copy is what the
// journal is handed and the only slice a caller may pass on. ev.Frontier
// may be the shard's live frontier: it is encoded and shown to the journal,
// and only the tap, which keeps it, is given a copy. Runs on the shard's
// loop (or in restore, before the loop starts).
func (s *shard) record(ev Event) ([]byte, seglog.Pos) {
	s.logMu.Lock() // an append writes the block table logRun reads off the loop
	payload, at, err := s.events.append(ev)
	s.logMu.Unlock()
	if err != nil {
		panic(err) // the shard built ev itself: only a bug gives it an unknown kind
	}
	ev.Payload = payload
	if s.journal != nil && s.jerr == nil {
		if err := s.journal(ev); err != nil {
			s.jerr = fmt.Errorf("cluster: journal r%d shard %d event %d: %w", s.n.cfg.ID, s.idx, s.events.len()-1, err)
			go s.n.Close()
		}
	}
	// Tap after the journal verdict: a fail-stopping node streams nothing
	// it cannot also promise to remember, so the streamed prefix is always
	// a prefix of the durable log.
	if s.n.cfg.Tap != nil && s.jerr == nil {
		if ev.Frontier != nil {
			if !slices.Equal(s.tapped, ev.Frontier) {
				s.tapped = slices.Clone(ev.Frontier)
			}
			ev.Frontier = s.tapped
		}
		s.n.cfg.Tap(s.idx, liveEvent(s.n.cfg.ID, ev))
	}
	return payload, at
}

func (s *shard) doInLoop(obj model.ObjectID, op model.Operation) model.Response {
	// The counter moves with the event append, inside the loop: a Stats
	// snapshot must never see the op counted but its event missing (or
	// vice versa).
	s.ops.Add(1)
	resp := s.checker.CheckDo(obj, op)
	s.lamport++
	ev := Event{Kind: model.ActDo, Lamport: s.lamport, Object: obj, Op: op, Rval: resp}
	if op.Kind.IsMutator() {
		if dr, ok := s.replica.(store.DotReporter); ok {
			if d, has := dr.LastDot(); has {
				ev.Dot = d
			}
		}
	}
	s.advanceFrontier()
	// Stores without visibility reporting record no frontier at all: an
	// all-zero frontier would claim "this read saw nothing", and BuildAudit
	// would derive read-containment edges from a claim the store never made.
	if s.reportsVis {
		ev.Frontier = s.frontier
	}
	s.record(ev)
	s.broadcastPending()
	return resp
}

// advanceFrontier pushes each origin's visible prefix forward by probing
// the store's own visibility report.
func (s *shard) advanceFrontier() {
	vr, ok := s.replica.(store.VisReporter)
	if !ok {
		return
	}
	for o := range s.frontier {
		for vr.Sees(model.Dot{Origin: model.ReplicaID(o), Seq: s.frontier[o] + 1}) {
			s.frontier[o]++
		}
	}
}

// broadcastPending drains the replica's outbox: each pending message
// becomes one recorded send event and one update at the end of the shard's
// own log, where every peer link finds it. Runs on the shard's event loop.
func (s *shard) broadcastPending() {
	minted := false
	for s.mintSend() {
		s.sends.Add(1)
		minted = true
	}
	if minted {
		for _, ps := range s.n.allPeers() {
			ps.nudge()
		}
	}
}

// mintSend turns the replica's next pending message, if it has one, into a
// recorded send event and the next update of the shard's own log — in that
// order, so no link can read an update record has not journaled. The record
// is the copy of the message: it is written before OnSend lets the store
// reuse its outbox, and what it returns is all the update log is shown.
func (s *shard) mintSend() bool {
	p := s.replica.PendingMessage()
	if p == nil {
		return false
	}
	seq := uint64(s.updates[s.n.cfg.ID].Len()) + 1
	s.lamport++
	payload, at := s.record(Event{
		Kind: model.ActSend, Lamport: s.lamport,
		Origin: s.n.cfg.ID, Seq: seq, Payload: p,
	})
	s.checker.OnSend()
	s.noteUpdateInLoop(s.n.cfg.ID, seq, at, payload)
	return true
}

// applyUpdate delivers one replicated update on the shard's event loop and
// reports whether the journal still holds: false means it failed, so the
// receive event may not be durable and the node is fail-stopping.
// Exactly-once, in-order application falls out of the cumulative counter:
// duplicates (a dup fault, or a resend of what a dead connection carried)
// are counted and dropped. A link delivers in order and resends from this
// node's hello-ack watermark, so a gap means this node lost updates it had
// acknowledged; the frame is counted and dropped, and that link stays stuck.
func (s *shard) applyUpdate(u protoUpdate) bool {
	log := &s.updates[u.Origin]
	next := uint64(log.Len()) + 1
	switch {
	case u.Seq < next:
		s.n.dupFrames.Add(1)
	case u.Seq > next:
		s.n.gapFrames.Add(1)
	default:
		// u.Payload aliases the receiving connection's frame buffer, which
		// the next frame overwrites. The record is the history-owned copy:
		// it is written first, and what it returns is the only slice
		// anything below is shown, so whatever the store, the update log or
		// the journal retains, it is never connection memory.
		if u.Lamport > s.lamport {
			s.lamport = u.Lamport
		}
		s.lamport++
		payload, at := s.record(Event{
			Kind: model.ActReceive, Lamport: s.lamport,
			Origin: u.Origin, Seq: u.Seq,
			Payload: u.Payload,
		})
		s.checker.CheckReceive(payload)
		s.receives.Add(1)
		s.noteUpdateInLoop(u.Origin, u.Seq, at, payload)
		s.broadcastPending()
	}
	return s.jerr == nil
}

// applyRun delivers a decoded, non-empty run of one origin's updates — a
// tBatch frame, an anti-entropy range chunk — in one loop turn and returns
// how many of the run were new and whether the journal still holds (see
// applyUpdate; it stops at the first update the journal refused).
func (s *shard) applyRun(us []protoUpdate) (applied int64, ok bool) {
	log := &s.updates[us[0].Origin]
	before := log.Len()
	ok = true
	for _, u := range us {
		if ok = s.applyUpdate(u); !ok {
			break
		}
	}
	return int64(log.Len() - before), ok
}

// noteUpdate indexes one broadcast update — its record starts at `at` in
// events, and payload is that record's — under its origin and hashes it into
// the forest: always in the same turn the update's event is recorded
// and journaled, and after it, so log, forest, and journal never disagree
// and a reader of the log never runs ahead of the journal.
func (s *shard) noteUpdate(origin model.ReplicaID, seq uint64, at seglog.Pos, payload []byte) error {
	s.logMu.Lock()
	s.updates[origin].Append(at)
	s.logMu.Unlock()
	if err := s.tree.Append(int(origin), seq, payload); err != nil {
		return fmt.Errorf("cluster: r%d shard %d forest append: %w", s.n.cfg.ID, s.idx, err)
	}
	return nil
}

// logLen returns how many of origin's updates the shard holds — origin's
// watermark — from any goroutine.
func (s *shard) logLen(origin model.ReplicaID) uint64 {
	s.logMu.RLock()
	defer s.logMu.RUnlock()
	return uint64(s.updates[origin].Len())
}

// logRun reads origin's updates after seq back out of their records, from
// any goroutine, into run[:0] — the caller's scratch, reused call after call
// — and returns it: at most BatchMax of them, and only as many as are
// contiguous in the index, so a run ends with the log, at BatchMax or at a
// segment boundary. The payloads alias the records, which are safe to read
// without the lock: a later append never touches them.
func (s *shard) logRun(origin model.ReplicaID, seq uint64, run []protoUpdate) []protoUpdate {
	run = run[:0]
	s.logMu.RLock()
	defer s.logMu.RUnlock()
	log := &s.updates[origin]
	if seq >= uint64(log.Len()) {
		return run
	}
	for _, at := range log.Chunk(int(seq), min(log.Len(), int(seq)+BatchMax)) {
		run = append(run, s.events.update(at))
	}
	return run
}

// updatePayload is the forest's membership.Source: the payload of origin's
// update seq, read back out of its record. Runs on the shard's loop, like
// every forest query.
func (s *shard) updatePayload(origin int, seq uint64) []byte {
	return s.events.update(s.updates[origin].At(int(seq - 1))).Payload
}

// noteUpdateInLoop is noteUpdate for event-loop callers, latching a
// failure into jerr (a misaligned forest would corrupt anti-entropy, so
// the node fail-stops like it does on a journal failure).
func (s *shard) noteUpdateInLoop(origin model.ReplicaID, seq uint64, at seglog.Pos, payload []byte) {
	if err := s.noteUpdate(origin, seq, at, payload); err != nil && s.jerr == nil {
		s.jerr = err
		go s.n.Close()
	}
}

// restore replays a previous incarnation's history into the fresh replica
// before the node serves anything. Runs before the event-loop goroutine
// starts; no locking needed. See Config.Storage.
func (s *shard) restore(h *History) error {
	if h.Node != s.n.cfg.ID {
		return fmt.Errorf("cluster: restoring r%d's history into r%d", h.Node, s.n.cfg.ID)
	}
	if h.N != s.n.cfg.N {
		return fmt.Errorf("cluster: restored history is for a cluster of %d, node configured for %d", h.N, s.n.cfg.N)
	}
	for i, ev := range h.Events {
		// Replayed events are appended verbatim, NOT via record: they came
		// from the journal, and re-journaling them would duplicate the log.
		// As in record, the new history's copy of the payload is the one the
		// store and the update log are shown; h's is let go with h.
		payload, at, err := s.events.append(ev)
		if err != nil {
			return fmt.Errorf("cluster: restored event %d: %w", i, err)
		}
		switch ev.Kind {
		case model.ActDo:
			s.checker.CheckDo(ev.Object, ev.Op)
		case model.ActSend:
			if ev.Origin != s.n.cfg.ID {
				return fmt.Errorf("cluster: restored send event %d claims origin r%d", i, ev.Origin)
			}
			s.checker.OnSend()
			if err := s.noteUpdate(ev.Origin, ev.Seq, at, payload); err != nil {
				return err
			}
		case model.ActReceive:
			if payload == nil {
				return fmt.Errorf("cluster: restored receive event %d has no payload (history predates payload recording)", i)
			}
			if int(ev.Origin) < 0 || int(ev.Origin) >= s.n.cfg.N {
				return fmt.Errorf("cluster: restored receive event %d has origin r%d outside cluster", i, ev.Origin)
			}
			s.checker.CheckReceive(payload)
			if err := s.noteUpdate(ev.Origin, ev.Seq, at, payload); err != nil {
				return err
			}
		}
		if ev.Lamport > s.lamport {
			s.lamport = ev.Lamport
		}
	}
	// A message pending at crash time was never recorded as sent: mint its
	// send event now (the history stays well-formed — the send follows
	// every restored event) at the end of the shard's own log. Minted events
	// are new, so they go through record and reach the journal.
	for s.mintSend() {
		if s.jerr != nil {
			return s.jerr
		}
	}
	return nil
}

// snapshot captures this shard's recorded history in one loop turn, still
// encoded. It fails with ErrClosed on a node that is closing: an empty
// history would read as "this node did nothing".
func (s *shard) snapshot() (encodedHistory, error) {
	id := History{Node: s.n.cfg.ID, N: s.n.cfg.N, Store: s.n.cfg.Store.Name()}
	if s.n.cfg.Shards > 1 {
		id.Shard, id.Shards = s.idx, s.n.cfg.Shards
	}
	h := encodedHistory{History: id}
	err := s.inLoop(func() { h = s.events.snapshot(id) })
	return h, err
}

// history snapshots this shard's recorded history and decodes it, on the
// caller's goroutine, into a private History.
func (s *shard) history() (History, error) {
	h, err := s.snapshot()
	if err != nil {
		return h.History, err
	}
	return h.decode()
}
