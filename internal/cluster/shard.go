package cluster

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/livecheck"
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

// shard is one independent slice of a node: its own store replica, run
// one turn at a time, its own Lamport clock and broadcast sequence domain,
// its own recorded history and durable journal. Each shard is the paper's
// §2 replica in miniature, and its histories audit on their own. Because no
// object ever spans two shards, verdicts on per-object properties
// (well-formedness of each broadcast domain, convergence) compose across
// shards. Causal consistency does not follow: happens-before chains through
// a node's session order across objects, so across shards, and nothing
// records or enforces order between a node's shards. It is not established
// for a sharded node.
type shard struct {
	n   *Node
	idx int

	replica store.Replica
	// reportsVis caches whether the replica implements store.VisReporter:
	// only then do recorded do events carry a frontier (an absent report is
	// recorded as absent, not as an all-zero claim).
	reportsVis bool
	checker    *store.PropertyChecker

	// turn serializes the shard's steps into the single-threaded executions
	// of Definition 1: a step — a client operation, a replicated run, a read
	// of the state below — runs in a turn, which its caller takes on its own
	// goroutine (lock) and gives back with turn.Unlock. No turn starts once
	// the node is closing, and Node.Close waits out the one running, so no
	// journal call follows Close.
	turn sync.Mutex

	// journal, when non-nil, is the per-shard log Config.Storage opened:
	// record stages each event in it and commit makes them durable.
	// closeJournal, when non-nil, runs in Node.Close after the last turn.
	journal      journal
	closeJournal func() error

	// State below is read and written only in a turn.
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
	// What waits on the next commit: how many bytes of records are staged
	// in the journal, the events owed to Config.Tap, and where the records of
	// the shard's own updates minted since start, which links must not read
	// before the records are durable. Each is emptied by commit and reused.
	stagedBytes int
	taps        []livecheck.Event
	unpublished []seglog.Pos
	// scratch is where updatePayload rebuilds a payload its record holds in
	// pieces (a send in short form, eventlog.go), reused call after call.
	scratch []byte
	// updates indexes every broadcast update this shard has, per origin in seq
	// order: updates[o].At(i) is where, in events, the send or receive record
	// of origin o's update i+1 starts, so its length is the origin's
	// watermark — the shard's own broadcast counter for the node itself, the
	// cumulative applied seq for everyone else. The record is the only copy
	// of what replication moves: links send runs of updates[self] and keep
	// positions in it, range serving reads the rest, and both read seq, stamp
	// and payload back out of the record (eventLog.update). logMu guards the
	// index and the block table of events it points into. Only a turn writes
	// either (record, noteUpdate), and a turn reads them bare; a reader
	// outside a turn goes through logLen and logRun, under logMu.
	logMu   sync.RWMutex
	updates []seglog.Log[seglog.Pos]
	// tree is the hash-chain forest over updates, backing digest exchange with
	// joiners. The shard alone owns it: each update is hashed in the turn that
	// records it (noteUpdate, mintSend), and restore rebuilds it that way.
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
		frontier:   make([]uint64, n.cfg.N),
		updates:    make([]seglog.Log[seglog.Pos], n.cfg.N),
		tree:       membership.NewForest(n.cfg.N),
	}
}

// lock takes the shard's turn, or fails with ErrClosed, holding nothing,
// once the node is closing: a caller that was waiting for a busy turn when
// Close began does not start one after it. Pair with s.turn.Unlock.
func (s *shard) lock() error {
	s.turn.Lock()
	select {
	case <-s.n.done:
		s.turn.Unlock()
		return ErrClosed
	default:
		return nil
	}
}

// record appends one event to the shard's history and stages its record —
// the history's copy, so the event is encoded once — in the journal, if
// there is one; the record is durable, and the event tapped, at the turn's
// next commit. A journal failure fail-stops the node. It returns the
// history's own copy of ev.Payload, when the record holds it whole, and where
// the event's record starts (eventLog.append): ev.Payload itself may be
// connection memory or the store's lent message, so the copy is the only
// slice a caller may pass on. A send in short form holds no whole copy:
// eventLog.update rebuilds it. ev.Frontier, and the payload of a send, may
// be lent: they are encoded and shown to a per-event journal for the call,
// and only the tap, which keeps the frontier, is given a copy. A do event
// closes the record openDo opened, if one is open, and its Object and Op.Arg
// are then that head's views, which the journal and the tap may keep. Runs
// in a turn (or in restore, before the node serves).
func (s *shard) record(ev Event) ([]byte, seglog.Pos) {
	s.logMu.Lock() // an append writes the block table logRun reads outside a turn
	rec, payload, at, err := s.events.append(ev)
	s.logMu.Unlock()
	if err != nil {
		panic(err) // the shard built ev itself: only a bug gives it an unknown kind
	}
	if payload != nil {
		ev.Payload = payload
	}
	if s.journal != nil && s.jerr == nil {
		if err := s.journal.stage(ev, rec); err != nil {
			s.failStop(fmt.Errorf("cluster: journal r%d shard %d event %d: %w", s.n.cfg.ID, s.idx, s.events.len()-1, err))
		}
		s.stagedBytes += len(rec)
	}
	// A fail-stopping node streams nothing it cannot also promise to
	// remember, so the streamed prefix is always a prefix of the durable log.
	if s.n.cfg.Tap != nil && s.jerr == nil {
		if ev.Frontier != nil {
			if !slices.Equal(s.tapped, ev.Frontier) {
				s.tapped = slices.Clone(ev.Frontier)
			}
			ev.Frontier = s.tapped
		}
		s.taps = append(s.taps, liveEvent(s.n.cfg.ID, ev))
	}
	return payload, at
}

// commit makes every record staged in the journal durable — one write and
// one fsync, or nothing if the turn staged nothing — and then lets out what
// waited on it: the taps, in record order, and the shard's own new updates,
// which go into the log links read, with each peer nudged. It runs at the
// commit points Config.Storage lists; without a journal, at the end of every
// turn. A fail-stopping node lets out nothing. Runs in a turn.
func (s *shard) commit() {
	if s.stagedBytes > 0 && s.jerr == nil {
		if err := s.journal.commit(); err != nil {
			s.failStop(fmt.Errorf("cluster: journal r%d shard %d commit: %w", s.n.cfg.ID, s.idx, err))
		}
	}
	s.stagedBytes = 0
	if s.jerr != nil {
		return
	}
	for i := range s.taps {
		s.n.cfg.Tap(s.idx, s.taps[i])
	}
	clear(s.taps) // the taps keep their events; the shard keeps no reference
	s.taps = s.taps[:0]
	if len(s.unpublished) == 0 {
		return
	}
	s.logMu.Lock()
	for _, at := range s.unpublished {
		s.updates[s.n.cfg.ID].Append(at)
	}
	s.logMu.Unlock()
	s.unpublished = s.unpublished[:0]
	for _, ps := range s.n.allPeers() {
		ps.nudge()
	}
}

// failStop latches the shard's first failure — its journal's, or a forest
// append's — into jerr and fail-stops the node.
func (s *shard) failStop(err error) {
	if s.jerr == nil {
		s.jerr = err
		s.n.fail(err)
	}
}

// do runs one client operation in a turn: checked store.Do, frontier,
// record, broadcast, commit — before the response leaves. A fail-stopping
// node answers with the journal's error: it must not confirm an operation
// whose event may never have reached the journal.
func (s *shard) do(obj model.ObjectID, op model.Operation) (model.Response, error) {
	if err := s.lock(); err != nil {
		return model.Response{}, err
	}
	defer s.turn.Unlock()
	// The counter moves with the event append, in the turn: a Stats
	// snapshot must never see the op counted but its event missing (or
	// vice versa).
	s.ops.Add(1)
	s.lamport++
	// The record's head is written before the store runs, and the store, the
	// journal and the tap are shown its views of obj and op.Arg: the caller's
	// may be lent, a request's views of its frame.
	obj, op = s.openDo(s.lamport, obj, op)
	resp := s.checker.CheckDo(obj, op)
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
	s.commit()
	return resp, s.jerr
}

// openDo opens the record of a do event and returns its head's views of obj
// and op.Arg (eventLog.openDo), under logMu: an open may start a block, which
// writes the table logRun reads. The next record call closes it.
func (s *shard) openDo(lamport uint64, obj model.ObjectID, op model.Operation) (model.ObjectID, model.Operation) {
	s.logMu.Lock()
	defer s.logMu.Unlock()
	return s.events.openDo(lamport, obj, op, len(s.frontier))
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
// becomes one recorded send event and one update the shard's next commit
// publishes at the end of its own log, where every peer link finds it. Runs
// in a turn.
func (s *shard) broadcastPending() {
	for s.mintSend() {
		s.sends.Add(1)
	}
}

// mintSend turns the replica's next pending message, if it has one, into a
// recorded send event, hashed into the forest, and the next update of the
// shard's own log, published by the next commit — so no link can read an
// update before its record is durable. The record is the copy of the message
// — with the do record before it, when the send leaves out the write's value
// (eventLog.append): it is written, and the message hashed whole, before
// OnSend lets the store reuse its outbox, and where the record starts is all
// the update log is shown. Every forest query runs in a turn, and the turn
// that mints an update commits it before it ends.
func (s *shard) mintSend() bool {
	p := s.replica.PendingMessage()
	if p == nil {
		return false
	}
	seq := uint64(s.updates[s.n.cfg.ID].Len()+len(s.unpublished)) + 1
	s.lamport++
	_, at := s.record(Event{
		Kind: model.ActSend, Lamport: s.lamport,
		Origin: s.n.cfg.ID, Seq: seq, Payload: p,
	})
	if err := s.hash(s.n.cfg.ID, seq, p); err != nil {
		s.failStop(err)
	}
	s.checker.OnSend()
	s.unpublished = append(s.unpublished, at)
	return true
}

// applyUpdate delivers one replicated update in a turn and reports whether
// the journal still holds: false means it failed, so the receive event may
// never be durable and the node is fail-stopping. The receive is staged, not
// committed: see applyRun.
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
		s.n.count[cDupFrames].Add(1)
	case u.Seq > next:
		s.n.count[cGapFrames].Add(1)
	default:
		// u.Payload aliases the receiving connection's frame buffer, which
		// the next frame overwrites. The record is the history-owned copy:
		// it is written first, and what it returns is the only slice
		// anything below is shown, so whatever the store, the update log or
		// the journal retains, it is never connection memory. The update
		// log may count the receive before it is durable: a count leaves
		// the node only in a hello ack or a digest answer, and both commit
		// first.
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
		s.noteUpdateInTurn(u.Origin, u.Seq, at, payload)
		s.broadcastPending()
	}
	return s.jerr == nil
}

// applyRun delivers a decoded, non-empty run of one origin's updates — a
// tBatch frame, an anti-entropy range chunk — in one turn and returns how
// many of the run were new. The error is ErrClosed on a closing node, or
// the journal failure that stopped the run (see applyUpdate; it stops at the
// first update the journal refused). The receives stay staged, to be made
// durable by whatever next commits, unless durable is set (a joiner's range
// chunk, which a restarted join must not pull again), the run minted a send
// of the shard's own, the staged records reach a block, or there is no
// journal, whose commit costs nothing.
func (s *shard) applyRun(us []protoUpdate, durable bool) (int64, error) {
	if err := s.lock(); err != nil {
		return 0, err
	}
	defer s.turn.Unlock()
	log := &s.updates[us[0].Origin]
	before := log.Len()
	for _, u := range us {
		if !s.applyUpdate(u) {
			break
		}
		if s.stagedBytes >= seglog.BlockSize {
			s.commit()
		}
	}
	if durable || len(s.unpublished) > 0 || s.journal == nil {
		s.commit()
	}
	return int64(log.Len() - before), s.jerr
}

// noteUpdate indexes one received or restored update — its record starts at
// `at` in events, and payload is the update's — under its origin and hashes
// it into the forest, after the update's event is recorded. (The shard's own
// broadcast is hashed as it is minted and indexed at the commit that makes
// its record durable, so a link never reads it ahead of the journal.)
func (s *shard) noteUpdate(origin model.ReplicaID, seq uint64, at seglog.Pos, payload []byte) error {
	s.logMu.Lock()
	s.updates[origin].Append(at)
	s.logMu.Unlock()
	return s.hash(origin, seq, payload)
}

// hash appends origin's update seq, whose payload is given, to the forest.
func (s *shard) hash(origin model.ReplicaID, seq uint64, payload []byte) error {
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
// segment boundary; more reports that it did not end with the log. The
// payloads alias the records, which are safe to read without the lock: a
// later append never touches them; a payload rebuilt from a send in short
// form aliases *buf, the caller's other scratch, emptied here, so every
// payload of the run is good until the caller's next call.
func (s *shard) logRun(origin model.ReplicaID, seq uint64, run []protoUpdate, buf *[]byte) (_ []protoUpdate, more bool) {
	run = run[:0]
	*buf = (*buf)[:0]
	s.logMu.RLock()
	defer s.logMu.RUnlock()
	log := &s.updates[origin]
	if seq >= uint64(log.Len()) {
		return run, false
	}
	for _, at := range log.Chunk(int(seq), min(log.Len(), int(seq)+BatchMax)) {
		run = append(run, s.events.update(at, buf))
	}
	return run, int(seq)+len(run) < log.Len()
}

// updatePayload is the forest's membership.Source: the payload of origin's
// update seq, read back out of its record — a slice of it, or, for a send in
// short form, rebuilt in the shard's scratch, good until the next call. Runs
// in a turn, like every forest query.
func (s *shard) updatePayload(origin int, seq uint64) []byte {
	s.scratch = s.scratch[:0]
	return s.events.update(s.updates[origin].At(int(seq-1)), &s.scratch).Payload
}

// noteUpdateInTurn is noteUpdate for a turn's steps, latching a
// failure into jerr (a misaligned forest would corrupt anti-entropy, so
// the node fail-stops like it does on a journal failure).
func (s *shard) noteUpdateInTurn(origin model.ReplicaID, seq uint64, at seglog.Pos, payload []byte) {
	if err := s.noteUpdate(origin, seq, at, payload); err != nil {
		s.failStop(err)
	}
}

// restore replays a previous incarnation's history into the fresh replica
// before the node serves anything, so before any turn; no locking needed.
// See Config.Storage.
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
		// As in record and do, the new history's copies of the payload, the
		// object and the argument are the ones the store and the update log
		// are shown; h's are let go with h. A send that follows its do is
		// written in short form again, so the forest hashes h's payload.
		rec, payload, at, err := s.events.append(ev)
		if err != nil {
			return fmt.Errorf("cluster: restored event %d: %w", i, err)
		}
		switch ev.Kind {
		case model.ActDo:
			obj, op, _ := doHeadViews(rec)
			s.checker.CheckDo(obj, op)
		case model.ActSend:
			if ev.Origin != s.n.cfg.ID {
				return fmt.Errorf("cluster: restored send event %d claims origin r%d", i, ev.Origin)
			}
			s.checker.OnSend()
			if payload == nil {
				payload = ev.Payload
			}
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
	}
	s.commit()
	return s.jerr
}

// snapshot captures this shard's recorded history in one turn, still
// encoded. It fails with ErrClosed on a node that is closing: an empty
// history would read as "this node did nothing".
func (s *shard) snapshot() (encodedHistory, error) {
	id := History{Node: s.n.cfg.ID, N: s.n.cfg.N, Store: s.n.cfg.Store.Name()}
	if s.n.cfg.Shards > 1 {
		id.Shard, id.Shards = s.idx, s.n.cfg.Shards
	}
	if err := s.lock(); err != nil {
		return encodedHistory{History: id}, err
	}
	defer s.turn.Unlock()
	return s.events.snapshot(id), nil
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
