package cluster

import (
	"fmt"
	"slices"
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
// shard is the paper's §2 replica in miniature — Proposition 1's
// per-object projections mean the per-shard histories audit independently
// and their verdicts compose, because no object ever spans two shards.
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

	// journal, when non-nil, persists each recorded event before its ack or
	// response leaves the node (the per-shard log Config.Storage opened).
	// closeJournal, when non-nil, runs in Node.Close after the loops have
	// exited.
	journal      func(Event) error
	closeJournal func() error

	// State below is owned by this shard's event-loop goroutine.
	lamport   uint64
	seq       uint64   // this shard's broadcast sequence counter
	delivered []uint64 // per-origin cumulative applied broadcast seq
	frontier  []uint64 // per-origin visible store-dot prefix
	// lastFrontier is the frontier most recently recorded on a do event.
	// Recorded frontiers are immutable, so consecutive do events that saw
	// the same frontier share this one slice instead of cloning it each.
	lastFrontier []uint64
	// events is the recorded history. It lives in a segment log: the node
	// must keep all of it (it is the only input the checkers accept), but
	// appending to it never re-copies what is already there, so recording
	// an event costs the same behind a million events as behind ten.
	events seglog.Log[Event]
	// jerr latches the first journal failure. Once set, the node is
	// fail-stopping: no further acks are written, operations error, and an
	// async Close is already underway. One shard failing to persist stops
	// the whole node — shards share the fate of their disk.
	jerr error
	// updates indexes every broadcast update this shard holds, per origin in
	// seq order (updates[o][i].Seq == i+1): its own live backlog — what
	// Connect offers a new link — plus everything received, which is what
	// anti-entropy range serving reads. Payloads are shared with the
	// recorded events and immutable once appended. Loop-owned, and
	// segmented for the same reason events is.
	updates []seglog.Log[protoUpdate]
	// tree is the Merkle forest over updates, backing digest exchange with
	// joiners. treeOwned means this shard appends each update's hash itself
	// (in the same loop turn that records it); otherwise the durable layer
	// hashes on journal append — same turn, different owner, never both.
	tree      *membership.Forest
	treeOwned bool

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
		delivered:  make([]uint64, n.cfg.N),
		frontier:   make([]uint64, n.cfg.N),
		updates:    make([]seglog.Log[protoUpdate], n.cfg.N),
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
// configured, persists it in the same event-loop turn — before the
// update's ack or the client's response can leave the node, so an
// acknowledged event is always durable. A journal failure fail-stops the
// node. Runs on the shard's loop (or in restore, before the loop starts).
func (s *shard) record(ev Event) {
	s.events.Append(ev)
	if s.journal != nil && s.jerr == nil {
		if err := s.journal(ev); err != nil {
			s.jerr = fmt.Errorf("cluster: journal r%d shard %d event %d: %w", s.n.cfg.ID, s.idx, s.events.Len()-1, err)
			go s.n.Close()
		}
	}
	// Tap after the journal verdict: a fail-stopping node streams nothing
	// it cannot also promise to remember, so the streamed prefix is always
	// a prefix of the durable log.
	if s.n.cfg.Tap != nil && s.jerr == nil {
		s.n.cfg.Tap(s.idx, liveEvent(s.n.cfg.ID, ev))
	}
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
	if s.reportsVis {
		if !slices.Equal(s.lastFrontier, s.frontier) {
			s.lastFrontier = slices.Clone(s.frontier)
		}
		ev.Frontier = s.lastFrontier
	}
	// Stores without visibility reporting record no frontier at all: an
	// all-zero frontier would claim "this read saw nothing", and BuildAudit
	// would derive read-containment edges from a claim the store never made.
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
// becomes one recorded send event and one update enqueued to every peer
// link, tagged with this shard's index. Runs on the shard's event loop.
func (s *shard) broadcastPending() {
	for {
		p := s.replica.PendingMessage()
		if p == nil {
			return
		}
		payload := append([]byte(nil), p...)
		s.checker.OnSend()
		s.seq++
		s.lamport++
		s.record(Event{
			Kind: model.ActSend, Lamport: s.lamport,
			Origin: s.n.cfg.ID, Seq: s.seq, Payload: payload,
		})
		s.sends.Add(1)
		s.noteUpdateInLoop(s.n.cfg.ID, s.seq, s.lamport, payload)
		u := protoUpdate{Origin: s.n.cfg.ID, Seq: s.seq, Lamport: s.lamport, Payload: payload}
		for _, ps := range s.n.allPeers() {
			ps.enqueue(s.idx, u)
		}
	}
}

// applyUpdate delivers one replication frame on the shard's event loop and
// returns the cumulative applied seq for the update's origin (the ack
// value) plus whether the ack may be written: false means the journal
// failed, so the receive event backing this ack may not be durable.
// Exactly-once, in-order application falls out of the cumulative counter:
// duplicates re-ack, gaps wait for retransmission to fill them.
func (s *shard) applyUpdate(u protoUpdate) (uint64, bool) {
	next := s.delivered[u.Origin] + 1
	switch {
	case u.Seq < next:
		s.n.dupFrames.Add(1)
		s.n.cfg.Observer.AddDupFrames(1)
	case u.Seq > next:
		s.n.gapFrames.Add(1)
		s.n.cfg.Observer.AddGapFrames(1)
	default:
		// u.Payload aliases the receiving connection's frame buffer, which
		// the next frame overwrites. The history-owned copy is made first
		// and is the only slice anything below is shown, so whatever the
		// store, the history, the update index or the journal retains, it
		// is never connection memory.
		payload := append([]byte(nil), u.Payload...)
		s.checker.CheckReceive(payload)
		s.delivered[u.Origin] = u.Seq
		if u.Lamport > s.lamport {
			s.lamport = u.Lamport
		}
		s.lamport++
		s.record(Event{
			Kind: model.ActReceive, Lamport: s.lamport,
			Origin: u.Origin, Seq: u.Seq,
			Payload: payload,
		})
		s.receives.Add(1)
		s.n.cfg.Observer.AddShardReceives(s.idx, 1)
		s.noteUpdateInLoop(u.Origin, u.Seq, u.Lamport, payload)
		s.broadcastPending()
	}
	return s.delivered[u.Origin], s.jerr == nil
}

// noteUpdate indexes one broadcast update into the per-origin backlog and,
// when this shard owns its Merkle forest, hashes it in — always in the
// same turn the update's event is recorded, so backlog, forest, and
// journal never disagree.
func (s *shard) noteUpdate(origin model.ReplicaID, seq, lamport uint64, payload []byte) error {
	s.updates[origin].Append(protoUpdate{Origin: origin, Seq: seq, Lamport: lamport, Payload: payload})
	if s.treeOwned {
		if err := s.tree.Append(int(origin), seq, payload); err != nil {
			return fmt.Errorf("cluster: r%d shard %d merkle append: %w", s.n.cfg.ID, s.idx, err)
		}
	}
	return nil
}

// noteUpdateInLoop is noteUpdate for event-loop callers, latching a
// failure into jerr (a misaligned forest would corrupt anti-entropy, so
// the node fail-stops like it does on a journal failure).
func (s *shard) noteUpdateInLoop(origin model.ReplicaID, seq, lamport uint64, payload []byte) {
	if err := s.noteUpdate(origin, seq, lamport, payload); err != nil && s.jerr == nil {
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
		switch ev.Kind {
		case model.ActDo:
			s.checker.CheckDo(ev.Object, ev.Op)
		case model.ActSend:
			if ev.Origin != s.n.cfg.ID {
				return fmt.Errorf("cluster: restored send event %d claims origin r%d", i, ev.Origin)
			}
			s.checker.OnSend()
			s.seq = ev.Seq
			if err := s.noteUpdate(ev.Origin, ev.Seq, ev.Lamport, append([]byte(nil), ev.Payload...)); err != nil {
				return err
			}
		case model.ActReceive:
			if ev.Payload == nil {
				return fmt.Errorf("cluster: restored receive event %d has no payload (history predates payload recording)", i)
			}
			if int(ev.Origin) < 0 || int(ev.Origin) >= s.n.cfg.N {
				return fmt.Errorf("cluster: restored receive event %d has origin r%d outside cluster", i, ev.Origin)
			}
			payload := ev.Payload
			s.checker.CheckReceive(payload)
			s.delivered[ev.Origin] = ev.Seq
			if err := s.noteUpdate(ev.Origin, ev.Seq, ev.Lamport, payload); err != nil {
				return err
			}
		default:
			return fmt.Errorf("cluster: restored event %d has unknown kind %v", i, ev.Kind)
		}
		if ev.Lamport > s.lamport {
			s.lamport = ev.Lamport
		}
		// Replayed events are appended verbatim, NOT via record: they came
		// from the journal, and re-journaling them would duplicate the log.
		s.events.Append(ev)
	}
	// A message pending at crash time was never recorded as sent: mint its
	// send event now (the history stays well-formed — the send follows
	// every restored event) and add it to the live backlog. Minted events
	// are new, so they go through record and reach the journal.
	for {
		p := s.replica.PendingMessage()
		if p == nil {
			break
		}
		payload := append([]byte(nil), p...)
		s.checker.OnSend()
		s.seq++
		s.lamport++
		s.record(Event{
			Kind: model.ActSend, Lamport: s.lamport,
			Origin: s.n.cfg.ID, Seq: s.seq, Payload: payload,
		})
		if s.jerr != nil {
			return s.jerr
		}
		if err := s.noteUpdate(s.n.cfg.ID, s.seq, s.lamport, payload); err != nil {
			return err
		}
	}
	return nil
}

// history snapshots this shard's recorded history — a flat private copy,
// taken in one loop turn. It fails with ErrClosed on a node that is closing:
// an empty history would read as "this node did nothing".
func (s *shard) history() (History, error) {
	h := History{Node: s.n.cfg.ID, N: s.n.cfg.N, Store: s.n.cfg.Store.Name()}
	if s.n.cfg.Shards > 1 {
		h.Shard, h.Shards = s.idx, s.n.cfg.Shards
	}
	err := s.inLoop(func() { h.Events = s.events.AppendTo(nil) })
	return h, err
}
