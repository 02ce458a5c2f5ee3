// Package cluster runs the paper's replicated data stores over real TCP
// connections. Each Node wraps one store.Replica behind a single-goroutine
// event loop — preserving the §2 single-threaded state-machine contract —
// and exchanges the replica's broadcast messages with its peers through a
// length-framed protocol (internal/wire) that provides reliable eventual
// delivery: per-peer cursors over each shard's log of its own broadcasts,
// cumulative acknowledgements, and reconnection on failure, which resends
// what the peer has not acknowledged. A connection itself is trusted to be
// TCP: it delivers every frame in order or dies.
// Unlike the lossy schedules internal/sim can produce (see sim.ErrLossyRun),
// the transport makes Definition 3 hold on a network that drops and resets
// connections, so quiescence still owes convergence (Lemma 3).
//
// Every do, send, and receive event is recorded locally with a Lamport
// timestamp. After a run, AuditShards merges the per-node histories into a
// concrete execution (execution.CheckWellFormed) and replays them through
// internal/livecheck, the causal checker a running cluster taps; the tests
// hold it to consistency.CheckCausal over BuildAudit's abstract execution.
//
// Contract:
//
//   - OWNS: the frame types and the one protocol version (proto.go,
//     proto_member.go, compress.go), replication links and their cursors,
//     the per-shard event loops, recorded histories and update logs,
//     membership over connections, and the NodeStorage seam durable state
//     enters through. The history is held in its codec form (eventlog.go);
//     Event is the decoded view handed to journals, taps and auditors.
//   - MUST NOT: marshal JSON (the struct tags on Event, History and Stats
//     serve the admin endpoint in cmd/served; wire and journal are binary),
//     open a file, or keep a second way to do what a frame, a Config field
//     or a code path here already does — a format change bumps
//     protoVersion, it does not add a branch. A link holds positions, never
//     updates, and so does the shard: an update's send or receive record in
//     the history is the only copy of what is sent, served and counted,
//     shard.updates says where each is, and the chunking rule lives in
//     cutBatch only. A payload has one home, that record: the forest, the
//     journal, the store and every frame are shown a slice of it, never a
//     second copy, and never connection memory or a store's outbox.
//   - MUST NOT import: internal/durable (it imports this package for Event
//     and NodeStorage), cmd/..., or the simulator.
package cluster

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/livecheck"
	"repro/internal/membership"
	"repro/internal/model"
	"repro/internal/store"
	"repro/internal/wire"
)

// ErrClosed is returned by operations on a node that has shut down.
var ErrClosed = errors.New("cluster: node closed")

// Config describes one node of a cluster.
type Config struct {
	// ID is this node's replica ID (0-based, unique in the cluster).
	ID model.ReplicaID
	// N is the cluster size.
	N int
	// Store builds the replica this node serves.
	Store store.Store
	// Listen is the TCP address to listen on ("127.0.0.1:0" for tests).
	Listen string
	// Peers maps peer replica IDs to their listen addresses. May be left
	// nil and supplied later via Connect (e.g. when addresses are only
	// known after every listener is up).
	Peers map[model.ReplicaID]string

	// Seed seeds the per-peer redial jitter streams and the gossip target
	// order, split per (node, peer) with gen.SplitSeed: runs with the same
	// seed reproduce redial timing. Zero is a valid seed.
	Seed int64
	// Faults, when non-nil, is the shared in-process network emulator:
	// every connection between two nodes — replication, gossip, join — is
	// wrapped on both the dial side and the accept side (Node.dial,
	// Node.shape), so the emulator's partitions, cuts, and per-link shaping
	// windows apply to whatever this node writes toward a peer.
	Faults *fault.Netem
	// Storage, when non-nil, is the node's durable state: NewNode opens it
	// once per shard before serving and closes each log after the event
	// loops exit. What Open returns is the whole contract (see
	// NodeStorage): the journal is invoked on the shard's event loop with
	// each do/send/receive event as it is appended to the local history and
	// must make it durable before returning — the call happens in the same
	// loop turn that records the event, before the update's acknowledgement
	// or the client's response leaves the node, so an event any peer holds
	// an ack for is always in the journal. A journal error fail-stops the
	// node: it suppresses the pending ack, refuses further operations, and
	// closes, because a replica that cannot persist must not promise
	// delivery. The restored history is replayed into the fresh replica
	// before anything is served: the Lamport clock and sequence counters
	// resume where they left off, and every past broadcast is re-offered to
	// the peers (receivers deduplicate by cumulative sequence number).
	// Replayed events are not re-journaled. The Supervisor threads Storage
	// through crash/restart directives, so chaos schedules exercise
	// recovery instead of handing histories through memory.
	Storage NodeStorage
	// Tap, when non-nil, receives every event this node records — do,
	// send, receive — in the same event-loop turn that records it,
	// immediately after the journal (if any) accepted it, so the streamed
	// prefix never runs ahead of the durable log and a restart can never
	// regress the stream. The first argument is the recording shard's index;
	// per-shard event streams have independent (Origin, Seq) domains, so a
	// sharded consumer must keep one checker per shard
	// (livecheck.ShardSet). Events replayed from Storage are not re-tapped
	// (their first recording was); sends
	// re-minted during restore are new events and are. The callback runs on
	// the recording shard's event loop: it must return quickly and must not
	// call back into the node. The event is the tap's to keep, Frontier
	// included: a do event's frontier is an immutable copy, cloned only when
	// it differs from the previous one streamed, so consecutive do events
	// that saw the same frontier share one slice and none may be written
	// through. Intended for internal/livecheck; the
	// Supervisor copies it into every restart incarnation like the rest of
	// the base config.
	Tap func(shard int, ev livecheck.Event)

	// Shards splits this node's keyspace across that many independent
	// event loops (default 1): a ShardRouter hashes each object key to one
	// shard, which owns its own store replica, Lamport clock, broadcast
	// sequence domain, recorded history, and (under Storage) its own
	// durable log. Replication links multiplex every shard over one
	// connection; all nodes of a cluster must agree on the count, and links
	// to peers announcing a different count fail-stop, as does a join through
	// a seed of another count.
	Shards int

	// Join, when non-nil, lists seed nodes (id → address) to join the
	// cluster through instead of (or in addition to) static Peers: NewNode
	// dials a seed, announces itself with a tJoin frame, adopts the seed's
	// membership view, catches up on missing history via anti-entropy
	// (pulling only the ranges its durable log lacks), and
	// only then enters normal replication. NewNode blocks until one seed
	// admits the node or a permanent refusal (divergent or lost history)
	// aborts it.
	Join map[model.ReplicaID]string
	// GossipInterval paces the membership gossip loop (default 200ms).
	// Gossip only runs once the node is membership-dynamic: it joined via
	// Join, was asked to Leave, or heard a tJoin/tGossip frame. A static
	// cluster never gossips.
	GossipInterval time.Duration
	// SyncChunkDelay, when positive, makes this node pause between
	// anti-entropy range chunks it serves to a joiner — a test knob that
	// holds a sync open long enough to kill -9 the joiner mid-pull.
	SyncChunkDelay time.Duration
	// MaxFrame bounds replication and request frames (wire.DefaultMaxFrame
	// if zero); history transfers use the larger historyMaxFrame.
	MaxFrame int
	// DialTimeout bounds one TCP dial attempt.
	DialTimeout time.Duration
	// DialBackoffMin/Max bound the reconnect backoff.
	DialBackoffMin, DialBackoffMax time.Duration
	// WriteTimeout bounds one frame write.
	WriteTimeout time.Duration
}

// NodeStorage provides per-incarnation durable storage for a node's
// recorded history (implemented by durable.Storage). Open is called once
// per incarnation and shard, before the node serves anything: journal
// persists each newly recorded event — ev and its Frontier are valid only
// for the call (a do event's Frontier is the shard's live frontier, which
// the next do moves on), so a journal that keeps the event clones the
// frontier, while ev.Payload is the history's own immutable copy and may be
// kept as it is — restore is the recovered history of
// the previous incarnation (nil on first boot), and closeLog (nil for none)
// is invoked after the event loop has exited. shard/shards name which of
// the node's shard logs to open. tree is ignored (implementations return
// nil): the shard alone owns its forest and rebuilds it from restore.
// The result stays only because the frozen benchmark/trace.go implements
// this interface; it goes with the next benchmark PR (ROADMAP item 1(c)).
type NodeStorage interface {
	Open(id model.ReplicaID, n int, storeName string, shard, shards int) (journal func(Event) error, restore *History, tree *membership.Forest, closeLog func() error, err error)
}

func (c Config) withDefaults() Config {
	if c.MaxFrame == 0 {
		c.MaxFrame = wire.DefaultMaxFrame
	}
	if c.Shards == 0 {
		c.Shards = 1
	}
	def := func(d *time.Duration, v time.Duration) {
		if *d == 0 {
			*d = v
		}
	}
	def(&c.DialTimeout, 2*time.Second)
	def(&c.DialBackoffMin, 50*time.Millisecond)
	def(&c.DialBackoffMax, 2*time.Second)
	def(&c.WriteTimeout, 5*time.Second)
	def(&c.GossipInterval, 200*time.Millisecond)
	return c
}

// Stats is a point-in-time snapshot of a node's counters, served to
// clients over the wire (cmd/loadgen aggregates them into its report).
// The snapshot is coherent: every field is captured in one event-loop
// turn, so Events always equals Ops+Sends+Receives for a node that did
// not restore a prior history, and Quiesced agrees with the counters it
// is reported next to.
type Stats struct {
	Node        model.ReplicaID `json:"node"`
	Store       string          `json:"store"`
	Ops         int64           `json:"ops"`
	Sends       int64           `json:"sends"`
	Receives    int64           `json:"receives"`
	Events      int64           `json:"events"`
	BytesOut    int64           `json:"bytes_out"`
	FramesOut   int64           `json:"frames_out,omitempty"`
	Retransmits int64           `json:"retransmits"`
	Reconnects  int64           `json:"reconnects"`
	DupFrames   int64           `json:"dup_frames"`
	GapFrames   int64           `json:"gap_frames"`
	Violations  int             `json:"violations"`
	Quiesced    bool            `json:"quiesced"`
	// Members is how many nodes this node's membership view currently
	// considers alive (including itself).
	Members int `json:"members,omitempty"`
	// SyncPulled counts updates this node applied from anti-entropy range
	// pulls while joining; SyncServed counts updates it shipped to joiners.
	// The pair is the byte-range evidence that a join moved only the
	// missing ranges, not the whole log.
	SyncPulled int64 `json:"sync_pulled,omitempty"`
	SyncServed int64 `json:"sync_served,omitempty"`
	// FailedLinks counts replication links that fail-stopped on a terminal
	// sender error (an update the frame limit can never carry). A non-zero
	// value means some peer will not converge through this node's direct
	// link; the node itself keeps serving.
	FailedLinks int64 `json:"failed_links,omitempty"`
	// Shards is the node's shard count; the per-shard slices below (one
	// entry per shard, indexed by shard) break the aggregate counters down
	// so load balance across shards is observable. Each aggregate is the sum
	// of its slice — on an unsharded node, its one entry.
	Shards        int     `json:"shards,omitempty"`
	ShardOps      []int64 `json:"shard_ops,omitempty"`
	ShardSends    []int64 `json:"shard_sends,omitempty"`
	ShardReceives []int64 `json:"shard_receives,omitempty"`
	ShardEvents   []int64 `json:"shard_events,omitempty"`
}

// Add accumulates o's counters into s — the sum over the nodes of a cluster,
// or over the incarnations of one. What describes a single node (Node, Store,
// Quiesced, Members, the per-shard breakdown) is left alone.
func (s *Stats) Add(o Stats) {
	s.Ops += o.Ops
	s.Sends += o.Sends
	s.Receives += o.Receives
	s.Events += o.Events
	s.BytesOut += o.BytesOut
	s.FramesOut += o.FramesOut
	s.Retransmits += o.Retransmits
	s.Reconnects += o.Reconnects
	s.DupFrames += o.DupFrames
	s.GapFrames += o.GapFrames
	s.Violations += o.Violations
	s.SyncPulled += o.SyncPulled
	s.SyncServed += o.SyncServed
	s.FailedLinks += o.FailedLinks
}

// Node is one replica of a TCP-backed cluster. Its keyspace is split
// across cfg.Shards independent shards (see shard.go); an unsharded node
// is simply the one-shard case.
type Node struct {
	cfg Config
	ln  net.Listener

	// router maps object keys to shards; shards holds one independent
	// event loop + replica + history per shard. Both are immutable after
	// NewNode.
	router *ShardRouter
	shards []*shard

	done chan struct{}
	wg   sync.WaitGroup

	// view is this node's convergent membership picture. Internally locked;
	// epoch is this incarnation's announcement epoch: 0 until a join finds a
	// record of this node it must supersede (joinVia's auto-epoch rule).
	view  *membership.View
	epoch atomic.Uint64
	// dynamic flips once membership is in play (Join config, Leave, or a
	// tJoin/tGossip heard) and starts the gossip loop; static clusters
	// never pay for it.
	dynamic    atomic.Bool
	syncPulled atomic.Int64
	syncServed atomic.Int64

	// peers is written only by connect and disconnectPeer, under peerMu;
	// each republishes peerList, the same senders as an immutable snapshot
	// the shard loops read per broadcast without locking or allocating
	// (allPeers). Its order means nothing: a broadcast only nudges them.
	peerMu   sync.Mutex
	peers    map[model.ReplicaID]*peerSender
	peerList atomic.Pointer[[]*peerSender]

	connMu sync.Mutex
	conns  map[net.Conn]struct{} // accepted connections

	// Transport counters, bumped where the event happens (a link's sender, a
	// shard's loop) and kept on the node, so they outlive links and only grow.
	bytesOut    atomic.Int64
	framesOut   atomic.Int64
	retransmits atomic.Int64
	reconnects  atomic.Int64
	dupFrames   atomic.Int64
	gapFrames   atomic.Int64

	// restored counts events replayed from restored histories at boot.
	restored int64

	closeOnce sync.Once
}

// NewNode opens the listener, starts the per-shard event loops, and — if
// cfg.Peers is set — starts the replication links. It does not block on
// peers being up: links dial in the background and retry until the peer
// appears.
func NewNode(cfg Config) (*Node, error) {
	cfg = cfg.withDefaults()
	if cfg.Store == nil {
		return nil, errors.New("cluster: Config.Store is required")
	}
	if cfg.N < 1 {
		return nil, fmt.Errorf("cluster: invalid cluster size %d", cfg.N)
	}
	if int(cfg.ID) < 0 || int(cfg.ID) >= cfg.N {
		return nil, fmt.Errorf("cluster: node ID r%d outside cluster of %d", cfg.ID, cfg.N)
	}
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("cluster: invalid shard count %d", cfg.Shards)
	}
	ln, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		return nil, fmt.Errorf("cluster: listen %s: %w", cfg.Listen, err)
	}
	n := &Node{
		cfg:    cfg,
		ln:     ln,
		router: NewShardRouter(cfg.Shards),
		done:   make(chan struct{}),
		peers:  make(map[model.ReplicaID]*peerSender),
		conns:  make(map[net.Conn]struct{}),
		view:   membership.NewView(),
	}

	// closeAll unwinds a partially constructed node: listener plus every
	// shard log opened so far.
	closeAll := func() {
		ln.Close()
		for _, s := range n.shards {
			if s != nil && s.closeJournal != nil {
				s.closeJournal()
			}
		}
	}
	n.shards = make([]*shard, cfg.Shards)
	for i := range n.shards {
		s := newShard(n, i)
		n.shards[i] = s
		var restored *History
		if cfg.Storage != nil {
			var err error
			s.journal, restored, _, s.closeJournal, err = cfg.Storage.Open(cfg.ID, cfg.N, cfg.Store.Name(), i, cfg.Shards)
			if err != nil {
				closeAll()
				return nil, fmt.Errorf("cluster: open storage for r%d shard %d: %w", cfg.ID, i, err)
			}
		}
		if restored != nil {
			if err := s.restore(restored); err != nil {
				closeAll()
				return nil, err
			}
			n.restored += int64(len(restored.Events))
		}
	}

	// Seed the view: self plus every statically named peer, at epoch 0 —
	// later gossip (with real epochs) supersedes these placeholders.
	n.view.Merge(membership.Member{ID: int(cfg.ID), Addr: n.Addr()})
	for id, addr := range cfg.Peers {
		n.view.Merge(membership.Member{ID: int(id), Addr: addr})
	}
	n.wg.Add(1 + len(n.shards))
	for _, s := range n.shards {
		go s.loop()
	}
	go n.acceptLoop()
	if cfg.Join != nil {
		// Join owns link setup: it syncs, announces, and connects to every
		// alive member (statically named peers were merged into the view
		// above), so the static Connect below would only race it.
		if err := n.join(); err != nil {
			n.Close()
			return nil, err
		}
	} else if cfg.Peers != nil {
		if err := n.Connect(cfg.Peers); err != nil {
			n.Close()
			return nil, err
		}
	}
	return n, nil
}

// Restored returns how many events NewNode replayed from restored
// histories (all shards). Informational; stable after NewNode.
func (n *Node) Restored() int64 { return n.restored }

// Addr returns the listener's address (resolving ":0" ports).
func (n *Node) Addr() string { return n.ln.Addr().String() }

// ID returns the node's replica ID.
func (n *Node) ID() model.ReplicaID { return n.cfg.ID }

// Connect starts replication links to the given peers. Each link dials in
// the background with backoff, so Connect succeeds even while peers are
// still coming up. A new link owes its peer this node's whole log — every
// broadcast it has ever recorded, not just what a restore left unacked — so
// a peer connected after boot still receives the post-boot writes. That
// costs little on reconnects: the peer's hello ack carries its delivered
// watermarks, moving the link's cursors before the first send. Receivers
// deduplicate by cumulative seq regardless.
func (n *Node) Connect(peers map[model.ReplicaID]string) error {
	return n.connect(peers, false)
}

// connect validates the peers, then publishes and starts a sender for each
// new one — under peerMu and behind a closed-check, as track does for
// accepted connections: Close takes peerMu after closing done, so a sender
// either joined the WaitGroup (and the map) before Close waits, or never runs.
func (n *Node) connect(peers map[model.ReplicaID]string, skipLinked bool) error {
	n.peerMu.Lock()
	defer n.peerMu.Unlock()
	select {
	case <-n.done:
		return ErrClosed
	default:
	}
	for id := range peers {
		if id == n.cfg.ID {
			return fmt.Errorf("cluster: r%d listed as its own peer", id)
		}
		if int(id) < 0 || int(id) >= n.cfg.N {
			return fmt.Errorf("cluster: peer r%d outside cluster of %d", id, n.cfg.N)
		}
		if _, dup := n.peers[id]; dup && !skipLinked {
			return fmt.Errorf("cluster: duplicate link to r%d", id)
		}
	}
	for id, addr := range peers {
		if _, dup := n.peers[id]; dup {
			continue
		}
		n.view.Merge(membership.Member{ID: int(id), Addr: addr})
		p := newPeerSender(n, id, addr)
		n.peers[id] = p
		n.wg.Add(1)
		go p.run()
	}
	n.publishPeers()
	return nil
}

// publishPeers rebuilds the peerList snapshot from the peers map. Called
// with peerMu held, by the map's two writers.
func (n *Node) publishPeers() {
	list := make([]*peerSender, 0, len(n.peers))
	for _, p := range n.peers {
		list = append(list, p)
	}
	n.peerList.Store(&list)
}

// allPeers returns the current replication links. The slice is shared and
// immutable.
func (n *Node) allPeers() []*peerSender {
	if list := n.peerList.Load(); list != nil {
		return *list
	}
	return nil
}

// liveEvent converts a recorded event for the streaming checker: the
// payload is stripped (the checker never inspects store state) and the
// recording node stamped on. The Frontier slice is the caller's: record
// passes the shard's immutable tapped copy, never the live frontier.
func liveEvent(node model.ReplicaID, ev Event) livecheck.Event {
	return livecheck.Event{
		Node: node, Kind: ev.Kind, Lamport: ev.Lamport,
		Object: ev.Object, Op: ev.Op, Rval: ev.Rval,
		Dot: ev.Dot, Frontier: ev.Frontier,
		Origin: ev.Origin, Seq: ev.Seq,
	}
}

// Do applies one client operation at the replica owning obj's shard,
// records the do event (with visibility snapshot), and broadcasts any
// messages the operation made pending. Safe for concurrent use;
// operations on different shards run concurrently.
func (n *Node) Do(obj model.ObjectID, op model.Operation) (model.Response, error) {
	return newDoCall(n).do(obj, op)
}

// doCall is the slot one client operation at a time crosses into its
// shard's loop through: arguments in, results out, and the closure and done
// channel shard.handoff needs, built once. serveClient keeps one for the
// life of its connection, so a request costs no allocation to hand over;
// Node.Do uses a throw-away one. Not safe for concurrent use.
type doCall struct {
	n    *Node
	done chan struct{}
	run  func()

	s    *shard
	obj  model.ObjectID
	op   model.Operation
	resp model.Response
	jerr error
}

func newDoCall(n *Node) *doCall {
	c := &doCall{n: n, done: make(chan struct{}, 1)}
	c.run = func() {
		c.resp = c.s.doInLoop(c.obj, c.op)
		c.jerr = c.s.jerr
	}
	return c
}

func (c *doCall) do(obj model.ObjectID, op model.Operation) (model.Response, error) {
	c.s = c.n.shards[c.n.router.Route(obj)]
	c.obj, c.op = obj, op
	err := c.s.handoff(c.run, c.done)
	if err == nil {
		// A fail-stopping node must not confirm an operation whose event
		// may never have reached the journal.
		err = c.jerr
	}
	return c.resp, err
}

// Quiesced reports whether this node has nothing left to say: no pending
// broadcast and every peer link fully acknowledged. Cluster-wide
// quiescence (Definition 17) is all nodes reporting true — and because
// acks are only written after the receiver applied the update, a stable
// all-quiesced poll really does mean every sent message was delivered.
func (n *Node) Quiesced() bool {
	return n.Stats().Quiesced
}

// viewLinked reports whether every member this node's view considers alive
// has a replication link. Without it a node could report quiescence while
// still holding updates a known-but-not-yet-linked joiner lacks — the
// drained() condition is vacuous for a link that does not exist yet.
func (n *Node) viewLinked() bool {
	n.peerMu.Lock()
	defer n.peerMu.Unlock()
	for _, m := range n.view.Alive() {
		if m.ID == int(n.cfg.ID) || m.ID < 0 || m.ID >= n.cfg.N {
			continue
		}
		if _, ok := n.peers[model.ReplicaID(m.ID)]; !ok {
			return false
		}
	}
	return true
}

// Stats snapshots the node's counters. Each shard's slice of the snapshot
// is captured coherently in one of that shard's event-loop turns (counter,
// event count, checker verdicts, and pending-message verdict move
// together); the transport counters — monotone for the life of the node,
// whatever links come and go — and quiescence composition are read between
// turns. Its Quiesced is the node's one quiescence verdict: no shard holds
// a pending broadcast, every peer link is drained, and every member the view
// considers alive is linked.
func (n *Node) Stats() Stats {
	k := len(n.shards)
	s := Stats{Node: n.cfg.ID, Store: n.cfg.Store.Name(), Shards: k,
		ShardOps: make([]int64, k), ShardSends: make([]int64, k),
		ShardReceives: make([]int64, k), ShardEvents: make([]int64, k)}
	counts := func(i int, sh *shard) {
		s.ShardOps[i], s.ShardSends[i], s.ShardReceives[i] = sh.ops.Load(), sh.sends.Load(), sh.receives.Load()
	}
	quiesced, closed := true, false
	for i, sh := range n.shards {
		if sh.inLoop(func() {
			counts(i, sh)
			s.ShardEvents[i] = int64(sh.events.len())
			s.Violations += len(sh.checker.Violations())
			quiesced = quiesced && sh.replica.PendingMessage() == nil
		}) != nil {
			closed = true
			break
		}
	}
	if closed {
		// Node closed: the loops are gone, so a coherent snapshot is moot —
		// report the lock-free counters' final values (loop-owned state
		// stays zero; reading it here would race with the exiting loops).
		clear(s.ShardEvents)
		s.Violations = 0
		for i, sh := range n.shards {
			counts(i, sh)
		}
	}
	for i := range n.shards {
		s.Ops += s.ShardOps[i]
		s.Sends += s.ShardSends[i]
		s.Receives += s.ShardReceives[i]
		s.Events += s.ShardEvents[i]
	}
	s.BytesOut = n.bytesOut.Load()
	s.FramesOut = n.framesOut.Load()
	s.Retransmits = n.retransmits.Load()
	s.Reconnects = n.reconnects.Load()
	s.DupFrames = n.dupFrames.Load()
	s.GapFrames = n.gapFrames.Load()
	s.SyncPulled = n.syncPulled.Load()
	s.SyncServed = n.syncServed.Load()
	s.Members = len(n.view.Alive())
	for _, p := range n.allPeers() {
		if p.failed.Load() {
			s.FailedLinks++
		}
		if !closed && !p.drained() {
			quiesced = false
		}
	}
	s.Quiesced = !closed && quiesced && n.viewLinked()
	return s
}

// Violations returns the §4 property violations the node's checkers
// observed, across all shards (live counterpart of
// sim.Cluster.PropertyViolations).
func (n *Node) Violations() []*store.PropertyViolation {
	var v []*store.PropertyViolation
	for _, s := range n.shards {
		s := s
		s.inLoop(func() { v = append(v, s.checker.Violations()...) })
	}
	return v
}

// History snapshots shard 0's recorded local history, which on a sharded
// node is not the node's. It stays for the frozen benchmark/, which calls it;
// new callers want ShardHistory (or HistoriesOf, which audits every shard).
// On a node that has been closed it returns a history with no events — it
// has no error to say so with; ShardHistory reports ErrClosed.
func (n *Node) History() History {
	h, _ := n.ShardHistory(0) // the error is ShardHistory's to report; see above
	return h
}

// ShardHistory snapshots one shard's recorded local history. Histories of
// the same shard across nodes merge and audit together; histories of
// different shards never do (independent (Origin, Seq) domains).
func (n *Node) ShardHistory(shard int) (History, error) {
	if shard < 0 || shard >= len(n.shards) {
		return History{}, fmt.Errorf("cluster: shard %d outside node with %d shards", shard, len(n.shards))
	}
	return n.shards[shard].history()
}

// shardOf is the shard a decoded frame names, or nil when this node has no
// such shard: a shard index read off the wire is input from outside the
// program, and every handler hangs up on nil.
func (n *Node) shardOf(i uint64) *shard {
	if i >= uint64(len(n.shards)) {
		return nil
	}
	return n.shards[i]
}

// BreakConnections closes every live dial-side replication connection,
// simulating network resets. Links redial and retransmit; no update is
// lost. Returns how many connections were torn down.
func (n *Node) BreakConnections() int {
	broken := 0
	for _, p := range n.allPeers() {
		p.mu.Lock()
		live := p.conn != nil
		p.mu.Unlock()
		if live {
			p.breakConn()
			broken++
		}
	}
	return broken
}

// Close shuts the node down: stops the event loop, listener, links, and
// open connections, then waits for every goroutine to exit.
func (n *Node) Close() error {
	n.closeOnce.Do(func() {
		close(n.done)
		n.ln.Close()
		n.peerMu.Lock() // no sender starts past this point; see connect
		for _, p := range n.peers {
			p.close()
		}
		n.peerMu.Unlock()
		n.connMu.Lock()
		for c := range n.conns {
			c.Close()
		}
		n.connMu.Unlock()
		n.wg.Wait()
		// The event loops have exited: no Append can follow, so the
		// journals can close (flushing their final state) without racing
		// the loops.
		for _, s := range n.shards {
			if s.closeJournal != nil {
				s.closeJournal()
			}
		}
	})
	return nil
}

func (n *Node) track(c net.Conn) bool {
	n.connMu.Lock()
	defer n.connMu.Unlock()
	select {
	case <-n.done:
		return false
	default:
	}
	n.conns[c] = struct{}{}
	return true
}

func (n *Node) untrack(c net.Conn) {
	n.connMu.Lock()
	delete(n.conns, c)
	n.connMu.Unlock()
}

func (n *Node) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			return // listener closed
		}
		if !n.track(conn) {
			conn.Close()
			return
		}
		n.wg.Add(1)
		go n.serveConn(conn)
	}
}

// dial opens a connection to peer at addr for any conversation — a
// replication link, a gossip round, a join — as the fault emulator sees it:
// a cut link fails at once without touching the network (the dial would
// succeed at TCP only to die on the first shaped write), and a live one is
// shaped in the direction this node → peer.
func (n *Node) dial(peer model.ReplicaID, addr string) (net.Conn, error) {
	if n.cfg.Faults != nil && n.cfg.Faults.Cut(int(n.cfg.ID), int(peer)) {
		return nil, fault.ErrLinkCut
	}
	conn, err := net.DialTimeout("tcp", addr, n.cfg.DialTimeout)
	if err != nil {
		return nil, err
	}
	return n.shape(conn, peer), nil
}

// shape puts this node's end of a connection with peer under the fault
// emulator, if there is one: what this node writes travels the directed
// link this → peer. Dialed and accepted connections alike are shaped, so an
// asymmetric cut of this → peer silences this node's acks and replies too.
func (n *Node) shape(conn net.Conn, peer model.ReplicaID) net.Conn {
	if n.cfg.Faults == nil {
		return conn
	}
	return n.cfg.Faults.WrapConn(conn, int(n.cfg.ID), int(peer))
}

// serveConn classifies an inbound connection by its first frame: a tHello
// marks a peer's replication stream, tJoin and tGossip the membership
// conversations; anything else is a client speaking request/response.
func (n *Node) serveConn(conn net.Conn) {
	defer n.wg.Done()
	defer n.untrack(conn)
	defer conn.Close()
	// fr is this connection's one frame reader: every frame the handler
	// reads lands in its storage, overwriting the one before (recvFrame).
	fr := wire.NewFrameReader(conn)
	first, err := recvFrame(fr, n.cfg.MaxFrame)
	if err != nil {
		return
	}
	var r wire.Reader
	r.Reset(first)
	switch typ := r.Uvarint(); {
	case r.Err() != nil:
		return
	case typ == tHello:
		if h, err := decodeHello(&r); err == nil {
			n.serveHello(conn, h, fr)
		}
		return
	case typ == tJoin:
		if j, err := decodeJoin(&r); err == nil {
			n.serveJoin(conn, j, fr)
		}
		return
	case typ == tGossip:
		if from, ms, err := decodeGossip(&r, n.cfg.N); err == nil {
			n.serveGossip(conn, from, ms, fr)
		}
		return
	}
	n.serveClient(conn, first, fr)
}

// serveHello answers a peer's hello and, if the two ends agree, serves its
// update stream. A link only works between nodes speaking one protocol
// version and one shard count (per-shard seq domains would
// cross-contaminate otherwise), but a mismatching hello is still answered
// before the connection closes: the hello ack carries this node's version
// and shard count, so the dialer sees why it was refused and fail-stops its
// side of the link instead of redialling.
func (n *Node) serveHello(conn net.Conn, h hello, fr *wire.FrameReader) {
	// A link carries its dialer's own broadcasts, so the dialer must be
	// another member of the population.
	if int(h.From) < 0 || int(h.From) >= n.cfg.N || h.From == n.cfg.ID {
		return
	}
	// Acks written back to this peer travel the reverse link, so an
	// asymmetric cut of this→peer suppresses them even while updates flow in.
	conn = n.shape(conn, h.From)
	// The delivered watermarks move the dialer's cursors to what this node
	// actually lacks.
	delivered := make([]uint64, len(n.shards))
	for i, sh := range n.shards {
		delivered[i] = sh.logLen(h.From)
	}
	if !n.sendFrame(conn, func(w *wire.Writer) { appendHelloAck(w, delivered) }) {
		return
	}
	if h.Version == protoVersion && h.Shards == uint64(len(n.shards)) {
		n.serveReplication(conn, h.From, fr)
	}
}

// serveReplication applies the update stream of the peer whose hello named
// it from, answering each tBatch with the cumulative ack of the shard it
// names. The ack is written only after the owning shard's event loop
// applied (or deduplicated) the updates — an acked update is a delivered
// update — and a batch applies in one loop turn and earns one ack, which is
// the ack-coalescing half of the batching win. A batch for a shard this
// node does not have, or of any origin but the dialer's own, hangs up: a
// confused peer cannot slip updates into another seq domain.
func (n *Node) serveReplication(conn net.Conn, from model.ReplicaID, fr *wire.FrameReader) {
	// Everything a frame needs is built once per connection and reused: the
	// receive buffer, the decoded batch (whose payloads alias that buffer —
	// applyUpdate copies each before anything keeps it), the ack's writer,
	// and the slot the batch crosses into its shard's loop through.
	var (
		r    wire.Reader
		us   []protoUpdate
		call struct {
			sh      *shard
			us      []protoUpdate
			cum     uint64
			ackable bool
		}
	)
	apply := func() { call.cum, _, call.ackable = call.sh.applyRun(call.us) }
	done := make(chan struct{}, 1)
	enc := wire.GetWriter()
	defer wire.PutWriter(enc)
	for {
		b, err := recvFrame(fr, n.cfg.MaxFrame)
		if err != nil {
			return
		}
		r.Reset(b)
		if r.Uvarint() != tBatch {
			return
		}
		var shard uint64
		if shard, us, err = decodeBatch(&r, us); err != nil || len(us) == 0 || us[0].Origin != from {
			return
		}
		if call.sh, call.us = n.shardOf(shard), us; call.sh == nil {
			return
		}
		if call.sh.handoff(apply, done) != nil {
			return
		}
		if !call.ackable {
			// Journal failure: the node is fail-stopping and these updates'
			// durability is unknown — drop the connection without acking so
			// the sender still owes them to the next incarnation.
			return
		}
		enc.Reset()
		enc.BeginFrame()
		appendAck(enc, call.sh.idx, call.cum)
		if n.writeEnc(conn, enc, n.cfg.MaxFrame, nil) != nil {
			return
		}
	}
}

// serveClient answers request/response frames from one client connection.
func (n *Node) serveClient(conn net.Conn, first []byte, fr *wire.FrameReader) {
	// call is the slot this connection's requests cross into their shard's
	// loop through, built once.
	call := newDoCall(n)
	frame := first
	for {
		if !n.answer(conn, frame, call) {
			return
		}
		var err error
		if frame, err = recvFrame(fr, n.cfg.MaxFrame); err != nil {
			return
		}
	}
}

// answer serves one client request frame; false means hang up. The reply
// is built behind its frame header in one pooled writer, so it leaves in
// one conn.Write and (a history transfer aside) allocates nothing.
func (n *Node) answer(conn net.Conn, frame []byte, call *doCall) bool {
	var r wire.Reader
	r.Reset(frame)
	typ := r.Uvarint()
	if r.Err() != nil {
		return false
	}
	maxFrame := n.cfg.MaxFrame
	var bulk *wire.Deflater // set for a bulk reply: the compressor to offer it to
	w := wire.GetWriter()
	defer wire.PutWriter(w)
	w.BeginFrame()
	switch typ {
	case tRequest:
		reqID, obj, op, err := decodeRequest(&r)
		if err != nil {
			return false
		}
		resp, err := call.do(obj, op)
		if err != nil {
			return false
		}
		appendResponse(w, reqID, resp)
	case tStats:
		if r.End() != nil {
			return false
		}
		w.Uvarint(tStatsResp)
		appendStats(w, n.Stats())
	case tHistory:
		// The one bulk reply a client connection carries, and a rare one: its
		// compressor is borrowed for the request.
		maxFrame, bulk = historyMaxFrame, wire.GetDeflater()
		defer wire.PutDeflater(bulk)
		shard, err := decodeHistoryReq(&r)
		s := n.shardOf(shard)
		if err != nil || s == nil {
			return false
		}
		// A node that is closing has no history to give: hang up, like
		// every other failed request, rather than reply with an empty one
		// an auditor would merge as "this node did nothing".
		hist, err := s.snapshot()
		if err != nil {
			return false
		}
		w.Uvarint(tHistoryResp)
		hist.appendTo(w)
	default:
		return false
	}
	return n.writeEnc(conn, w, maxFrame, bulk) == nil
}
