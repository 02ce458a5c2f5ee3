// Package cluster runs the paper's replicated data stores over real TCP
// connections. Each Node serves one store.Replica per shard, one turn at a
// time — the §2 single-threaded state-machine contract, kept by a lock the
// goroutine asking for a step takes, not by a goroutine of the shard's own
// — and exchanges the replicas' broadcast messages with its peers through a
// length-framed protocol (internal/wire) that provides reliable eventual
// delivery: per-peer cursors over each shard's log of its own broadcasts,
// moved by the delivered counts a peer reports in its hello ack — when the
// link connects and when the quiescence check asks, never per batch — and
// reconnection on failure, which resends what the new connection's hello
// ack does not count. A connection itself is trusted to be TCP: it delivers
// every frame in order or dies.
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
//     the per-shard turns, recorded histories and update logs,
//     membership over connections, and the storage seam durable state
//     enters through (JournalStorage, NodeStorage). The history is held in
//     its codec form (eventlog.go), which is what a journal is staged; Event
//     is the decoded view handed to taps, auditors and per-event journals.
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
//     and NodeStorage), internal/fault (a fault emulator is a Transport the
//     caller passes in), a store implementation, cmd/..., or the simulator.
package cluster

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

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
	// Transport is how the node listens and dials its peers, plain TCP if
	// nil. The node never shapes a connection itself: it reads and writes
	// what the Transport hands it, so a fault emulator (fault.Netem) is a
	// Transport, and its cuts and delays are what those connections do.
	Transport Transport
	// Storage, when non-nil, is the node's durable state: NewNode opens it
	// once per shard before serving and Close closes each log after the
	// shard's last turn. A shard stages each do/send/receive record in its
	// journal in the turn that records it and commits — one write and one
	// fsync for everything staged — at exactly the points where a record
	// could become visible outside the node:
	//   - the end of a turn that recorded a do or a send, before the
	//     client's response leaves and before the shard's own new updates
	//     are published to the log its links read;
	//   - a hello ack, a join digest answer or a joiner's own digest,
	//     before a count or a root is reported;
	//   - each range chunk a joiner applies, so a join cut short keeps what
	//     it pulled;
	//   - when the staged records reach a block (seglog.BlockSize);
	//   - Close, in each shard's last turn.
	// A turn that only received updates commits nothing. Losing its staged
	// receives to a crash is safe: the sender still owes them, because its
	// cursor moves only on a hello ack and a hello ack commits first. A
	// journal error fail-stops the node: it answers no hello, refuses
	// further operations, and closes, because a replica that cannot persist
	// must not promise delivery. A Storage that implements JournalStorage is
	// staged; one that has only NodeStorage's per-event Open journals each
	// event as it is staged, which is stronger than needed (see
	// NodeStorage). What a shard restores is recorded again, in order, into
	// the fresh replica before anything is served: the Lamport clock and sequence counters
	// resume where they left off, and every past broadcast is re-offered to
	// the peers (receivers deduplicate by cumulative sequence number).
	// Replayed events are not re-journaled. The Supervisor threads Storage
	// through crash/restart directives, so chaos schedules exercise
	// recovery instead of handing histories through memory.
	Storage NodeStorage
	// Tap, when non-nil, receives every event this node records — do,
	// send, receive — in record order, when the shard's journal commits it
	// (at the end of every turn on a node without Storage), so the streamed
	// prefix is always a prefix of the durable log and a restart can never
	// regress the stream. The first argument is the recording shard's index;
	// per-shard event streams have independent (Origin, Seq) domains, so a
	// sharded consumer must keep one checker per shard
	// (livecheck.ShardSet). Events replayed from Storage are not re-tapped
	// (their first recording was); sends
	// re-minted as a shard opens are new events and are. The callback runs in
	// the recording shard's turn: it must return quickly and must not call
	// back into the node. The event is the tap's to keep, Frontier
	// included: a do event's frontier is an immutable copy, cloned only when
	// it differs from the previous one streamed, so consecutive do events
	// that saw the same frontier share one slice and none may be written
	// through. Intended for internal/livecheck; the
	// Supervisor copies it into every restart incarnation like the rest of
	// the base config.
	Tap func(shard int, ev livecheck.Event)

	// Shards splits this node's keyspace across that many independent shards,
	// each run one turn at a time (default 1): a ShardRouter hashes each object
	// key to one shard, which owns its own store replica, Lamport clock,
	// broadcast sequence domain, recorded history, and (under Storage) its own
	// durable log. Replication links multiplex every shard over one connection;
	// all nodes of a cluster must agree on the count, and links to peers
	// announcing a different count fail-stop, as does a join through a seed of
	// another count.
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
}

// Transport opens the node's connections. Listen opens the node's one
// listener; Dial opens one connection from this node to the peer to at
// addr, for any conversation — a replication link, a gossip round, a join.
// A node calls it once per listen, dial or accept, never per frame.
type Transport interface {
	Listen(addr string) (net.Listener, error)
	Dial(from, to model.ReplicaID, addr string) (net.Conn, error)
}

const (
	// dialTimeout bounds one dial of the default Transport, and of Dial.
	dialTimeout = 2 * time.Second
	// writeTimeout bounds one frame write, and the wait for each frame of a
	// gossip round or a join.
	writeTimeout = 5 * time.Second
	// dialBackoffMin and dialBackoffMax bound the redial backoff of a link
	// and of a join's seed loop: 5, 10, 20, 40, 80, then 100 ms, each plus
	// up to half in jitter. One schedule serves a deployment and the tests
	// alike. A refused dial costs one SYN and one RST, so redialling a down
	// peer every 100-150 ms is cheap, and it reconnects a restarted peer
	// within the same interval — which is what a test that cuts or restarts
	// a node waits on. A blackholed dial waits out dialTimeout first, so the
	// cap paces only refused dials.
	dialBackoffMin = 5 * time.Millisecond
	dialBackoffMax = 100 * time.Millisecond
	// gossipInterval paces the membership gossip loop, plus up to half in
	// jitter. Gossip only runs once the node is membership-dynamic: it
	// joined via Join, was asked to Leave, or heard a tJoin/tGossip frame.
	// A static cluster never gossips.
	gossipInterval = 200 * time.Millisecond
)

// tcpTransport is the default Transport: plain TCP.
type tcpTransport struct{}

func (tcpTransport) Listen(addr string) (net.Listener, error) { return net.Listen("tcp", addr) }

func (tcpTransport) Dial(_, _ model.ReplicaID, addr string) (net.Conn, error) {
	return net.DialTimeout("tcp", addr, dialTimeout)
}

// NodeStorage provides per-incarnation durable storage for a node's recorded
// history, one event at a time. Open is called once per incarnation and
// shard (shard/shards name which log), before the node serves anything.
// journal persists one recorded event before it returns. ev is valid only
// for the call — a do's Frontier is the shard's live frontier, a send's
// Payload the store's message — so a journal that keeps it clones them; a
// receive's Payload is the history's own immutable copy. restore is the
// previous incarnation's history (nil on first boot); closeLog (nil for
// none) runs after the shard's last turn, so no journal call follows it;
// tree is ignored (implementations return nil): the shard owns its forest.
//
// A storage that also implements JournalStorage is opened through that
// instead (its Open is OpenPerEvent). One that does not is journaled event
// by event, each staged event handed to journal at once, which is stronger
// than Config.Storage requires. Only the frozen benchmark/trace.go's wrapper
// relies on that (its durable.* rows time this path); the interface, its
// forest result, OpenPerEvent and the per-event path go with ROADMAP item
// 1(c).
type NodeStorage interface {
	Open(id model.ReplicaID, n int, storeName string, shard, shards int) (journal func(Event) error, restore *History, tree *membership.Forest, closeLog func() error, err error)
}

// JournalStorage is what a Config.Storage implements to be opened as staged
// journals (durable.Storage does). OpenJournal is called in place of
// NodeStorage's Open: once per incarnation and shard, before the node serves
// anything. Before it returns, it hands replay each record the journal
// holds, in commit order and valid for the call only, and an error from
// replay refuses the open. A storage never decodes a record; the shard does.
type JournalStorage interface {
	OpenJournal(id model.ReplicaID, n int, storeName string, shard, shards int, replay func(rec []byte) error) (Journal, error)
}

// A Journal is one shard's log, written at the commit points Config.Storage
// lists. Stage and Commit run in the shard's turns, one at a time; Close
// runs after the shard's last turn.
type Journal interface {
	// Stage appends one event's record, the history's own immutable copy,
	// which the journal may keep. Nothing staged need be durable before the
	// next Commit.
	Stage(rec []byte) error
	// Commit makes every record staged so far durable, in the order staged,
	// before it returns.
	Commit() error
	// Close releases the log. Records staged after the last Commit — only a
	// fail-stopping node leaves any — are dropped, as a crash would drop them.
	Close() error
}

// OpenPerEvent is NodeStorage's Open over a JournalStorage: it decodes what
// js replays into the History to restore (nil if none), and journals each
// event alone, staged — as a record of its own, which Stage may keep — and
// committed.
func OpenPerEvent(js JournalStorage, id model.ReplicaID, n int, storeName string, shard, shards int) (func(Event) error, *History, *membership.Forest, func() error, error) {
	h := &History{Node: id, N: n, Store: storeName}
	var dec EventDecoder
	j, err := js.OpenJournal(id, n, storeName, shard, shards, func(rec []byte) error {
		ev, err := dec.decodeRecord(rec)
		h.Events = append(h.Events, ev) // dropped with h on an error
		return err
	})
	if err != nil {
		return nil, nil, nil, nil, err
	}
	if len(h.Events) == 0 {
		h = nil
	}
	journal := func(ev Event) error {
		var w wire.Writer
		if err := AppendEventBinary(&w, ev); err != nil {
			return err
		}
		if err := j.Stage(w.Bytes()); err != nil {
			return err
		}
		return j.Commit()
	}
	return journal, h, nil, j.Close, nil
}

// journal is a shard's log as the shard drives it: a staged Journal, or a
// NodeStorage's per-event journal.
type journal interface {
	stage(ev Event, rec []byte) error
	commit() error
}

// staged drives a Journal: it is staged the record, not the decoded event.
type staged struct{ Journal }

func (j staged) stage(_ Event, rec []byte) error { return j.Stage(rec) }
func (j staged) commit() error                   { return j.Commit() }

// perEvent drives a NodeStorage journal: each event is made durable as it
// is staged, so a commit has nothing left to do.
type perEvent func(Event) error

func (j perEvent) stage(ev Event, _ []byte) error { return j(ev) }
func (perEvent) commit() error                    { return nil }

func (c Config) withDefaults() Config {
	if c.Shards == 0 {
		c.Shards = 1
	}
	if c.Transport == nil {
		c.Transport = tcpTransport{}
	}
	return c
}

// Stats is a point-in-time snapshot of a node's counters, served to clients
// over the wire (cmd/loadgen aggregates them into its report). The snapshot is
// coherent: each shard's fields are captured in one turn, so Events always
// equals Ops+Sends+Receives for a node that did not restore a prior history,
// and Quiesced agrees with the counters it is reported next to.
//
// Each field from Ops to FailedLinks is an entry of the table counters
// (counters.go), in the order the stats reply carries it; the entry says
// whether Add sums it over nodes or it describes one node. A counter is
// added as its field, its entry, and the place that bumps (Node.count) or
// computes (Node.Stats) it.
type Stats struct {
	Node  model.ReplicaID `json:"node"`
	Store string          `json:"store"`
	// Options is what the store was built with (store.OptionsOf), so a
	// driver opens the store this node runs, knobs included.
	Options  store.Options `json:"options"`
	Ops      int64         `json:"ops"`
	Sends    int64         `json:"sends"`
	Receives int64         `json:"receives"`
	Events   int64         `json:"events"`
	BytesOut int64         `json:"bytes_out"`
	// BatchFrames counts the replication batch frames among FramesOut.
	FramesOut   int64 `json:"frames_out,omitempty"`
	BatchFrames int64 `json:"batch_frames,omitempty"`
	Retransmits int64 `json:"retransmits"`
	Reconnects  int64 `json:"reconnects"`
	DupFrames   int64 `json:"dup_frames"`
	GapFrames   int64 `json:"gap_frames"`
	Violations  int64 `json:"violations"`
	Quiesced    bool  `json:"quiesced"`
	// The batch frames' bytes on the wire, as encoded (before the link's LZ
	// stream and the compression envelope), and the store payloads in them.
	BatchBytes        int64 `json:"batch_bytes,omitempty"`
	BatchRawBytes     int64 `json:"batch_raw_bytes,omitempty"`
	BatchPayloadBytes int64 `json:"batch_payload_bytes,omitempty"`
	// Members is how many nodes this node's membership view currently
	// considers alive (including itself).
	Members int64 `json:"members,omitempty"`
	// SyncPulled counts updates this node applied from anti-entropy range
	// pulls while joining; SyncServed counts updates it shipped to joiners.
	SyncPulled int64 `json:"sync_pulled,omitempty"`
	SyncServed int64 `json:"sync_served,omitempty"`
	// FailedLinks counts replication links fail-stopped on a terminal sender
	// error (an update the frame limit can never carry); the node serves on.
	FailedLinks int64 `json:"failed_links,omitempty"`
	// Shards is the node's shard count; the per-shard slices below (indexed
	// by shard) break the aggregate counters down, each the sum of its slice.
	Shards        int     `json:"shards,omitempty"`
	ShardOps      []int64 `json:"shard_ops,omitempty"`
	ShardSends    []int64 `json:"shard_sends,omitempty"`
	ShardReceives []int64 `json:"shard_receives,omitempty"`
	ShardEvents   []int64 `json:"shard_events,omitempty"`
}

// Add accumulates o's counters into s — the sum over the nodes of a cluster,
// or over the incarnations of one. The identity, the shard breakdown and the
// entries that describe one node are left alone.
func (s *Stats) Add(o Stats) {
	for i, c := range counters {
		if f, _ := s.counter(i); f != nil && !c.oneNode {
			of, _ := o.counter(i)
			*f += *of
		}
	}
}

// Node is one replica of a TCP-backed cluster. Its keyspace is split
// across cfg.Shards independent shards (see shard.go); an unsharded node
// is simply the one-shard case.
type Node struct {
	cfg Config
	ln  net.Listener

	// router maps object keys to shards; shards holds one independent
	// replica + history per shard. Both are immutable after NewNode.
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
	dynamic atomic.Bool

	// peers is written only by connect and disconnectPeer, under peerMu;
	// each republishes peerList, the same senders as an immutable snapshot
	// a shard's turn reads per broadcast without locking or allocating
	// (allPeers). Its order means nothing: a broadcast only nudges them.
	peerMu   sync.Mutex
	peers    map[model.ReplicaID]*peerSender
	peerList atomic.Pointer[[]*peerSender]

	connMu sync.Mutex
	conns  map[net.Conn]struct{} // accepted connections

	// count holds the counters bumped where the event happens (a link's
	// sender, a shard's turn, a join's sync), indexed by their constants in
	// counters. Kept on the node, they outlive links and only grow; the
	// entries Stats computes instead stay zero.
	count [numCounters]atomic.Int64

	// answerWake is closed, and dropped, by the next answer any of the
	// node's links reads (answered); a quiescence sweep waiting on its
	// questions makes it (answerWait). nil while nobody waits.
	answerMu   sync.Mutex
	answerWake chan struct{}

	// restored counts the events replayed from Storage at boot.
	restored int64
	// failure holds the error that fail-stopped the node (fail), if any.
	failure atomic.Pointer[error]

	closeOnce sync.Once
}

// NewNode opens the listener and each shard's storage, replays what it
// restores, and — if cfg.Peers is set — starts the replication links. It does
// not block on peers being up: links dial in the background and retry until the
// peer appears.
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
	ln, err := cfg.Transport.Listen(cfg.Listen)
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
		if cfg.Storage != nil {
			replayed, err := s.open(cfg.Storage)
			if err != nil {
				closeAll()
				return nil, err
			}
			n.restored += int64(replayed)
		}
	}

	// Seed the view: self plus every statically named peer, at epoch 0 —
	// later gossip (with real epochs) supersedes these placeholders.
	n.view.Merge(membership.Member{ID: int(cfg.ID), Addr: n.Addr()})
	for id, addr := range cfg.Peers {
		n.view.Merge(membership.Member{ID: int(id), Addr: addr})
	}
	n.wg.Add(1)
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

// Restored returns how many events NewNode replayed from Storage (all
// shards). Informational; stable after NewNode.
func (n *Node) Restored() int64 { return n.restored }

// fail fail-stops the node on err: the first such error is the one Err
// reports, and the node closes on a goroutine of its own, because the
// caller may hold a shard's turn, which Close waits out.
func (n *Node) fail(err error) {
	n.failure.CompareAndSwap(nil, &err)
	go n.Close()
}

// Done is closed once the node begins to close: by Close, or by a
// fail-stop, whose cause Err then reports.
func (n *Node) Done() <-chan struct{} { return n.done }

// Err returns the error that fail-stopped the node — a journal failure, or
// errLostHistory — or nil if none did (a node closed by Close included).
func (n *Node) Err() error {
	if p := n.failure.Load(); p != nil {
		return *p
	}
	return nil
}

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
// messages the operation made pending. It keeps nothing of obj and op.Arg
// past the call: the do record's head is their copy. Safe for concurrent
// use; operations on different shards run concurrently.
func (n *Node) Do(obj model.ObjectID, op model.Operation) (model.Response, error) {
	return n.shards[n.router.Route(obj)].do(obj, op)
}

// Quiesced reports whether this node has nothing left to say: no pending
// broadcast and every peer has said it delivered every update. A peer says
// so only when asked, so the first call after traffic asks each link whose
// count is behind and reads false; a later call reads the answers.
// Cluster-wide quiescence (Definition 17) is all nodes reporting true — and
// because an answer is read after the receiver applied and journaled what
// it counts, and only ever raises a count, a stable all-quiesced poll
// really does mean every sent message was delivered.
func (n *Node) Quiesced() bool {
	return n.Stats().Quiesced
}

// viewLinked reports whether every member the view considers alive has a
// replication link. Without it a node could report quiescence while still
// holding updates a known-but-not-yet-linked joiner lacks — the drained()
// condition is vacuous for a link that does not exist yet. It takes peerMu
// before the view's lock, which the walk holds.
func (n *Node) viewLinked() bool {
	n.peerMu.Lock()
	defer n.peerMu.Unlock()
	linked := true
	n.view.EachAlive(func(m membership.Member) bool {
		if m.ID != int(n.cfg.ID) && m.ID >= 0 && m.ID < n.cfg.N {
			_, linked = n.peers[model.ReplicaID(m.ID)]
		}
		return linked
	})
	return linked
}

// Stats snapshots the node's counters. Each shard's slice of the snapshot
// is captured coherently in one of that shard's turns (counter,
// event count, checker verdicts, and pending-message verdict move
// together); the transport counters — monotone for the life of the node,
// whatever links come and go — and quiescence composition are read between
// turns. Its Quiesced is the node's one quiescence verdict: no shard holds
// a pending broadcast, every peer link is drained, and every member the view
// considers alive is linked. Like Quiesced, it asks every link that is not
// drained what its peer delivered (peerSender.drained), at the cost of one
// small frame each way.
func (n *Node) Stats() Stats {
	k := len(n.shards)
	s := Stats{Node: n.cfg.ID, Store: n.cfg.Store.Name(), Options: store.OptionsOf(n.cfg.Store), Shards: k,
		ShardOps: make([]int64, k), ShardSends: make([]int64, k),
		ShardReceives: make([]int64, k), ShardEvents: make([]int64, k)}
	counts := func(i int, sh *shard) {
		s.ShardOps[i], s.ShardSends[i], s.ShardReceives[i] = sh.ops.Load(), sh.sends.Load(), sh.receives.Load()
	}
	quiesced, closed := true, false
	for i, sh := range n.shards {
		if sh.lock() != nil {
			closed = true
			break
		}
		counts(i, sh)
		s.ShardEvents[i] = int64(sh.events.len())
		s.Violations += int64(len(sh.checker.Violations()))
		quiesced = quiesced && sh.replica.PendingMessage() == nil
		sh.turn.Unlock()
	}
	if closed {
		// Node closing: no turn starts, so a coherent snapshot is moot —
		// report the lock-free counters' final values (what only a turn may
		// read stays zero).
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
	for i := range counters { // the count of what is computed here is 0
		if f, _ := s.counter(i); f != nil {
			*f += n.count[i].Load()
		}
	}
	s.Members = int64(n.view.AliveCount())
	for _, p := range n.allPeers() {
		if p.failed.Load() {
			s.FailedLinks++
			quiesced = false // a failed link is not drained: it will never send what it owes
		}
		if !closed && !p.drained() {
			quiesced = false
		}
	}
	s.Quiesced = !closed && quiesced && n.viewLinked()
	return s
}

// answerWait returns a channel the next answer any of the node's links
// reads closes.
func (n *Node) answerWait() <-chan struct{} {
	n.answerMu.Lock()
	defer n.answerMu.Unlock()
	if n.answerWake == nil {
		n.answerWake = make(chan struct{})
	}
	return n.answerWake
}

// answered wakes every sweep waiting on an answer from one of the node's
// links. A link reads an answer only when asked, so this costs nothing on
// the replication path.
func (n *Node) answered() {
	n.answerMu.Lock()
	if n.answerWake != nil {
		close(n.answerWake)
		n.answerWake = nil
	}
	n.answerMu.Unlock()
}

// Violations returns the §4 property violations the node's checkers
// observed, across all shards (live counterpart of
// sim.Cluster.PropertyViolations).
func (n *Node) Violations() []*store.PropertyViolation {
	var v []*store.PropertyViolation
	for _, s := range n.shards {
		if s.lock() == nil {
			v = append(v, s.checker.Violations()...)
			s.turn.Unlock()
		}
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

// Close shuts the node down: stops the listener, links, and open
// connections, waits out each shard's running turn — no turn starts once
// Close has begun — and every goroutine the node started, then closes the
// journals.
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
		// done is closed, so no turn starts (lock); taking each shard's
		// lock waits out the one running, and the shard's last turn commits
		// what it staged. After that nothing is staged, so the journals can
		// close.
		for _, s := range n.shards {
			s.turn.Lock()
			s.commit()
			s.turn.Unlock()
		}
		n.wg.Wait()
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
	first, err := recvFrame(fr, wire.DefaultMaxFrame)
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
		if _, ms, err := decodeGossip(&r, n.cfg.N); err == nil {
			n.serveGossip(conn, ms, fr)
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
	if !n.answerHello(conn, h.From) {
		return
	}
	if h.Version == protoVersion && h.Shards == uint64(len(n.shards)) {
		n.serveReplication(conn, h, fr)
	}
}

// answerHello writes the tHelloAck that answers a hello from the peer from:
// per shard, how many of from's updates this node holds, which moves the
// dialer's cursors to what this node lacks. It answers the opening hello and
// every later one, the quiescence check's question, alike. Each count is
// read in a turn of its shard, after the turn commits what the shard staged,
// so it covers every batch that shard applied before the turn, and a shard
// whose journal failed answers nothing: the count promises its updates are
// applied and journaled. False means hang up.
func (n *Node) answerHello(conn net.Conn, from model.ReplicaID) bool {
	delivered := make([]uint64, len(n.shards))
	for i, sh := range n.shards {
		if sh.lock() != nil {
			return false
		}
		sh.commit()
		delivered[i] = uint64(sh.updates[from].Len())
		jerr := sh.jerr
		sh.turn.Unlock()
		if jerr != nil {
			return false
		}
	}
	return n.sendFrame(conn, func(w *wire.Writer) { appendHelloAck(w, delivered) })
}

// serveReplication applies the update stream of the peer whose opening hello
// was h, and writes nothing back but the answers to its later hellos. A
// tBatch decodes through the connection's LZ stream to its sections, and
// each section — a shard and a run of h.From's updates, decoded against what
// this connection carried of the shard before — applies in one turn of that
// shard, on this goroutine. A frame the stream refuses hangs up, and the
// reconnect resends from the hello ack. A later tHello is the sender's
// question — what have you delivered? — and is answered by answerHello: the
// connection is read in order and each batch is applied before the next
// frame is read, so the answer covers every batch the sender wrote before
// asking. A section for a shard this node does not have, and a question that
// does not repeat the opening hello, hang up: a confused peer cannot slip
// updates into another seq domain, and a run carries no origin but the
// hello's. So does a journal failure, after which this node promises
// nothing: the sender still owes what it sent to the next incarnation.
func (n *Node) serveReplication(conn net.Conn, h hello, fr *wire.FrameReader) {
	// Everything a frame needs is built once per connection and reused: the
	// receive buffer, the stream's history a batch frame's sections decode
	// into, and the decoded run, whose payloads alias that history
	// (applyUpdate copies each before anything keeps it). runs is the
	// connection's state of each shard and lz its stream, both from empty,
	// as the sender keeps its own.
	var (
		r, sections wire.Reader
		us          []protoUpdate
		runs        = make([]runState, len(n.shards))
		lz          wire.StreamDecoder
	)
	for {
		b, err := recvFrame(fr, wire.DefaultMaxFrame)
		if err != nil {
			return
		}
		r.Reset(b)
		switch r.Uvarint() {
		case tBatch:
			body, err := decodeBatchBody(&r, &lz)
			if err != nil {
				return
			}
			sections.Reset(body)
			for more := true; more; more = sections.Remaining() > 0 {
				var shard int
				if shard, us, err = decodeSection(&sections, runs, h.From, us); err != nil {
					return
				}
				if _, err := n.shards[shard].applyRun(us, false); err != nil {
					return
				}
			}
		case tHello:
			if q, err := decodeHello(&r); err != nil || q != h || !n.answerHello(conn, h.From) {
				return
			}
		default:
			return
		}
	}
}

// serveClient answers request/response frames from one client connection.
func (n *Node) serveClient(conn net.Conn, first []byte, fr *wire.FrameReader) {
	frame := first
	for {
		if !n.answer(conn, frame) {
			return
		}
		var err error
		if frame, err = recvFrame(fr, wire.DefaultMaxFrame); err != nil {
			return
		}
	}
}

// answer serves one client request frame; false means hang up. The reply
// is built behind its frame header in one pooled writer, so it leaves in
// one conn.Write and (a history transfer aside) allocates nothing.
func (n *Node) answer(conn net.Conn, frame []byte) bool {
	var r wire.Reader
	r.Reset(frame)
	typ := r.Uvarint()
	if r.Err() != nil {
		return false
	}
	maxFrame := wire.DefaultMaxFrame
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
		resp, err := n.Do(obj, op)
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
	_, err := n.writeEnc(conn, w, maxFrame, bulk)
	return err == nil
}
