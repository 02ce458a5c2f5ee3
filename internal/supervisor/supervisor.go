// Package supervisor runs an in-process cluster of internal/cluster nodes
// under a fault.Schedule: every node listens and dials through one shared
// fault.Netem, link directives go to the emulator, and crash, restart,
// leave and join directives start and stop the nodes. It is the harness
// behind loadgen -chaos, chaossearch.Validate and the chaos tests; a served
// process never links it.
//
// Contract:
//
//   - OWNS: the schedule's process lifecycle (crash, restart, leave, join),
//     the in-memory journal a run without disks restores from (memStorage),
//     and the run's fault.Metrics.
//   - MUST NOT: reach into a node: it drives one only through cluster's
//     exported API, and its faults only through the Transport it hands each
//     node.
//   - May import: internal/cluster, internal/fault and what they export.
package supervisor

import (
	"errors"
	"fmt"
	"sync"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/membership"
	"repro/internal/model"
)

// The emulator is the Transport every supervised node listens and dials
// through.
var _ cluster.Transport = (*fault.Netem)(nil)

// ErrNodeDown is returned for operations routed to a crashed node.
var ErrNodeDown = errors.New("supervisor: node is down (crashed by the fault schedule)")

// Supervisor owns one in-process cluster under a fault schedule: it boots
// the nodes with a shared fault.Netem as every node's Transport, applies
// link directives to the emulator, and enforces crash/restart directives by
// stopping a node and rejoining it on the same address from what its
// Config.Storage journaled — the durable log of the fail-stop model. With
// base.Storage set to a durable.Storage the histories live on disk: crash
// closes the incarnation (flushing its journal) and restart recovers from
// the data directory through the same durable.Open path a kill -9'd served
// process takes. With none set they live in a memStorage, which the same
// code path reads back.
// Leave/join directives exercise the membership path instead: leave
// retires the node gracefully (gossiped departure releases the peers'
// retransmission obligations), join boots a fresh incarnation that
// rejoins through tJoin and anti-entropy catch-up. Client traffic
// routes through Do, which fails fast with ErrNodeDown during a victim's
// downtime.
type Supervisor struct {
	base  cluster.Config
	em    *fault.Netem
	obs   *fault.Observer // the directives applied; see Metrics
	tick  time.Duration
	addrs []string

	mu    sync.Mutex
	nodes []*cluster.Node // nil while crashed or departed
	left  []bool          // departed by a leave directive; a rejoin goroutine owns the slot
	// retired sums the transport counters of the incarnations stopped so
	// far, each one's final Stats.
	retired  cluster.Stats
	crashes  int
	restarts int
	leaves   int
	joins    int

	// joinWG tracks in-flight rejoin goroutines. Rejoining blocks until a
	// live seed admits the node, and a churn window may overlap other
	// nodes' crash windows, so joins run off the schedule loop and are
	// awaited only after every crashed node is back up.
	joinWG  sync.WaitGroup
	joinErr error
}

// memStorage is the JournalStorage of a cluster that keeps nothing on disk:
// each (node, shard) journal is the list of records committed to it, which
// outlives the incarnation committing them, and OpenJournal hands it back,
// record by record, to replay. A staged record is the history's own
// immutable copy (Journal.Stage), so the list holds no copy of its own.
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

func (m *memStorage) OpenJournal(id model.ReplicaID, n int, storeName string, shard, shards int, replay func(rec []byte) error) (cluster.Journal, error) {
	key := [2]int{int(id), shard}
	m.mu.Lock()
	recs := m.logs[key]
	m.mu.Unlock()
	for _, rec := range recs {
		if err := replay(rec); err != nil {
			return nil, err
		}
	}
	return &memJournal{m: m, key: key}, nil
}

// Open is NodeStorage's per-event journal over the same records.
func (m *memStorage) Open(id model.ReplicaID, n int, storeName string, shard, shards int) (func(cluster.Event) error, *cluster.History, *membership.Forest, func() error, error) {
	return cluster.OpenPerEvent(m, id, n, storeName, shard, shards)
}

// New boots an n-node full-mesh cluster of base.Store replicas on
// loopback, every node listening and dialing through em. The base config
// supplies the store, seed, and timing knobs; ID/N/Listen/Peers/Transport
// are filled in per node. tick maps schedule steps to wall time.
func New(base cluster.Config, n int, em *fault.Netem, tick time.Duration) (*Supervisor, error) {
	if base.Store == nil {
		return nil, errors.New("supervisor: needs a store")
	}
	if tick <= 0 {
		tick = 10 * time.Millisecond
	}
	if base.Storage == nil {
		base.Storage = &memStorage{}
	}
	s := &Supervisor{
		base:  base,
		em:    em,
		obs:   fault.NewObserver(n),
		tick:  tick,
		left:  make([]bool, n),
		addrs: make([]string, n),
	}
	nodes, err := cluster.BootMesh(n, func(i int) cluster.Config { return s.config(i, "127.0.0.1:0") })
	if err != nil {
		return nil, err
	}
	s.nodes = nodes
	for i, nd := range nodes {
		s.addrs[i] = nd.Addr()
	}
	return s, nil
}

// config is the base config as node i boots with it, whatever the
// incarnation: its identity, the shared emulator on every link, and no peers
// yet (they are connected, or joined through, once the node is up).
func (s *Supervisor) config(i int, listen string) cluster.Config {
	cfg := s.base
	cfg.ID = model.ReplicaID(i)
	cfg.N = len(s.addrs)
	cfg.Listen = listen
	cfg.Peers = nil
	cfg.Transport = s.em
	return cfg
}

func (s *Supervisor) peersOf(i int) map[model.ReplicaID]string {
	peers := make(map[model.ReplicaID]string)
	for j, addr := range s.addrs {
		if j != i {
			peers[model.ReplicaID(j)] = addr
		}
	}
	return peers
}

// Do routes one client operation to node i's current incarnation.
func (s *Supervisor) Do(i int, obj model.ObjectID, op model.Operation) (model.Response, error) {
	s.mu.Lock()
	nd := s.nodes[i]
	s.mu.Unlock()
	if nd == nil {
		return model.Response{}, ErrNodeDown
	}
	return nd.Do(obj, op)
}

// Doer adapts node i to the cluster.Doer interface (routing through the
// supervisor so restarts are transparent to load and convergence checks).
func (s *Supervisor) Doer(i int) cluster.Doer {
	return cluster.DoerFunc(func(obj model.ObjectID, op model.Operation) (model.Response, error) {
		return s.Do(i, obj, op)
	})
}

// Nodes snapshots the current live incarnations (crashed slots omitted).
func (s *Supervisor) Nodes() []*cluster.Node {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*cluster.Node, 0, len(s.nodes))
	for _, nd := range s.nodes {
		if nd != nil {
			out = append(out, nd)
		}
	}
	return out
}

// Crashes reports how many crash and restart directives were enforced.
func (s *Supervisor) Crashes() (crashes, restarts int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.crashes, s.restarts
}

// Churn reports how many leave and (completed) join directives were
// enforced.
func (s *Supervisor) Churn() (leaves, joins int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.leaves, s.joins
}

// retire stops an incarnation and keeps its transport counters: a closed
// node's Stats are the final values of its lock-free counters. Called with
// mu held.
func (s *Supervisor) retire(nd *cluster.Node) {
	nd.Close()
	s.retired.Add(nd.Stats())
}

// Metrics reports how much failure the run absorbed so far: the schedule's
// footprint from the directives applied, and the recovery work of the TCP
// transport summed over every incarnation of every node — those already
// stopped and, read now, the live ones. The counters are each node's own
// Stats, counted once, where the event happens.
func (s *Supervisor) Metrics() fault.Metrics {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.retired
	for _, nd := range s.nodes {
		if nd != nil {
			t.Add(nd.Stats())
		}
	}
	m := s.obs.Metrics()
	m.Retransmits, m.Reconnects = t.Retransmits, t.Reconnects
	m.DupFrames, m.GapFrames, m.SyncUpdates = t.DupFrames, t.GapFrames, t.SyncPulled
	m.Violations = int64(t.Violations)
	return m
}

// up returns every node's live incarnation, as they stand once a schedule
// has run, or an error while one is still down.
func (s *Supervisor) up() ([]*cluster.Node, error) {
	live := s.Nodes()
	if len(live) != len(s.addrs) {
		return nil, fmt.Errorf("supervisor: %d of %d nodes live after the schedule", len(live), len(s.addrs))
	}
	return live, nil
}

// Histories downloads one shard's recorded history from every node
// (restored events included) — AuditShards' fetch.
func (s *Supervisor) Histories(shard int) ([]cluster.History, error) {
	live, err := s.up()
	if err != nil {
		return nil, err
	}
	return cluster.HistoriesOf(live)(shard)
}

// Settle is cluster.Settle over the supervised cluster, reads routed
// through the supervisor.
func (s *Supervisor) Settle(timeout time.Duration, objs []model.ObjectID) error {
	live, err := s.up()
	if err != nil {
		return err
	}
	doers := make([]cluster.Doer, len(live))
	for i := range doers {
		doers[i] = s.Doer(i)
	}
	return cluster.Settle(cluster.QuiesceNodes(live, timeout), s.base.Store, doers, objs)
}

// RunSchedule enforces the schedule in real time: directive step k fires at
// k×tick after the call. Link directives go to the emulator; crash stops
// the victim and restart rejoins it from its storage on its original
// address. The network is healed and every victim
// restarted when RunSchedule returns, even if the schedule left windows
// open, so callers can always proceed to quiescence and audit.
func (s *Supervisor) RunSchedule(sched fault.Schedule) error {
	start := time.Now()
	var firstErr error
	for _, d := range sched.Directives {
		due := time.Duration(d.Step) * s.tick
		if wait := due - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		if err := s.apply(d); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	s.em.Heal()
	// Crashed nodes first: an in-flight rejoin may be waiting for one of
	// them to come back as a seed, so the wait must come after.
	if err := s.restartAll(); err != nil && firstErr == nil {
		firstErr = err
	}
	s.joinWG.Wait()
	s.mu.Lock()
	if s.joinErr != nil && firstErr == nil {
		firstErr = s.joinErr
	}
	s.mu.Unlock()
	s.obs.Finish(sched.Steps)
	return firstErr
}

func (s *Supervisor) apply(d fault.Directive) error {
	s.obs.Directive(d)
	switch d.Kind {
	case fault.KindCrash:
		return s.crash(d.Node)
	case fault.KindRestart:
		return s.restart(d.Node)
	case fault.KindLeave:
		return s.leave(d.Node)
	case fault.KindJoin:
		s.joinWG.Add(1)
		go func() {
			defer s.joinWG.Done()
			if err := s.rejoin(d.Node); err != nil {
				s.mu.Lock()
				if s.joinErr == nil {
					s.joinErr = err
				}
				s.mu.Unlock()
			}
		}()
		return nil
	default:
		s.em.Apply(d, s.tick)
		return nil
	}
}

// crash fail-stops node i: what its storage journaled is the durable state
// that survives; its sockets, cursors, and connections die with it. Every
// event was journaled in the turn that recorded it, before any hello
// ack counting it left, so an update a sender counts as acked is always in
// the log the restart recovers — with two victims down at once, too.
func (s *Supervisor) crash(i int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if i < 0 || i >= len(s.nodes) || s.nodes[i] == nil {
		return fmt.Errorf("supervisor: crash directive for invalid or already-down node %d", i)
	}
	nd := s.nodes[i]
	s.nodes[i] = nil
	s.crashes++
	s.retire(nd)
	return nil
}

// restart rejoins node i on its original address, recovering its history
// from storage.
func (s *Supervisor) restart(i int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if i < 0 || i >= len(s.nodes) || s.nodes[i] != nil {
		return fmt.Errorf("supervisor: restart directive for invalid or already-up node %d", i)
	}
	nd, err := s.reboot(i, nil)
	if err != nil {
		return fmt.Errorf("supervisor: restart node %d: %w", i, err)
	}
	if err := nd.Connect(s.peersOf(i)); err != nil {
		nd.Close()
		return fmt.Errorf("supervisor: reconnect node %d: %w", i, err)
	}
	s.nodes[i] = nd
	s.restarts++
	return nil
}

// reboot starts node i's next incarnation on its original address, joining
// through join when that is set. The listen port can linger briefly after the
// old incarnation's sockets close, so binding retries for a moment; any
// other error, a join refusal among them, is permanent and is not retried.
func (s *Supervisor) reboot(i int, join map[model.ReplicaID]string) (*cluster.Node, error) {
	cfg := s.config(i, s.addrs[i])
	cfg.Join = join
	var nd *cluster.Node
	var err error
	for attempt := 0; attempt < 50; attempt++ {
		nd, err = cluster.NewNode(cfg)
		if !errors.Is(err, syscall.EADDRINUSE) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	return nd, err
}

// leave retires node i gracefully: it announces its departure (releasing
// peers' retransmission obligations for it), then stops. Its history stays
// in storage as a crash's does — the rejoin directive brings it back
// through the membership path, where anti-entropy catch-up fills whatever
// it missed while away.
func (s *Supervisor) leave(i int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if i < 0 || i >= len(s.nodes) || s.nodes[i] == nil {
		return fmt.Errorf("supervisor: leave directive for invalid or already-down node %d", i)
	}
	nd := s.nodes[i]
	s.nodes[i] = nil
	s.left[i] = true
	s.leaves++
	err := nd.Leave()
	s.retire(nd)
	if err != nil {
		return fmt.Errorf("supervisor: leave node %d: %w", i, err)
	}
	return nil
}

// rejoin brings a departed node back through the membership path: a fresh
// incarnation on the original address, seeded with every other node's
// address, that announces itself with tJoin and catches up via
// anti-entropy before replicating. NewNode blocks until a seed admits it,
// so rejoin runs on a goroutine spawned by apply.
func (s *Supervisor) rejoin(i int) error {
	s.mu.Lock()
	departed := i >= 0 && i < len(s.nodes) && s.nodes[i] == nil && s.left[i]
	s.mu.Unlock()
	if !departed {
		return fmt.Errorf("supervisor: join directive for invalid or non-departed node %d", i)
	}
	nd, err := s.reboot(i, s.peersOf(i))
	if err != nil {
		return fmt.Errorf("supervisor: rejoin node %d: %w", i, err)
	}
	s.mu.Lock()
	s.nodes[i] = nd
	s.left[i] = false
	s.joins++
	s.mu.Unlock()
	return nil
}

// restartAll rejoins any crashed node still down (defensive tail for
// truncated schedules). Departed slots are skipped: their rejoin
// goroutines own them, and RunSchedule waits those out separately.
func (s *Supervisor) restartAll() error {
	s.mu.Lock()
	down := []int{}
	for i, nd := range s.nodes {
		if nd == nil && !s.left[i] {
			down = append(down, i)
		}
	}
	s.mu.Unlock()
	for _, i := range down {
		if err := s.restart(i); err != nil {
			return err
		}
	}
	return nil
}

// Close shuts every live node down.
func (s *Supervisor) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, nd := range s.nodes {
		if nd != nil {
			s.nodes[i] = nil
			s.retire(nd)
		}
	}
}
