// Package sim drives replicas of any store.Store through interleaved
// executions, recording the resulting concrete execution and deriving the
// abstract execution the run complies with.
//
// The simulator is the paper's execution model made operational: client
// operations complete immediately at a single replica; broadcasts enqueue a
// message per destination; delivery is controlled by the test or workload
// (FIFO, random, adversarial), with optional fault injection — drops,
// duplicates, reordering, and partitions. Partitions delay rather than drop:
// the model requires eventual delivery for eventual consistency (Definition
// 3), so a partition blocks delivery until healed. Explicit drops genuinely
// lose messages (our stores do not retransmit), so CheckConverged refuses to
// rule on a run that dropped anything — it returns ErrLossyRun instead of
// silently asserting Lemma 3 where it cannot hold — unless the store
// declares that it converges under loss in its store.Conformance (state-sync
// propagation subsumes losses).
// Safety assertions hold in all runs. For convergence over a genuinely
// lossy network, internal/cluster supplies the reliable-delivery transport
// the stores themselves lack.
package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/abstract"
	"repro/internal/execution"
	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/livecheck"
	"repro/internal/model"
	"repro/internal/store"
)

// Faults configures probabilistic fault injection.
type Faults struct {
	// DropProb is the probability a broadcast copy to one destination is
	// lost entirely.
	DropProb float64
	// DupProb is the probability a broadcast copy is enqueued twice.
	DupProb float64
	// Reorder makes DeliverOne pick a random queued message instead of the
	// oldest deliverable one.
	Reorder bool
	// Adversarial makes DeliverOne prefer the NEWEST deliverable message
	// (LIFO), maximizing reordering pressure on causal buffering: dependent
	// updates systematically arrive before their dependencies.
	Adversarial bool
}

type queuedMsg struct {
	msgID int
	from  model.ReplicaID
}

// Cluster simulates n replicas of one store.
type Cluster struct {
	st       store.Store
	n        int
	seed     int64
	replicas []store.Replica
	checkers []*store.PropertyChecker
	exec     *execution.Execution
	queues   [][]queuedMsg // inbound queue per replica
	rng      *rand.Rand
	faults   Faults
	drops    int // broadcast copies lost to DropProb

	// chaos overlays fault-schedule directives (ApplyDirective) and
	// partitions on top of the probabilistic faults; nil until the first
	// of either.
	chaos *chaosState

	// obs, when non-nil, collects chaos metrics for this run (SetObserver).
	// Every count it receives is derived from the deterministic execution,
	// never from wall time, so observed metrics are a pure function of
	// (store, seed, schedule).
	obs *fault.Observer

	// tap, when non-nil, streams every recorded event to a livecheck
	// observer (SetTap), mirroring the TCP engine's Config.Tap.
	tap *tapState

	// Visibility derivation: per recorded do event, the dot it minted (zero
	// Seq for reads) and what it saw. frontier[r] is replica r's running
	// visible prefix (the slice its last do event recorded, never written
	// again) and minted[o] the highest dot origin o has minted.
	doDots   []model.Dot
	pasts    []past
	frontier [][]uint64
	minted   []uint64
}

// past is what one do event saw, exactly: every update (o, 1..frontier[o])
// — the per-origin prefix, probed as cluster.Node probes it — plus the dots
// in beyond, visible past a gap in their origin's sequence. A FIFO link
// cannot produce such a gap, so beyond is empty on every engine but this one,
// which can deliver out of order to stores that apply what arrives (gsp,
// lww): there the prefix alone under-reports, and the derived execution must
// not. A nil frontier is a replica that reports no visibility.
type past struct {
	frontier []uint64
	beyond   []model.Dot
}

// sees reports whether update d is in the past.
func (p past) sees(d model.Dot) bool {
	if int(d.Origin) < len(p.frontier) && d.Seq <= p.frontier[d.Origin] {
		return true
	}
	return slices.Contains(p.beyond, d)
}

// within reports whether p is contained in q, both having been reported. A
// prefix of p longer than q's is not: q's ended at a dot q could not see.
func (p past) within(q past) bool {
	if p.frontier == nil || q.frontier == nil {
		return false
	}
	for o, s := range p.frontier {
		if s > q.frontier[o] {
			return false
		}
	}
	for _, d := range p.beyond {
		if !q.sees(d) {
			return false
		}
	}
	return true
}

// NewCluster creates a cluster of n replicas of st with a seeded RNG.
func NewCluster(st store.Store, n int, seed int64) *Cluster {
	c := &Cluster{
		st:     st,
		n:      n,
		seed:   seed,
		exec:   execution.New(),
		queues: make([][]queuedMsg, n),
		rng:    rand.New(rand.NewSource(seed)),
		minted: make([]uint64, n),
	}
	c.frontier = make([][]uint64, n)
	for i := range c.frontier {
		c.frontier[i] = make([]uint64, n)
	}
	for i := 0; i < n; i++ {
		r := st.NewReplica(model.ReplicaID(i), n)
		c.replicas = append(c.replicas, r)
		c.checkers = append(c.checkers, store.NewPropertyChecker(r))
	}
	return c
}

// NewClusterWorker creates a cluster whose RNG stream is split from a root
// seed for the given worker index (gen.SplitSeed), so parallel simulations
// remain reproducible from one root seed: the cluster driven as worker i is
// identical no matter which goroutine drives it.
func NewClusterWorker(st store.Store, n int, root int64, worker int) *Cluster {
	return NewCluster(st, n, gen.SplitSeed(root, worker))
}

// N returns the number of replicas.
func (c *Cluster) N() int { return c.n }

// Seed returns the seed the cluster's RNG was created with (for a worker
// cluster, the already-split stream seed).
func (c *Cluster) Seed() int64 { return c.seed }

// Store returns the store under simulation.
func (c *Cluster) Store() store.Store { return c.st }

// Replica returns replica r (for store-specific inspection in tests).
func (c *Cluster) Replica(r model.ReplicaID) store.Replica { return c.replicas[r] }

// Execution returns the recorded concrete execution.
func (c *Cluster) Execution() *execution.Execution { return c.exec }

// SetFaults installs fault injection for subsequent sends/deliveries.
func (c *Cluster) SetFaults(f Faults) { c.faults = f }

// Do invokes op on obj at replica r, records the do event and what it saw,
// and returns the response.
func (c *Cluster) Do(r model.ReplicaID, obj model.ObjectID, op model.Operation) model.Response {
	rep := c.replicas[r]
	resp := c.checkers[r].CheckDo(obj, op)
	c.exec.AppendDo(r, obj, op, resp)

	var dot model.Dot
	if op.Kind.IsMutator() {
		if dr, ok := rep.(store.DotReporter); ok {
			if d, has := dr.LastDot(); has {
				dot = d
				c.minted[d.Origin] = max(c.minted[d.Origin], d.Seq)
			}
		}
	}
	p := c.observe(r)
	c.doDots = append(c.doDots, dot)
	c.pasts = append(c.pasts, p)
	if c.tap != nil {
		// The prefix is the frontier cluster.Node records: nil when the store
		// reports no visibility.
		c.tap.emit(livecheck.Event{
			Node: r, Kind: model.ActDo, Object: obj, Op: op, Rval: resp, Dot: dot, Frontier: p.frontier,
		})
	}
	return resp
}

// observe records what replica r's reads see now: its prefix pushed forward
// by probing the store's own visibility report, then the dots between the
// prefix and each origin's high-water mark that are visible all the same.
func (c *Cluster) observe(r model.ReplicaID) past {
	vr, ok := c.replicas[r].(store.VisReporter)
	if !ok {
		return past{}
	}
	f, shared := c.frontier[r], true
	for o := range f {
		for vr.Sees(model.Dot{Origin: model.ReplicaID(o), Seq: f[o] + 1}) {
			if shared {
				f, shared = slices.Clone(f), false
			}
			f[o]++
		}
	}
	c.frontier[r] = f
	p := past{frontier: f}
	for o := range f {
		for seq := f[o] + 2; seq <= c.minted[o]; seq++ {
			if d := (model.Dot{Origin: model.ReplicaID(o), Seq: seq}); vr.Sees(d) {
				p.beyond = append(p.beyond, d)
			}
		}
	}
	return p
}

// Send broadcasts replica r's pending message, if any, recording the send
// event and enqueueing a copy per destination (subject to faults and
// partitions — a partition delays enqueued copies, which stay queued until
// delivered after healing; a drop removes the copy entirely). It returns the
// message ID and whether a message was sent.
func (c *Cluster) Send(r model.ReplicaID) (int, bool) {
	if c.Crashed(r) {
		return 0, false
	}
	payload := c.replicas[r].PendingMessage()
	if payload == nil {
		return 0, false
	}
	e := c.exec.AppendSend(r, payload) // copies it: the replica only lends it
	c.checkers[r].OnSend()
	if c.tap != nil {
		c.tap.send(r, e.MsgID)
	}
	for to := 0; to < c.n; to++ {
		if model.ReplicaID(to) == r {
			continue
		}
		if c.rng.Float64() < c.faults.DropProb {
			c.drops++
			continue
		}
		copies := 1
		if c.rng.Float64() < c.faults.DupProb {
			copies = 2
		}
		if c.chaos != nil && c.chaos.links.At(int(r), to).Dup {
			copies = 2
			c.obs.AddDupCopies(1)
		}
		for k := 0; k < copies; k++ {
			c.queues[to] = append(c.queues[to], queuedMsg{msgID: e.MsgID, from: r})
		}
	}
	return e.MsgID, true
}

// SendAll broadcasts every replica's pending message, returning how many
// messages were sent.
func (c *Cluster) SendAll() int {
	sent := 0
	for r := 0; r < c.n; r++ {
		if _, ok := c.Send(model.ReplicaID(r)); ok {
			sent++
		}
	}
	return sent
}

// deliverIndex removes queue entry i of replica to and applies it.
func (c *Cluster) deliverIndex(to model.ReplicaID, i int) {
	q := c.queues[to]
	m := q[i]
	c.queues[to] = append(q[:i], q[i+1:]...)
	msg, ok := c.exec.Message(m.msgID)
	if !ok {
		panic(fmt.Sprintf("sim: queued unknown message m%d", m.msgID))
	}
	c.exec.AppendReceive(to, m.msgID)
	c.checkers[to].CheckReceive(msg.Payload)
	if c.tap != nil {
		c.tap.emit(livecheck.Event{Node: to, Kind: model.ActReceive, Origin: m.from, Seq: c.tap.msgSeq[m.msgID]})
	}
}

// deliverable returns the indices of queue entries currently allowed through
// the chaos overlay (cuts, delay windows, and a crashed destination all
// hold messages back without losing them).
func (c *Cluster) deliverable(to model.ReplicaID) []int {
	if c.Crashed(to) {
		c.obs.AddBlocked(int64(len(c.queues[to])))
		return nil
	}
	var idx []int
	var blocked int64
	for i, m := range c.queues[to] {
		if c.chaos != nil {
			if lk := c.chaos.links.At(int(m.from), int(to)); lk.Cut || lk.Delay > 0 {
				blocked++
				continue
			}
		}
		idx = append(idx, i)
	}
	c.obs.AddBlocked(blocked)
	return idx
}

// DeliverOne delivers one queued message to replica to: the oldest
// deliverable one, or a random one when reordering is enabled. It reports
// whether anything was delivered.
func (c *Cluster) DeliverOne(to model.ReplicaID) bool {
	idx := c.deliverable(to)
	if len(idx) == 0 {
		return false
	}
	pick := idx[0]
	switch {
	case c.faults.Adversarial:
		pick = idx[len(idx)-1]
	case c.faults.Reorder:
		pick = idx[c.rng.Intn(len(idx))]
	case c.chaosReorders(to, idx):
		pick = idx[c.rng.Intn(len(idx))]
	}
	c.deliverIndex(to, pick)
	return true
}

// chaosReorders reports whether any deliverable entry sits on a link with
// an open reorder window, in which case the pick is randomized.
func (c *Cluster) chaosReorders(to model.ReplicaID, idx []int) bool {
	if c.chaos == nil {
		return false
	}
	for _, i := range idx {
		if c.chaos.links.At(int(c.queues[to][i].from), int(to)).Reorder {
			return true
		}
	}
	return false
}

// DeliverFrom delivers the oldest queued message from a specific sender to a
// specific destination, ignoring partitions (used by scripted scenarios).
func (c *Cluster) DeliverFrom(to, from model.ReplicaID) bool {
	for i, m := range c.queues[to] {
		if m.from == from {
			c.deliverIndex(to, i)
			return true
		}
	}
	return false
}

// DeliverMsg delivers a specific message instance to a destination if it is
// queued there, ignoring partitions.
func (c *Cluster) DeliverMsg(to model.ReplicaID, msgID int) bool {
	for i, m := range c.queues[to] {
		if m.msgID == msgID {
			c.deliverIndex(to, i)
			return true
		}
	}
	return false
}

// QueueLen returns the number of messages queued for replica to.
func (c *Cluster) QueueLen(to model.ReplicaID) int { return len(c.queues[to]) }

// Partition splits the cluster into groups; messages flow only within a
// group. Replicas absent from every group are isolated. It applies a
// partition directive to the links ApplyDirective writes, unobserved.
func (c *Cluster) Partition(groups ...[]model.ReplicaID) {
	d := fault.Directive{Kind: fault.KindPartition}
	for _, g := range groups {
		ints := make([]int, len(g))
		for i, r := range g {
			ints[i] = int(r)
		}
		d.Groups = append(d.Groups, ints)
	}
	c.chaosOverlay().links.Apply(d)
}

// Heal restores full connectivity: it applies a heal directive, which
// lifts every cut, unobserved.
func (c *Cluster) Heal() {
	if c.chaos != nil {
		c.chaos.links.Apply(fault.Directive{Kind: fault.KindHeal})
	}
}

// Quiesce heals the network, then alternates broadcasting every pending
// message and delivering every queued message until neither remains,
// producing a quiescent execution (Definition 17). It terminates for any
// op-driven store: deliveries create no new pending messages. The fault
// configuration is suspended so quiescence is actually reachable.
func (c *Cluster) Quiesce() {
	savedFaults := c.faults
	c.faults = Faults{}
	c.ClearChaos()
	var rounds, delivered int64
	for {
		sent := c.SendAll()
		roundDelivered := 0
		for to := 0; to < c.n; to++ {
			for c.DeliverOne(model.ReplicaID(to)) {
				roundDelivered++
			}
		}
		if sent == 0 && roundDelivered == 0 {
			break
		}
		rounds++
		delivered += int64(roundDelivered)
	}
	c.obs.ObserveQuiesce(rounds, delivered)
	c.faults = savedFaults
}

// IsQuiescent reports whether no replica has a pending message and no
// message is queued (Definition 17 for the recorded run).
func (c *Cluster) IsQuiescent() bool {
	for r := 0; r < c.n; r++ {
		if c.replicas[r].PendingMessage() != nil || len(c.queues[r]) > 0 {
			return false
		}
	}
	return true
}

// ReadAll performs a read of obj at every replica and returns the responses
// (recorded as do events).
func (c *Cluster) ReadAll(obj model.ObjectID) []model.Response {
	out := make([]model.Response, c.n)
	for r := 0; r < c.n; r++ {
		out[r] = c.Do(model.ReplicaID(r), obj, model.Read())
	}
	return out
}

// ErrLossyRun is returned by CheckConverged when the run genuinely lost
// messages: the stores do not retransmit, so Lemma 3's premise (eventual
// delivery, Definition 3) does not hold and convergence cannot be asserted
// — even if the reads happen to agree.
var ErrLossyRun = errors.New("sim: run dropped messages, convergence cannot be asserted (no retransmission)")

// Drops returns the number of broadcast copies lost to fault injection.
func (c *Cluster) Drops() int { return c.drops }

// CheckConverged verifies Lemma 3's conclusion on the current (quiescent)
// state: reads of every listed object return the same response at every
// replica. The reads are recorded like any other client operations.
//
// On a run with explicit drops it returns an error wrapping ErrLossyRun
// instead of a verdict, unless the store reconverges through loss by design
// (store.Conformance's ConvergesUnderLoss): eventual delivery failed, so
// agreement would be coincidence, not Lemma 3.
func (c *Cluster) CheckConverged(objects []model.ObjectID) error {
	if c.drops > 0 && !store.ConformanceOf(c.st).ConvergesUnderLoss {
		return fmt.Errorf("%w: %d copies dropped", ErrLossyRun, c.drops)
	}
	for _, obj := range objects {
		resps := c.ReadAll(obj)
		for r := 1; r < c.n; r++ {
			if !resps[r].Equal(resps[0]) {
				return fmt.Errorf("sim: %s diverged after quiescence: r0 reads %s, r%d reads %s", obj, resps[0], r, resps[r])
			}
		}
	}
	return nil
}

// PropertyViolations aggregates the §4 property violations observed at all
// replicas.
func (c *Cluster) PropertyViolations() []*store.PropertyViolation {
	var out []*store.PropertyViolation
	for _, ch := range c.checkers {
		out = append(out, ch.Violations()...)
	}
	return out
}

// DerivedAbstract builds the abstract execution this run complies with
// (abstract.Derive) from what each do event saw.
func (c *Cluster) DerivedAbstract() *abstract.Execution {
	mutator := make([]bool, len(c.doDots))
	for i, d := range c.doDots {
		mutator[i] = d.Seq != 0
	}
	return abstract.Derive(c.exec.DoEvents(), mutator,
		func(i, j int) bool { return c.pasts[j].sees(c.doDots[i]) },
		func(i, j int) bool { return c.pasts[i].within(c.pasts[j]) })
}
