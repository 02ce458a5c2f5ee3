package cluster

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/execution"
	"repro/internal/livecheck"
	"repro/internal/model"
	"repro/internal/spec"
	"repro/internal/store"
)

// The post-run pipeline every driver of a cluster walks — loadgen,
// chaossearch.Validate, the Supervisor, the conformance battery, this
// package's tests: Settle, then AuditShards, then PropertyErr. A check added
// here is one every run gets.

// PollQuiesced polls quiesced — one sweep over a cluster, true when every
// replica reported quiescence — until two sweeps in a row are clean: one can
// race an update in flight between a sender and the receiving shard's turn,
// two cannot, since a receiver's delivered counts are read only after
// application and only ever raise a sender's cursor. That takes the second
// sweep to start after the first has ended, and nothing more, so a clean
// sweep is followed by the next at once. The first sweep after traffic reads
// false: it is the one that asks every sender's peers what they delivered
// (Node.Quiesced), and a poller that cannot see the answers arrive waits
// 10 ms after it before sweeping again. It returns quiesced's error at once,
// and an error when timeout passes first.
func PollQuiesced(quiesced func() (bool, error), timeout time.Duration) error {
	return pollQuiesced(quiesced, time.Sleep, timeout)
}

// pollQuiesced is PollQuiesced with the wait after a dirty sweep given:
// wait(d) returns once the answers that sweep asked for are in, or when d
// has passed — 10 ms, or what is left of the timeout if that is less.
func pollQuiesced(sweep func() (bool, error), wait func(time.Duration), timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	clean := 0
	for time.Now().Before(deadline) {
		all, err := sweep()
		if err != nil {
			return err
		}
		if all {
			if clean++; clean >= 2 {
				return nil
			}
			continue
		}
		clean = 0
		wait(min(10*time.Millisecond, time.Until(deadline)))
	}
	return fmt.Errorf("cluster did not quiesce within %v", timeout)
}

// WaitQuiesced is PollQuiesced over in-process nodes, where the answers can
// be seen arriving: after a dirty sweep it waits until every link the sweep
// asked has read the answer to its question (awaitAnswers), so quiescence
// costs about one round trip after the last delivery, not a fixed sleep, and
// leaves no question behind to be answered after later traffic. The 10 ms
// bound on the wait covers a link whose peer is down or slow. False on
// timeout.
func WaitQuiesced(nodes []*Node, timeout time.Duration) bool {
	sweep := func() (bool, error) { return sweepQuiesced(nodes), nil }
	return pollQuiesced(sweep, func(d time.Duration) { awaitAnswers(nodes, d) }, timeout) == nil
}

// SweepAll is one quiescence sweep over a cluster's nodes, in-process or
// remote: it asks every node, not only up to the first that is not
// quiesced, so each sweep after traffic asks every link that is behind, and
// the next reads all the answers. It stops at the first error.
func SweepAll[T any](nodes []T, quiesced func(T) (bool, error)) (bool, error) {
	all := true
	for _, n := range nodes {
		q, err := quiesced(n)
		if err != nil {
			return false, err
		}
		all = q && all
	}
	return all, nil
}

// sweepQuiesced is SweepAll over in-process nodes.
func sweepQuiesced(nodes []*Node) bool {
	all, _ := SweepAll(nodes, func(n *Node) (bool, error) { return n.Quiesced(), nil })
	return all
}

// awaitAnswers waits until no link of nodes has a question posted or
// unanswered (peerSender.questioned), or until d has passed. With no link
// asked since the last wait (peerSender.sought) — the sweep was dirty for
// another reason: a pending broadcast, a member not linked yet — it waits d,
// as there is no answer to wait for.
func awaitAnswers(nodes []*Node, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	asked := false
	for _, n := range nodes {
		for _, p := range n.allPeers() {
			asked = p.sought.Swap(false) || asked
			for {
				wake := n.answerWait() // before the check: an answer after it closes wake
				if !p.questioned() {
					break
				}
				asked = true
				select {
				case <-wake:
				case <-t.C:
					return
				}
			}
		}
	}
	if !asked {
		<-t.C
	}
}

// QuiesceNodes is Settle's quiesce step over in-process nodes; its error
// carries every node's counters, which is where a wedged link shows.
func QuiesceNodes(nodes []*Node, timeout time.Duration) func() error {
	return func() error {
		if WaitQuiesced(nodes, timeout) {
			return nil
		}
		stats := make([]Stats, len(nodes))
		for i, nd := range nodes {
			stats[i] = nd.Stats()
		}
		return fmt.Errorf("cluster did not quiesce within %v: %+v", timeout, stats)
	}
}

// Doer performs one client operation at a replica — implemented by *Node
// (in-process), *Client (over the wire) and DoerFunc, so load and
// convergence checks run identically in tests and in cmd/loadgen.
type Doer interface {
	Do(obj model.ObjectID, op model.Operation) (model.Response, error)
}

// DoerFunc adapts a function to Doer.
type DoerFunc func(obj model.ObjectID, op model.Operation) (model.Response, error)

// Do implements Doer.
func (f DoerFunc) Do(obj model.ObjectID, op model.Operation) (model.Response, error) {
	return f(obj, op)
}

// Doers lists replicas of one concrete type as the []Doer Settle takes.
func Doers[T Doer](replicas []T) []Doer {
	out := make([]Doer, len(replicas))
	for i, r := range replicas {
		out[i] = r
	}
	return out
}

// Settle brings a cluster that has stopped taking load to the state Lemma 3
// speaks about and checks its conclusion: quiesce (Definition 17); for a
// store whose received updates surface only as local reads elapse (its
// store.Conformance asks for more than one read round), each round but the
// last as reads of objs at every replica, and quiescence again; then
// CheckConverged, the last round. st may be nil when the store is not
// known, which skips the aged reads.
func Settle(quiesce func() error, st store.Store, replicas []Doer, objs []model.ObjectID) error {
	if err := quiesce(); err != nil {
		return err
	}
	if rounds := store.ConformanceOf(st).ConvergenceReadRounds; rounds > 1 {
		for round := 1; round < rounds; round++ {
			for i, r := range replicas {
				for _, obj := range objs {
					if _, err := r.Do(obj, model.Read()); err != nil {
						return fmt.Errorf("cluster: aged read of %s at replica %d: %w", obj, i, err)
					}
				}
			}
		}
		if err := quiesce(); err != nil {
			return err
		}
	}
	return CheckConverged(replicas, objs)
}

// CheckConverged verifies Lemma 3's conclusion on a quiescent cluster:
// reads of every listed object return the same response at every replica.
// Unlike the simulator's lossy runs, the transport's retransmission makes
// delivery genuinely eventual (Definition 3), so convergence is owed after
// quiescence even on a network that dropped connections. The reads go
// through the replicas' ordinary client path and are recorded like any
// other operations.
func CheckConverged(replicas []Doer, objects []model.ObjectID) error {
	for _, obj := range objects {
		var first model.Response
		for i, r := range replicas {
			resp, err := r.Do(obj, model.Read())
			if err != nil {
				return fmt.Errorf("cluster: convergence read of %s at replica %d: %w", obj, i, err)
			}
			if i == 0 {
				first = resp
			} else if !resp.Equal(first) {
				return fmt.Errorf("cluster: %s diverged after quiescence: replica 0 reads %s, replica %d reads %s",
					obj, first, i, resp)
			}
		}
	}
	return nil
}

// HistorySource is a replica whose recorded history can be fetched shard by
// shard: *Node in process, *Client over the wire.
type HistorySource interface {
	ShardHistory(shard int) (History, error)
}

// HistoriesOf is AuditShards' fetch over a fixed set of replicas.
func HistoriesOf[T HistorySource](replicas []T) func(shard int) ([]History, error) {
	return func(shard int) ([]History, error) {
		hists := make([]History, len(replicas))
		for i, r := range replicas {
			h, err := r.ShardHistory(shard)
			if err != nil {
				return nil, err
			}
			hists[i] = h
		}
		return hists, nil
	}
}

// ShardAudit is one shard's audited run: its merged execution, how many
// events its histories hold, and the verdicts the run owes.
type ShardAudit struct {
	Exec       *execution.Execution
	Events     int
	WellFormed error // Definition 1, over Exec
	// Causal is the causal verdict on the merged history, computed for every
	// store; CausalOwed says whether the store claims causal consistency, and
	// so whether Err reports it.
	CausalOwed bool
	Causal     error
}

// Err is the first failed verdict the run owes.
func (a ShardAudit) Err() error {
	if a.WellFormed != nil {
		return a.WellFormed
	}
	if a.CausalOwed {
		return a.Causal
	}
	return nil
}

// AuditShards replays a run through the checkers, shard by shard: fetch the
// shard's histories from every node, merge them (refusing duplicate sends and
// receives with no send or before it), check the execution well-formed, and
// feed the merged events in merge order to one livecheck.Checker — the one a
// running cluster taps, so live and post-run verdicts are one computation, at
// linear cost. Its premise, a per-origin-prefix visibility, holds on every TCP
// run because a link is FIFO; its rval check rules on MVR-typed objects,
// the typing every networked caller passes. Each shard is its own broadcast
// domain with its own Lamport clock, so same-shard histories merge into an
// execution of their own. No key spans two shards — which is checked: a do
// event on an object that routes elsewhere fails the audit — so verdicts on
// per-object properties compose into the whole cluster's. The causal verdict
// does not: happens-before chains through a node's session order across
// objects, hence across shards, and a per-shard audit sees none of that order.
// For a sharded run it is a verdict per shard, not one on the cluster.
// Verdicts come back in the ShardAudits; the error is for a run that cannot
// be audited at all.
func AuditShards(shards int, fetch func(shard int) ([]History, error), types spec.Types) ([]ShardAudit, error) {
	router := NewShardRouter(shards)
	out := make([]ShardAudit, shards)
	for s := range out {
		hists, err := fetch(s)
		if err != nil {
			return nil, err
		}
		merged, exec, err := merge(hists)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", s, err)
		}
		a := ShardAudit{Exec: exec, WellFormed: exec.CheckWellFormed()}
		n := 0
		for _, h := range hists {
			n = max(n, h.N)
			a.Events += len(h.Events)
			a.CausalOwed = a.CausalOwed || strings.HasPrefix(h.Store, "causal")
		}
		ck := livecheck.New(n, livecheck.Options{Types: types})
		for _, m := range merged {
			if m.ev.Kind == model.ActDo {
				if to := router.Route(m.ev.Object); to != s {
					return nil, fmt.Errorf("shard %d: r%d recorded a do on %q, which routes to shard %d", s, m.node, m.ev.Object, to)
				}
			}
			ck.Observe(liveEvent(m.node, *m.ev))
		}
		a.Causal = ck.Err()
		out[s] = a
	}
	return out, nil
}

// PropertyErr is a run's §4 verdict: the checkers' violation count is an
// error unless the store declares (store.Conformance) that it violates a
// write-propagating property by design — the K-buffer store's visible reads,
// the GSP sequencer's receive-driven commits — in which case the count is a
// figure to report, not a failure.
func PropertyErr(st store.Store, violations int64) error {
	if c := store.ConformanceOf(st); c.ViolatesInvisibleReads || c.ViolatesOpDrivenMessages {
		return nil
	}
	if violations != 0 {
		return fmt.Errorf("%d §4 property violations recorded", violations)
	}
	return nil
}

// BootMesh boots n nodes — node i from config(i), with ID i and N n filled
// in — and, once every listener is up and its address known, links every
// pair. On an error the nodes already booted are closed.
func BootMesh(n int, config func(i int) Config) ([]*Node, error) {
	nodes := make([]*Node, 0, n)
	fail := func(err error) ([]*Node, error) {
		for _, nd := range nodes {
			nd.Close()
		}
		return nil, err
	}
	for i := 0; i < n; i++ {
		cfg := config(i)
		cfg.ID, cfg.N = model.ReplicaID(i), n
		nd, err := NewNode(cfg)
		if err != nil {
			return fail(fmt.Errorf("cluster: node %d: %w", i, err))
		}
		nodes = append(nodes, nd)
	}
	for i, nd := range nodes {
		peers := make(map[model.ReplicaID]string, n-1)
		for j, other := range nodes {
			if j != i {
				peers[model.ReplicaID(j)] = other.Addr()
			}
		}
		if err := nd.Connect(peers); err != nil {
			return fail(fmt.Errorf("cluster: connect node %d: %w", i, err))
		}
	}
	return nodes, nil
}
