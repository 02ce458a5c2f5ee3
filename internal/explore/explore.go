// Package explore is a bounded model checker for store implementations: it
// enumerates EVERY schedule of a small scripted workload — all interleavings
// of client operations (in per-replica program order) and message deliveries
// (any order, any interleaving with operations) — and checks invariants in
// every reachable state, rather than sampling schedules randomly as
// internal/sim does.
//
// Replica state machines offer no undo, so the explorer replays the action
// prefix from scratch for every expansion and deduplicates reachable states
// by a canonical signature (replica digests plus pending queue contents).
// The state graph of a script with a handful of operations has only
// thousands of states, which makes exhaustive checking practical exactly
// where it is most valuable: the boundary cases adversarial schedules
// rarely hit by chance.
//
// Replays are embarrassingly parallel, and the engine exploits that with a
// level-synchronized frontier expansion: each BFS level's candidate
// prefixes are replayed and checked by a pool of Config.Parallel workers
// (the expensive phase), consulting a mutex-striped visited-set to skip
// states merged in earlier levels; a single-threaded merge then
// deduplicates, counts, and schedules children in canonical candidate
// order. Because every Result field and every error is decided in the merge
// phase, output is byte-identical for every worker count — parallel
// exploration is observationally the same as sequential, only faster.
//
// Checked invariants:
//
//   - per-state: the §4 properties claimed by the store hold (via
//     store.PropertyChecker), and a user-supplied predicate on replica
//     reads, if any;
//   - per-final-state (all operations performed, all messages delivered):
//     convergence — every replica returns the same response for every
//     object (Lemma 3 at quiescence).
package explore

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/store"
)

// ErrBudgetExceeded marks an exploration cut short by Config.MaxStates —
// a resource limit, not a property violation; callers distinguish it with
// errors.Is.
var ErrBudgetExceeded = errors.New("state budget exceeded")

// Op is one scripted client operation.
type Op struct {
	Replica model.ReplicaID
	Object  model.ObjectID
	Op      model.Operation
}

// Script is a workload: operations listed per replica in program order.
// After every mutator the replica broadcasts its pending message
// (deterministically), so the schedule choices are exactly "which replica
// performs its next operation" and "which replica consumes which queued
// message next".
type Script struct {
	Replicas int
	Ops      []Op
}

// Config bounds the exploration. What the store claims decides which
// checks apply: its store.Conformance, read by Explore.
type Config struct {
	Store store.Store
	// MaxStates aborts exploration beyond this many distinct states
	// (default 200000).
	MaxStates int
	// Invariant, if set, is evaluated in every reachable state. Its reads
	// hit the live replicas; the explorer discards the state object after
	// expansion, so visible-read stores are safe to inspect.
	Invariant func(v *View) error
	// Parallel is the replay worker count: 1 explores sequentially, 0
	// defaults to GOMAXPROCS. Results and errors are byte-identical for
	// every value; the store must tolerate concurrent NewReplica calls
	// (every in-repo store factory is immutable, so all qualify).
	Parallel int
}

// Result summarizes an exploration.
type Result struct {
	States      int
	FinalStates int
	Transitions int
}

// View exposes a reachable state to invariant predicates.
type View struct {
	replicas []store.Replica
	objects  []model.ObjectID
}

// Read returns replica r's current response to a read of obj.
func (v *View) Read(r model.ReplicaID, obj model.ObjectID) model.Response {
	return v.replicas[r].Do(obj, model.Read())
}

// Replica exposes the underlying replica (do not mutate).
func (v *View) Replica(r model.ReplicaID) store.Replica { return v.replicas[r] }

// action encodes one schedule step: op index o executed, or delivery of
// queue position q at replica r.
type action struct {
	kind    byte // 'o' or 'd'
	replica model.ReplicaID
	index   int // op index for 'o'; queue position for 'd' (always 0 .. len-1)
}

// Explore exhaustively enumerates the schedules of script against cfg.Store.
//
// The reachable state set, the Result counters, and any violation error are
// identical for every Config.Parallel value: workers only replay and
// pre-check candidates; the single-threaded merge decides everything in
// canonical candidate order (parent merge order, then action order).
func Explore(script Script, cfg Config) (*Result, error) {
	if cfg.MaxStates == 0 {
		cfg.MaxStates = 200000
	}
	objs := scriptObjects(script)
	res := &Result{}
	seen := NewVisitedSet(64)

	frontier := []candidate{{}}
	for len(frontier) > 0 {
		evals := evaluateFrontier(frontier, script, cfg, objs, seen)
		var next []candidate
		for i := range frontier {
			ev := &evals[i]
			if ev.replayErr != nil {
				return res, ev.replayErr
			}
			if !seen.Add(ev.sig) {
				// Duplicate: either merged in an earlier level or claimed by
				// an earlier candidate of this level.
				continue
			}
			res.States++
			if res.States > cfg.MaxStates {
				return res, fmt.Errorf("explore: %w (%d states)", ErrBudgetExceeded, cfg.MaxStates)
			}
			if ev.checkErr != nil {
				return res, ev.checkErr
			}
			if len(ev.acts) == 0 {
				res.FinalStates++
				if ev.convErr != nil {
					return res, ev.convErr
				}
				continue
			}
			prefix := frontier[i].prefix
			for _, a := range ev.acts {
				res.Transitions++
				next = append(next, candidate{prefix: append(prefix[:len(prefix):len(prefix)], a)})
			}
		}
		frontier = next
	}
	return res, nil
}

// candidate is one unexplored action prefix of the current frontier level.
type candidate struct {
	prefix []action
}

// evaluation is the worker-phase outcome for one candidate. Every error is
// already wrapped with the candidate's rendered prefix, so the merge phase
// can return it verbatim.
type evaluation struct {
	sig       string
	acts      []action
	replayErr error
	checkErr  error // §4 property or invariant violation
	convErr   error // final-state convergence failure
}

// evaluateFrontier replays and pre-checks every candidate of one frontier
// level on cfg.Parallel of core.ForEachCell's workers, writing results into
// a slice indexed like the frontier so the merge phase is order-deterministic.
func evaluateFrontier(frontier []candidate, script Script, cfg Config, objs []model.ObjectID, seen *VisitedSet) []evaluation {
	evals := make([]evaluation, len(frontier))
	core.ForEachCell(cfg.Parallel, len(frontier), func(i int) error {
		evals[i] = evaluateOne(frontier[i], script, cfg, objs, seen)
		return nil
	})
	return evals
}

// evaluateOne replays one candidate prefix from scratch and runs the
// per-state checks, unless the visited-set already holds the state (merged
// in an earlier level), in which case the merge phase will discard the
// candidate and the checks are skipped.
func evaluateOne(c candidate, script Script, cfg Config, objs []model.ObjectID, seen *VisitedSet) evaluation {
	st, err := replay(cfg.Store, script, c.prefix)
	if err != nil {
		return evaluation{replayErr: err}
	}
	ev := evaluation{sig: st.signature()}
	// Schedule choices are fixed BEFORE any checks run: invariant and
	// convergence checks issue reads, which mutate visible-read stores
	// (K-buffer); this state object is discarded after evaluation, so
	// those mutations are harmless once the action list is taken.
	ev.acts = st.enabled(script)
	if seen.Contains(ev.sig) {
		return ev
	}

	// A store that violates a §4 property by design (GSP's sequencer,
	// K-buffer reads) declares so, and its property checks are skipped.
	claims := store.ConformanceOf(cfg.Store)
	if !claims.ViolatesInvisibleReads && !claims.ViolatesOpDrivenMessages {
		for _, ch := range st.checkers {
			if err := ch.Err(); err != nil {
				ev.checkErr = fmt.Errorf("explore: after %s: %w", renderPrefix(c.prefix), err)
				return ev
			}
		}
	}
	if cfg.Invariant != nil {
		if err := cfg.Invariant(&View{replicas: st.replicas, objects: objs}); err != nil {
			ev.checkErr = fmt.Errorf("explore: invariant violated after %s: %w", renderPrefix(c.prefix), err)
			return ev
		}
	}
	if len(ev.acts) == 0 {
		// The convergence check's reads are the last of the read rounds the
		// store needs to expose withheld state (the K-buffer store exposes
		// withheld messages only as reads elapse).
		for round := 1; round < claims.ConvergenceReadRounds; round++ {
			for r := 0; r < st.n; r++ {
				for _, obj := range objs {
					st.replicas[r].Do(obj, model.Read())
				}
			}
		}
		if err := st.checkConverged(objs); err != nil {
			ev.convErr = fmt.Errorf("explore: final state after %s: %w", renderPrefix(c.prefix), err)
		}
	}
	return ev
}

// liveState is a materialized cluster state.
type liveState struct {
	st       store.Store
	n        int
	replicas []store.Replica
	checkers []*store.PropertyChecker
	queues   [][][]byte // per destination, in arrival order
	nextOp   []int      // per replica: next op position in its program
	programs [][]int    // per replica: indices into script.Ops
}

// replay executes an action prefix from scratch.
func replay(st store.Store, script Script, prefix []action) (*liveState, error) {
	s := &liveState{st: st, n: script.Replicas}
	s.programs = make([][]int, script.Replicas)
	for i, op := range script.Ops {
		r := int(op.Replica)
		if r < 0 || r >= script.Replicas {
			return nil, fmt.Errorf("explore: op %d at out-of-range replica %d", i, r)
		}
		s.programs[r] = append(s.programs[r], i)
	}
	s.nextOp = make([]int, script.Replicas)
	s.queues = make([][][]byte, script.Replicas)
	for i := 0; i < script.Replicas; i++ {
		r := st.NewReplica(model.ReplicaID(i), script.Replicas)
		s.replicas = append(s.replicas, r)
		s.checkers = append(s.checkers, store.NewPropertyChecker(r))
	}
	for _, a := range prefix {
		if err := s.apply(script, a); err != nil {
			return nil, err
		}
	}
	return s, nil
}

func (s *liveState) apply(script Script, a action) error {
	switch a.kind {
	case 'o':
		r := int(a.replica)
		opIdx := s.programs[r][s.nextOp[r]]
		op := script.Ops[opIdx]
		s.nextOp[r]++
		s.checkers[r].CheckDo(op.Object, op.Op)
		// Deterministic broadcast after the operation, if pending. Sends go
		// to every other replica's queue; the GSP sequencer may also have
		// commits pending after deliveries, which broadcast on its next
		// turn.
		s.broadcast(model.ReplicaID(r))
	case 'd':
		to := int(a.replica)
		if a.index >= len(s.queues[to]) {
			return fmt.Errorf("explore: delivery index %d out of range", a.index)
		}
		payload := s.queues[to][a.index]
		s.queues[to] = append(s.queues[to][:a.index:a.index], s.queues[to][a.index+1:]...)
		s.checkers[to].CheckReceive(payload)
		// Receives may create pending messages in non-op-driven stores
		// (GSP); relay them so exploration terminates in drained states.
		s.broadcast(model.ReplicaID(to))
	default:
		return fmt.Errorf("explore: unknown action kind %q", a.kind)
	}
	return nil
}

func (s *liveState) broadcast(from model.ReplicaID) {
	for {
		payload := s.replicas[from].PendingMessage()
		if payload == nil {
			return
		}
		// The payload is lent until OnSend: every queue's copy is taken first.
		for to := 0; to < s.n; to++ {
			if model.ReplicaID(to) != from {
				s.queues[to] = append(s.queues[to], slices.Clone(payload))
			}
		}
		s.checkers[from].OnSend()
	}
}

// enabled lists the schedule choices in this state: each replica's next
// program operation, and each distinct queued message per destination.
func (s *liveState) enabled(script Script) []action {
	var out []action
	for r := 0; r < s.n; r++ {
		if s.nextOp[r] < len(s.programs[r]) {
			out = append(out, action{kind: 'o', replica: model.ReplicaID(r)})
		}
		// Delivering any queue position is allowed (the network reorders);
		// identical payloads at different positions lead to identical
		// states, so deduplicate by content.
		seen := make(map[string]bool, len(s.queues[r]))
		for q := range s.queues[r] {
			key := string(s.queues[r][q])
			if seen[key] {
				continue
			}
			seen[key] = true
			out = append(out, action{kind: 'd', replica: model.ReplicaID(r), index: q})
		}
	}
	return out
}

// signature canonically renders the state for deduplication.
func (s *liveState) signature() string {
	var b strings.Builder
	for r := 0; r < s.n; r++ {
		fmt.Fprintf(&b, "r%d@%d\n%s\n", r, s.nextOp[r], s.replicas[r].StateDigest())
		queued := make([]string, len(s.queues[r]))
		for i, p := range s.queues[r] {
			queued[i] = string(p)
		}
		// Queue order is not observable to the scheduler's future choices
		// beyond content (any position may be delivered), so sort for a
		// canonical form.
		sort.Strings(queued)
		for _, q := range queued {
			fmt.Fprintf(&b, "q:%q\n", q)
		}
	}
	return b.String()
}

// checkConverged verifies all replicas answer reads identically.
func (s *liveState) checkConverged(objs []model.ObjectID) error {
	for _, obj := range objs {
		base := s.replicas[0].Do(obj, model.Read())
		for r := 1; r < s.n; r++ {
			got := s.replicas[r].Do(obj, model.Read())
			if !got.Equal(base) {
				return fmt.Errorf("diverged on %s: r0=%s r%d=%s", obj, base, r, got)
			}
		}
	}
	return nil
}

func scriptObjects(script Script) []model.ObjectID {
	seen := make(map[model.ObjectID]bool)
	var out []model.ObjectID
	for _, op := range script.Ops {
		if !seen[op.Object] {
			seen[op.Object] = true
			out = append(out, op.Object)
		}
	}
	return out
}

func renderPrefix(prefix []action) string {
	parts := make([]string, len(prefix))
	for i, a := range prefix {
		if a.kind == 'o' {
			parts[i] = fmt.Sprintf("op@r%d", a.replica)
		} else {
			parts[i] = fmt.Sprintf("dlv@r%d[%d]", a.replica, a.index)
		}
	}
	return "[" + strings.Join(parts, " ") + "]"
}
