// Package chaossearch searches the fault.Schedule seed space adversarially:
// instead of sampling schedules uniformly (the storetest chaos battery), it
// hill-climbs toward the schedules that stress a store the most under a
// pluggable objective — longest convergence stall, heaviest
// retransmit/reconnect pressure, most redelivered frames, or closest
// approach to a checker violation.
//
// The motivation is the adversary of the paper's own proofs: Theorem 6's
// recursion hand-crafts the delivery schedule that forces OCC-maximal
// behaviour, and verification work on causal consistency (Bouajjani et al.)
// finds that the interesting executions are adversarially chosen, not
// random. The search keeps every candidate inside the model's obligations —
// every evaluated schedule must pass fault.Schedule.CheckBalanced, so
// eventual delivery (Definition 3) survives the adversary and quiescence
// (Definition 17) remains reachable; the adversary maximizes the COST of
// convergence, never prevents it.
//
// Mechanically the search reuses the level-synchronized parallel frontier of
// internal/explore: each level's candidate seeds are evaluated by a worker
// pool into index-addressed slots (dedup through explore.VisitedSet, seeds
// derived with gen.SplitSeed), and a single-threaded merge ranks them in
// canonical order — so results are byte-identical for any worker count.
// Level 0 is uniform sampling; each later level expands the global
// top-beamWidth survivors into branchFactor children each (elitist beam),
// topping the frontier up with fresh uniform seeds so the full budget is
// always spent and the search can never do worse than the sampling it
// replaces. Evaluation runs on the fast path (sim.RunScheduled with a
// metrics Observer attached); Validate optionally re-runs a found schedule
// on the real TCP cluster.
package chaossearch

import (
	"cmp"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/supervisor"
)

// Objective names what the search maximizes.
type Objective string

const (
	// ObjConvergence maximizes convergence latency: the deliveries and
	// rounds quiescence still required after the schedule ended (Lemma 3's
	// cost, in logical work).
	ObjConvergence Objective = "convergence"
	// ObjRetransmits maximizes retransmission pressure: deliveries blocked
	// by cuts/stalls/crashes on the fast path, plus actual retransmits and
	// reconnects when validated on the TCP cluster.
	ObjRetransmits Objective = "retransmits"
	// ObjRedelivery maximizes redelivered traffic: duplicated broadcast
	// copies and dup/gap frames receivers had to dedup or wait out.
	ObjRedelivery Objective = "redelivery"
	// ObjViolations maximizes checker-violation proximity: found §4
	// violations dominate, stress proxies break ties among clean runs.
	ObjViolations Objective = "violations"
	// ObjChurn maximizes membership-churn cost: the anti-entropy catch-up
	// work joins force (weighted heaviest), the churn directives applied,
	// and the residual quiesce work — the schedules where leaving and
	// rejoining at the worst moments hurts the most.
	ObjChurn Objective = "churn"
)

// Objectives lists every registered objective, in canonical order.
func Objectives() []Objective {
	return []Objective{ObjConvergence, ObjRetransmits, ObjRedelivery, ObjViolations, ObjChurn}
}

// ParseObjective resolves an -objective flag value.
func ParseObjective(s string) (Objective, error) {
	for _, o := range Objectives() {
		if s == string(o) {
			return o, nil
		}
	}
	return "", fmt.Errorf("chaossearch: unknown objective %q (have %v)", s, Objectives())
}

// Score collapses one metrics record to the objective's scalar. Scores are
// derived from deterministic counters only, so a candidate's score is a
// pure function of (store, seed, schedule config).
func Score(obj Objective, m fault.Metrics) int64 {
	switch obj {
	case ObjConvergence:
		return m.QuiesceDeliveries*8 + m.QuiesceRounds
	case ObjRetransmits:
		return m.Blocked + m.Retransmits + m.Reconnects
	case ObjRedelivery:
		return m.DupCopies + m.DupFrames + m.GapFrames
	case ObjViolations:
		return m.Violations*1_000_000 + m.Blocked + m.QuiesceDeliveries
	case ObjChurn:
		return m.SyncUpdates*4 + m.Leaves + m.Joins + m.QuiesceDeliveries
	}
	return 0
}

// Config parameterizes one search.
type Config struct {
	// Store is the store under attack.
	Store store.Store
	// Seed is the root seed; every candidate schedule seed, uniform
	// baseline seed, and workload stream is split from it.
	Seed int64
	// Steps is every candidate schedule's timeline (default 150).
	Steps int
	// Objective selects the score (default ObjConvergence).
	Objective Objective
	// Budget is the total number of schedule evaluations (default 64).
	Budget int
	// Parallel is the evaluation worker count (default 1). The result is
	// identical for every value.
	Parallel int
}

// The shape of every candidate schedule (fault.Config) — the canonical
// chaos-battery values; crash and churn victims are disjoint, so
// crashes+churns is capped at nodes — and of the frontier: each level
// expands the top beamWidth survivors into branchFactor children each.
const (
	nodes        = 3
	partitions   = 2
	crashes      = 2
	linkFaults   = 3
	churns       = 2
	beamWidth    = 4
	branchFactor = 8
)

func (cfg Config) withDefaults() Config {
	def := func(v *int, d int) {
		if *v == 0 {
			*v = d
		}
	}
	def(&cfg.Steps, 150)
	def(&cfg.Budget, 64)
	def(&cfg.Parallel, 1)
	if cfg.Objective == "" {
		cfg.Objective = ObjConvergence
	}
	return cfg
}

// Sample is one evaluated candidate: a schedule seed, its metrics record,
// and the objective score.
type Sample struct {
	Seed    int64         `json:"seed"`
	Score   int64         `json:"score"`
	Ops     int           `json:"ops"`
	Metrics fault.Metrics `json:"metrics"`
}

// Result is a completed search.
type Result struct {
	Objective Objective
	// Best is the highest-scoring evaluated candidate.
	Best Sample
	// Samples holds every evaluation, ranked score-descending (seed
	// ascending on ties) — the canonical order the merge phase maintains.
	Samples []Sample
	// Levels and Evals count frontier levels and evaluations performed.
	Levels int
	Evals  int
}

// Seed streams, decorrelated from each other and from every other stream
// constant in the repository (scheduleStream -7001, workers 0..k).
const (
	uniformStream  = -8101 // level-0 and refill uniform candidates
	baselineStream = -8102 // Baseline's control samples
	workloadStream = -8103 // per-candidate sim workload stream
)

// searchObjects is the object pool every evaluation workload operates on.
var searchObjects = []model.ObjectID{"x", "y", "z"}

// Schedule returns the fault schedule a candidate seed denotes under cfg.
func (cfg Config) Schedule(seed int64) fault.Schedule {
	cfg = cfg.withDefaults()
	return fault.Generate(fault.Config{
		Seed: seed, N: nodes, Steps: cfg.Steps,
		Partitions: partitions, Crashes: crashes, LinkFaults: linkFaults, Churns: churns,
	})
}

// evaluate scores one candidate seed on the fast path: generate its
// schedule, run the scheduled workload in the simulator with an Observer
// attached, quiesce (instrumented — the quiesce work IS the convergence
// latency), surface aged reads for a store that declares more than one
// convergence read round, and collect the record.
// A pure function of (cfg, seed): no wall clock, no shared state.
func (cfg Config) evaluate(seed int64) (Sample, error) {
	sched := cfg.Schedule(seed)
	if err := sched.CheckBalanced(); err != nil {
		return Sample{}, fmt.Errorf("chaossearch: seed %d generated an unbalanced schedule: %w", seed, err)
	}
	obs := fault.NewObserver(nodes)
	cl := sim.NewCluster(cfg.Store, nodes, gen.SplitSeed(seed, workloadStream))
	cl.SetObserver(obs)
	ops := cl.RunScheduled(sched, sim.WorkloadConfig{Objects: searchObjects, Steps: cfg.Steps})
	cl.Quiesce()
	for round := 1; round < store.ConformanceOf(cfg.Store).ConvergenceReadRounds; round++ {
		for _, obj := range searchObjects {
			cl.ReadAll(obj)
		}
		cl.Quiesce()
	}
	if err := cl.CheckConverged(searchObjects); err != nil {
		// Scheduled runs are never lossy, so divergence here is a real
		// finding — surface it instead of scoring it.
		return Sample{}, fmt.Errorf("chaossearch: seed %d: %w", seed, err)
	}
	obs.SetViolations(int64(len(cl.PropertyViolations())))
	m := obs.Metrics()
	return Sample{Seed: seed, Score: Score(cfg.Objective, m), Ops: ops, Metrics: m}, nil
}

// evalAll evaluates a frontier of seeds into index-addressed slots on
// core.ForEachCell: workers race only for slot indices, results land at
// their canonical position, the first error is the lowest-indexed one, and
// the caller's single-threaded merge does everything order-sensitive.
// Identical output for any worker count.
func (cfg Config) evalAll(seeds []int64) ([]Sample, error) {
	out := make([]Sample, len(seeds))
	err := core.ForEachCell(cfg.Parallel, len(seeds), func(i int) error {
		var err error
		out[i], err = cfg.evaluate(seeds[i])
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// rank sorts samples score-descending, seed-ascending on ties: the total
// order every parallelism level reproduces.
func rank(samples []Sample) {
	sort.Slice(samples, func(i, j int) bool {
		if samples[i].Score != samples[j].Score {
			return samples[i].Score > samples[j].Score
		}
		return samples[i].Seed < samples[j].Seed
	})
}

// Search runs the beam search and returns the ranked evaluations.
func Search(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if cfg.Store == nil {
		return nil, errors.New("chaossearch: Config.Store is required")
	}
	seen := explore.NewVisitedSet(64)
	key := func(s int64) string { return strconv.FormatInt(s, 10) }
	uniformRoot := gen.SplitSeed(cfg.Seed, uniformStream)
	nextUniform := 0

	res := &Result{Objective: cfg.Objective}
	var all []Sample
	for res.Evals < cfg.Budget {
		want := beamWidth * branchFactor
		if want > cfg.Budget-res.Evals {
			want = cfg.Budget - res.Evals
		}
		var frontier []int64
		// Children of the global top-beamWidth survivors (elitist beam).
		// Level 0 has no survivors yet, so it is pure uniform sampling.
		for b := 0; b < beamWidth && b < len(all) && len(frontier) < want; b++ {
			for j := 0; j < branchFactor && len(frontier) < want; j++ {
				child := gen.SplitSeed(all[b].Seed, j+1)
				if seen.Add(key(child)) {
					frontier = append(frontier, child)
				}
			}
		}
		// Top up with fresh uniform candidates: the budget is always fully
		// spent, and the search's best can never fall below what uniform
		// sampling of the same budget would have found.
		for len(frontier) < want {
			u := gen.SplitSeed(uniformRoot, nextUniform)
			nextUniform++
			if seen.Add(key(u)) {
				frontier = append(frontier, u)
			}
		}
		samples, err := cfg.evalAll(frontier)
		if err != nil {
			return nil, err
		}
		all = append(all, samples...)
		rank(all)
		res.Evals += len(samples)
		res.Levels++
	}
	res.Samples = all
	res.Best = all[0]
	return res, nil
}

// Baseline evaluates cfg.Budget uniformly sampled schedule seeds from a
// stream decorrelated from the search's own, in draw order: the control
// the search must beat (its best should exceed the baseline's median —
// see MedianScore).
func Baseline(cfg Config) ([]Sample, error) {
	cfg = cfg.withDefaults()
	if cfg.Store == nil {
		return nil, errors.New("chaossearch: Config.Store is required")
	}
	root := gen.SplitSeed(cfg.Seed, baselineStream)
	seeds := make([]int64, cfg.Budget)
	for i := range seeds {
		seeds[i] = gen.SplitSeed(root, i)
	}
	return cfg.evalAll(seeds)
}

// MedianScore returns the nearest-rank (lower) median of the samples'
// scores, and the maximum.
func MedianScore(samples []Sample) (median, max int64) {
	if len(samples) == 0 {
		return 0, 0
	}
	scores := make([]int64, len(samples))
	for i, s := range samples {
		scores[i] = s.Score
	}
	sort.Slice(scores, func(i, j int) bool { return scores[i] < scores[j] })
	return scores[(len(scores)-1)/2], scores[len(scores)-1]
}

// Validate re-runs one found schedule on the real TCP cluster: a
// supervised loopback cluster under the same directives, client load
// riding along, transport metrics read from the nodes' own counters
// (Supervisor.Metrics). Wall-clock scheduling makes these counts
// nondeterministic — they corroborate the simulator's ranking (a schedule
// that blocks deliveries on the fast path forces retransmits and reconnects
// here), they do not reproduce it byte for byte. The run ends in Settle,
// AuditShards and PropertyErr; the first failed verdict is the error.
func Validate(cfg Config, seed int64, tick time.Duration) (fault.Metrics, error) {
	cfg = cfg.withDefaults()
	if cfg.Store == nil {
		return fault.Metrics{}, errors.New("chaossearch: Config.Store is required")
	}
	sched := cfg.Schedule(seed)
	em := fault.NewNetem(nodes)
	base := cluster.Config{Store: cfg.Store, Seed: cfg.Seed}
	sup, err := supervisor.New(base, nodes, em, tick)
	if err != nil {
		return fault.Metrics{}, err
	}
	defer sup.Close()

	done := make(chan error, 1)
	go func() { done <- sup.RunSchedule(sched) }()
	i := 0
load:
	for {
		select {
		case err := <-done:
			if err != nil {
				return fault.Metrics{}, err
			}
			break load
		default:
		}
		obj := searchObjects[i%len(searchObjects)]
		val := model.Value(fmt.Sprintf("w%d", i))
		_, err := sup.Do(i%nodes, obj, model.Write(val))
		if err != nil && !errors.Is(err, supervisor.ErrNodeDown) && !errors.Is(err, cluster.ErrClosed) {
			return fault.Metrics{}, err
		}
		i++
		time.Sleep(tick)
	}
	if err := sup.Settle(30*time.Second, searchObjects); err != nil {
		return fault.Metrics{}, fmt.Errorf("chaossearch: %w", err)
	}
	m := sup.Metrics()
	audits, err := cluster.AuditShards(1, sup.Histories, cfg.Store.Types())
	if err == nil {
		err = cmp.Or(audits[0].Err(), cluster.PropertyErr(cfg.Store, int(m.Violations)))
	}
	if err != nil {
		return fault.Metrics{}, fmt.Errorf("chaossearch: %w", err)
	}
	return m, nil
}
