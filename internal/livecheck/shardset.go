package livecheck

// ShardSet runs one Checker per shard of a sharded node or cluster and sums
// their verdicts. A key lives on exactly one shard, and every shard has its
// own (origin, seq) broadcast domain and Lamport clock, so each shard's
// stream is checked on its own with no shared state. What that settles is
// per shard: a property of single objects holds of the whole stream iff it
// holds of every shard's. The causal checks are not of that kind —
// happens-before chains through a node's session order across objects, so
// across shards — and a clean ShardSet does not establish causal
// consistency across shards, as the offline per-shard audit does not.
//
// Observe's signature matches cluster.Config.Tap, so a ShardSet drops in
// where a single Checker's Observe did: `cfg.Tap = set.Observe`.
type ShardSet struct {
	checkers []*Checker
}

// NewShardSet creates shards independent checkers for a cluster of n nodes,
// each configured with opts. shards < 1 is treated as 1.
func NewShardSet(n, shards int, opts Options) *ShardSet {
	if shards < 1 {
		shards = 1
	}
	s := &ShardSet{checkers: make([]*Checker, shards)}
	for i := range s.checkers {
		s.checkers[i] = New(n, opts)
	}
	return s
}

// Shards returns how many per-shard checkers the set holds.
func (s *ShardSet) Shards() int { return len(s.checkers) }

// Shard returns shard i's checker (for per-shard verdicts and tests).
func (s *ShardSet) Shard(i int) *Checker { return s.checkers[i] }

// Observe feeds one tapped event to its shard's checker. Events for a shard
// the set does not know are dropped rather than mis-attributed — that only
// happens on a shard-count misconfiguration, which the cluster layer
// already refuses at the hello exchange.
func (s *ShardSet) Observe(shard int, ev Event) {
	if shard < 0 || shard >= len(s.checkers) {
		return
	}
	s.checkers[shard].Observe(ev)
}

// Verdict composes the per-shard verdicts into one: counters and state
// accounting sum, the kept violations concatenate in shard order, and the
// set is clean iff every shard is. PeakTracked sums the per-shard peaks,
// which upper-bounds the true simultaneous peak.
func (s *ShardSet) Verdict() Verdict {
	var out Verdict
	out.Clean = true
	for _, c := range s.checkers {
		v := c.Verdict()
		out.Events += v.Events
		out.Dos += v.Dos
		out.Sends += v.Sends
		out.Receives += v.Receives
		out.Violations += v.Violations
		out.First = append(out.First, v.First...)
		out.TrackedDots += v.TrackedDots
		out.PeakTracked += v.PeakTracked
		out.PendingDots += v.PendingDots
		out.UndeliveredDots += v.UndeliveredDots
		out.RvalSkipped += v.RvalSkipped
		out.Clean = out.Clean && v.Clean
	}
	return out
}

// Err returns the first violation across shards (lowest shard index wins),
// or nil when every shard is clean.
func (s *ShardSet) Err() error {
	for _, c := range s.checkers {
		if err := c.Err(); err != nil {
			return err
		}
	}
	return nil
}
