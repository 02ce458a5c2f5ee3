package main

import (
	"fmt"
	"io"
	"math"
	"math/rand"

	"repro/internal/bench"
	"repro/internal/cli"
	"repro/internal/cluster"
	"repro/internal/model"
)

// shardDraws routes a seeded stream of ops draws over the keyspace and
// returns the per-shard op counts. Pure function of (keys, ops, shards,
// zipf, seed): the tracked table is byte-identical across runs.
func shardDraws(keys, ops, shards int, zipf bool, seed int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	var z *rand.Zipf
	if zipf {
		// s=1.1, v=1 — a mildly skewed web-like popularity curve; the hot
		// key takes a few percent of all draws at a million keys.
		z = rand.NewZipf(rng, 1.1, 1, uint64(keys-1))
	}
	router := cluster.NewShardRouter(shards)
	counts := make([]int64, shards)
	for i := 0; i < ops; i++ {
		var k uint64
		if z != nil {
			k = z.Uint64()
		} else {
			k = uint64(rng.Intn(keys))
		}
		counts[router.Route(shardKey(k))]++
	}
	return counts
}

// shardKey names key k the way the -keys workload does, so the bench routes
// exactly the objects a real run would.
func shardKey(k uint64) model.ObjectID {
	return model.ObjectID(fmt.Sprintf("k%06d", k))
}

// runShardbench emits the deterministic shard-balance table, the rows
// behind the tracked BENCH_SHARD.json — for each shard count up to -shards,
// the per-shard op spread under uniform and zipfian key popularity, and the
// resulting parallel speedup bound ops/max(shard ops): the factor by which
// per-shard event loops can beat a single loop if routing is the only limit.
// How much of that bound a real cluster realizes is wall-clock, and
// benchmark/'s to measure.
func runShardbench(w io.Writer, cfg benchArgs) error {
	if cfg.keys == 0 {
		cfg.keys = 1000000
	}
	if cfg.keys < 2 || cfg.ops < 1 || cfg.shards < 1 {
		return fmt.Errorf("shardbench needs at least two keys, one op, and one shard")
	}
	t := bench.NewTable(
		fmt.Sprintf("loadgen shardbench: %d keys, %d ops, seed %d", cfg.keys, cfg.ops, cfg.seed),
		"dist", "shards", "min ops", "max ops", "max/min", "speedup bound")
	round := func(x float64) float64 { return math.Round(x*100) / 100 }
	for _, dist := range []string{"uniform", "zipf"} {
		for sh := 1; sh <= cfg.shards; sh *= 2 {
			counts := shardDraws(cfg.keys, cfg.ops, sh, dist == "zipf", cfg.seed)
			min, max := counts[0], counts[0]
			for _, c := range counts[1:] {
				if c < min {
					min = c
				}
				if c > max {
					max = c
				}
			}
			ratio := interface{}("-")
			if min > 0 {
				ratio = round(float64(max) / float64(min))
			}
			t.AddRow(dist, sh, min, max, ratio, round(float64(cfg.ops)/float64(max)))
		}
	}
	return cli.Output(w, cfg.jsonOut).Emit(t)
}
