package storetest

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/model"
	"repro/internal/store"
)

// runShardedCluster is the conformance battery's sharded-cluster leg: every
// registered store that claims convergence must also converge when its
// replicas run inside sharded nodes — each shard an independent replica of
// the store with its own broadcast domain — and each shard's merged
// histories must stand as a well-formed execution on their own, and pass the
// store's causal check where it claims one. No object spans shards, so this
// exercises, shard by shard, the guarantees the store honors per object; it
// does not establish causal consistency across a node's shards, whose
// happens-before runs through session order across objects.
func runShardedCluster(t *testing.T, factory func() store.Store) {
	t.Run("ShardedCluster", func(t *testing.T) {
		const n = 2
		const shards = 2
		st := factory()
		nodes, err := cluster.BootMesh(n, func(int) cluster.Config {
			return cluster.Config{
				Store:  st,
				Listen: "127.0.0.1:0",
				Shards: shards,
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			for _, nd := range nodes {
				nd.Close()
			}
		})

		// Pick objects covering both shards (two per shard), then drive the
		// store's own mutator ops at them from both nodes.
		router := cluster.NewShardRouter(shards)
		perShard := make(map[int][]model.ObjectID)
		for i := 0; len(perShard[0]) < 2 || len(perShard[1]) < 2; i++ {
			if i > 1000 {
				t.Fatal("could not cover both shards")
			}
			obj := model.ObjectID(fmt.Sprintf("sh%03d", i))
			if s := router.Route(obj); len(perShard[s]) < 2 {
				perShard[s] = append(perShard[s], obj)
			}
		}
		objs := append(append([]model.ObjectID{}, perShard[0]...), perShard[1]...)
		for i := 0; i < 24; i++ {
			obj := objs[i%len(objs)]
			_, op := mutate(i)
			if _, err := nodes[i%n].Do(obj, op); err != nil {
				t.Fatalf("op %d on %q: %v", i, obj, err)
			}
		}
		// Settle surfaces withheld state first (the K-buffer store needs K
		// rounds of reads), as the sim convergence subtest does.
		if err := cluster.Settle(cluster.QuiesceNodes(nodes, 15*time.Second), st, cluster.Doers(nodes), objs); err != nil {
			t.Fatalf("sharded cluster did not settle: %v", err)
		}

		// Each shard's histories must merge into a well-formed execution by
		// themselves — causally consistent where the store claims it, as the
		// reference judges them — and hold only objects that route there.
		Audit(t, shards, cluster.HistoriesOf(nodes), st.Types())
	})
}
