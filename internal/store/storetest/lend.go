package storetest

import (
	"slices"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/explore"
	"repro/internal/fault"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/store"
)

// lendingStore wraps a store so that its replicas hold callers to the
// PendingMessage contract at its strictest: the message handed out is a
// copy the wrapper owns, and the replica's next Do, Receive, OnSend or
// PendingMessage overwrites it. A caller that keeps a pending message
// without copying it keeps garbage, and the run shows it: the garbage is
// delivered, does not decode, and the replicas part ways.
type lendingStore struct{ store.Store }

// Conformance forwards the wrapped store's claims, which embedding an
// interface does not promote.
func (s lendingStore) Conformance() store.Conformance { return store.ConformanceOf(s.Store) }

func (s lendingStore) NewReplica(id model.ReplicaID, n int) store.Replica {
	inner := s.Store.NewReplica(id, n)
	r := &lendingReplica{Replica: inner}
	vis, okVis := inner.(store.VisReporter)
	dots, okDots := inner.(store.DotReporter)
	if okVis && okDots {
		// The engines probe for both traits; a wrapper claims them only
		// when the store has them.
		return &lendingReporter{r, vis, dots}
	}
	return r
}

type lendingReplica struct {
	store.Replica
	lent []byte
}

type lendingReporter struct {
	*lendingReplica
	store.VisReporter
	store.DotReporter
}

// takeBack overwrites the message last lent out: the caller's time to copy
// it is over.
func (r *lendingReplica) takeBack() {
	for i := range r.lent {
		r.lent[i] = 0xff
	}
	r.lent = nil
}

func (r *lendingReplica) Do(obj model.ObjectID, op model.Operation) model.Response {
	r.takeBack()
	return r.Replica.Do(obj, op)
}

func (r *lendingReplica) Receive(payload []byte) {
	r.takeBack()
	r.Replica.Receive(payload)
}

func (r *lendingReplica) OnSend() {
	r.takeBack()
	r.Replica.OnSend()
}

func (r *lendingReplica) PendingMessage() []byte {
	r.takeBack()
	r.lent = slices.Clone(r.Replica.PendingMessage())
	return r.lent
}

// runLentMessages drives the store through each engine twice — as it is,
// and behind lendingStore — and requires the same outcome: every engine
// copies a pending message it keeps before the replica moves on.
func runLentMessages(t *testing.T, factory func() store.Store) {
	objs := []model.ObjectID{"obj0", "obj1", "obj2"}
	t.Run("LentMessages", func(t *testing.T) {
		t.Run("Simulator", func(t *testing.T) {
			run := func(st store.Store) *sim.Cluster {
				c := sim.NewCluster(st, 3, 5)
				sched := fault.Generate(fault.Config{Seed: 5, N: 3, Steps: 120, Partitions: 1, Crashes: 1, LinkFaults: 2})
				c.RunScheduled(sched, sim.WorkloadConfig{Objects: objs, Steps: 120})
				c.Quiesce()
				surface(c, objs)
				return c
			}
			plain, lent := run(factory()), run(lendingStore{factory()})
			for r := 0; r < plain.N(); r++ {
				id := model.ReplicaID(r)
				if got, want := lent.Replica(id).StateDigest(), plain.Replica(id).StateDigest(); got != want {
					t.Fatalf("r%d behind lent messages ends in\n%s\nwant\n%s", r, got, want)
				}
			}
			if err := lent.CheckConverged(objs); err != nil {
				t.Fatal(err)
			}
		})
		t.Run("Explorer", func(t *testing.T) {
			script := explore.Script{Replicas: 3, Ops: []explore.Op{
				{Replica: 0, Object: "obj0", Op: model.Write("a")},
				{Replica: 1, Object: "obj0", Op: model.Write("b")},
				{Replica: 2, Object: "obj0", Op: model.Write("c")},
			}}
			run := func(st store.Store) (*explore.Result, error) {
				return explore.Explore(script, explore.Config{Store: st, Parallel: 1})
			}
			want, err := run(factory())
			if err != nil {
				t.Fatal(err)
			}
			got, err := run(lendingStore{factory()})
			if err != nil {
				t.Fatalf("behind lent messages: %v", err)
			}
			if *got != *want {
				t.Fatalf("behind lent messages the exploration is %+v, want %+v", *got, *want)
			}
		})
		t.Run("Cluster", func(t *testing.T) {
			st := factory()
			nodes, err := cluster.BootMesh(3, func(int) cluster.Config {
				return cluster.Config{
					Store:  lendingStore{st},
					Listen: "127.0.0.1:0",
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
			for i := 0; i < 24; i++ {
				_, op := mutate(i)
				if _, err := nodes[i%len(nodes)].Do(objs[i%len(objs)], op); err != nil {
					t.Fatalf("op %d: %v", i, err)
				}
			}
			if err := cluster.Settle(cluster.QuiesceNodes(nodes, 15*time.Second), st, cluster.Doers(nodes), objs); err != nil {
				t.Fatalf("behind lent messages: %v", err)
			}
			Audit(t, 1, cluster.HistoriesOf(nodes), st.Types())
		})
	})
}
