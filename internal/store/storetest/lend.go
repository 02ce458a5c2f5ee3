package storetest

import (
	"bytes"
	"slices"
	"strings"
	"sync"
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
// delivered, does not decode, and the replicas part ways. It holds them to
// Receive's and Do's contracts too: every payload, object and argument its
// replicas are given is recorded beside a private copy, and checkGiven finds
// any that changed since.
type lendingStore struct {
	store.Store
	given *givenPayloads
}

func newLendingStore(st store.Store) *lendingStore {
	return &lendingStore{Store: st, given: &givenPayloads{}}
}

// Conformance forwards the wrapped store's claims, which embedding an
// interface does not promote.
func (s *lendingStore) Conformance() store.Conformance { return store.ConformanceOf(s.Store) }

func (s *lendingStore) NewReplica(id model.ReplicaID, n int) store.Replica {
	inner := s.Store.NewReplica(id, n)
	r := &lendingReplica{Replica: inner, given: s.given}
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
	lent  []byte
	given *givenPayloads
}

// givenPayloads records every payload handed to Receive, and every object
// and argument handed to Do, as given and as a private copy. A node's
// replicas run on several goroutines at once.
type givenPayloads struct {
	mu            sync.Mutex
	given, copies [][]byte
	strs, strCopy []string
}

func (g *givenPayloads) add(p []byte) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.given = append(g.given, p)
	g.copies = append(g.copies, slices.Clone(p))
}

func (g *givenPayloads) addStrings(ss ...string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, s := range ss {
		g.strs = append(g.strs, s)
		g.strCopy = append(g.strCopy, strings.Clone(s))
	}
}

// checkGiven fails t if any payload, object or argument a replica of s was
// given has changed since: each is the replica's to keep, and the store may
// hold views of it, so whoever hands one over must never write it again — a
// string least of all, which Go promises never changes.
func (s *lendingStore) checkGiven(t *testing.T) {
	t.Helper()
	g := s.given
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.given) == 0 {
		t.Error("no replica received a payload: nothing was checked")
	}
	changed := 0
	for i, p := range g.given {
		if !bytes.Equal(p, g.copies[i]) {
			if changed == 0 {
				t.Errorf("received payload %d of %d changed after Receive: %x, given as %x", i, len(g.given), p, g.copies[i])
			}
			changed++
		}
	}
	if changed > 0 {
		t.Errorf("%d of %d received payloads changed after Receive", changed, len(g.given))
	}
	changed = 0
	for i, s := range g.strs {
		if s != g.strCopy[i] {
			if changed == 0 {
				t.Errorf("object or argument %d of %d changed after Do: %q, given as %q", i, len(g.strs), s, g.strCopy[i])
			}
			changed++
		}
	}
	if changed > 0 {
		t.Errorf("%d of %d objects and arguments changed after Do", changed, len(g.strs))
	}
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
	r.given.addStrings(string(obj), string(op.Arg))
	return r.Replica.Do(obj, op)
}

func (r *lendingReplica) Receive(payload []byte) {
	r.takeBack()
	r.given.add(payload)
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
// copies a pending message it keeps before the replica moves on. Each leg
// ends by checking that no engine wrote to a payload it gave a replica.
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
			ls := newLendingStore(factory())
			plain, lent := run(factory()), run(ls)
			for r := 0; r < plain.N(); r++ {
				id := model.ReplicaID(r)
				if got, want := lent.Replica(id).StateDigest(), plain.Replica(id).StateDigest(); got != want {
					t.Fatalf("r%d behind lent messages ends in\n%s\nwant\n%s", r, got, want)
				}
			}
			if err := lent.CheckConverged(objs); err != nil {
				t.Fatal(err)
			}
			ls.checkGiven(t)
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
			ls := newLendingStore(factory())
			got, err := run(ls)
			if err != nil {
				t.Fatalf("behind lent messages: %v", err)
			}
			if *got != *want {
				t.Fatalf("behind lent messages the exploration is %+v, want %+v", *got, *want)
			}
			ls.checkGiven(t)
		})
		t.Run("Cluster", func(t *testing.T) {
			st := factory()
			ls := newLendingStore(st)
			nodes, err := cluster.BootMesh(3, func(int) cluster.Config {
				return cluster.Config{
					Store:  ls,
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
			// Every operation is a client's, over TCP: a node reads each
			// request into the storage its connection's last one used, where
			// an object or argument kept by reference is written over.
			clients := make([]*cluster.Client, len(nodes))
			for i, nd := range nodes {
				if clients[i], err = cluster.Dial(nd.Addr(), 10*time.Second); err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { clients[i].Close() })
			}
			// In rounds, each waited out: every link then carries several
			// frames, and a receiver reads each into the storage its last one
			// used, where a payload kept by reference is written over.
			quiesce := cluster.QuiesceNodes(nodes, 15*time.Second)
			for i := 0; i < 24; i++ {
				if i > 0 && i%6 == 0 {
					if err := quiesce(); err != nil {
						t.Fatalf("before op %d: %v", i, err)
					}
				}
				_, op := mutate(i)
				if _, err := clients[i%len(clients)].Do(objs[i%len(objs)], op); err != nil {
					t.Fatalf("op %d: %v", i, err)
				}
			}
			settled := cluster.Settle(quiesce, st, cluster.Doers(clients), objs)
			ls.checkGiven(t)
			if settled != nil {
				t.Fatalf("behind lent messages: %v", settled)
			}
			Audit(t, 1, cluster.HistoriesOf(nodes), st.Types())
		})
	})
}
