package durable

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/model"
	"repro/internal/spec"
	"repro/internal/store"
)

// loggedStorage is a Storage that keeps the logs it opens, so a test can
// read their counters, and can crash them: from crash on, no commit reaches
// the disk — each fails, as the process a kill -9 stopped writes nothing
// more — and the node's Close writes nothing either, since a log's Close
// drops what is staged.
type loggedStorage struct {
	*Storage
	crashed atomic.Bool

	mu   sync.Mutex
	logs []*Log
}

var errCrashed = errors.New("crashed")

// crashable is one of a loggedStorage's logs.
type crashable struct {
	*Log
	s *loggedStorage
}

func (c crashable) Commit() error {
	if c.s.crashed.Load() {
		return errCrashed
	}
	return c.Log.Commit()
}

func (s *loggedStorage) OpenJournal(id model.ReplicaID, n int, storeName string, shard, shards int) (cluster.Journal, *cluster.History, error) {
	j, hist, err := s.Storage.OpenJournal(id, n, storeName, shard, shards)
	if err != nil {
		return nil, nil, err
	}
	s.mu.Lock()
	s.logs = append(s.logs, j.(*Log))
	s.mu.Unlock()
	return crashable{j.(*Log), s}, hist, nil
}

// journalCounts is what a node's logs did, summed: wal writes, fsyncs, and
// records staged but not yet committed.
type journalCounts struct{ walWrites, syncs, staged int }

func (s *loggedStorage) counts() (c journalCounts) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, l := range s.logs {
		l.mu.Lock()
		c.walWrites += l.walWrites
		c.syncs += l.syncs
		c.staged += l.staged
		l.mu.Unlock()
	}
	return c
}

func (c journalCounts) minus(o journalCounts) journalCounts {
	return journalCounts{c.walWrites - o.walWrites, c.syncs - o.syncs, c.staged - o.staged}
}

// journaledMesh boots an n-node causal mesh of the given shard count whose
// node i journals under dir through storages[i], with fast redials.
func journaledMesh(t *testing.T, n, shards int, dir string, group bool) ([]*cluster.Node, []*loggedStorage) {
	t.Helper()
	storages := make([]*loggedStorage, n)
	nodes, err := cluster.BootMesh(n, func(i int) cluster.Config {
		storages[i] = &loggedStorage{Storage: &Storage{Dir: dir}}
		if group {
			storages[i].Opts.Group = NewGroupCommitter()
		}
		return meshConfig(t, storages[i], shards)
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, nd := range nodes {
			nd.Close()
		}
	})
	return nodes, storages
}

func meshConfig(t *testing.T, storage cluster.NodeStorage, shards int) cluster.Config {
	st, err := store.Open("causal", spec.MVRTypes(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return cluster.Config{
		Store: st, Listen: "127.0.0.1:0", Storage: storage, Shards: shards,
	}
}

// warmUp writes once at every node, which opens every link, and waits for
// quiescence, which commits every receive.
func warmUp(t *testing.T, nodes []*cluster.Node) {
	t.Helper()
	for _, nd := range nodes {
		if _, err := nd.Do(model.ObjectID(fmt.Sprintf("warm-%d", nd.ID())), model.Write("w")); err != nil {
			t.Fatal(err)
		}
	}
	if !cluster.WaitQuiesced(nodes, 30*time.Second) {
		t.Fatal("the cluster never quiesced after the warm-up writes")
	}
}

// awaitReceives waits until nd has applied want updates. A node's Stats asks
// only the links whose peer has not reported everything the node broadcast,
// and after warmUp none has: polling a receiver does not make it commit.
func awaitReceives(t *testing.T, nd *cluster.Node, want int64) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); nd.Stats().Receives != want; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("r%d applied %d updates, want %d", nd.ID(), nd.Stats().Receives, want)
		}
	}
}

// TestCommitWindowOneCommitPerWrite: a replicated write on a journaled
// 3-node cluster costs the origin one wal write and one commit — its do and
// send, committed together before the response leaves — where it cost two
// of each, and each receiver one more. A receiver stages the update and
// costs nothing until the quiescence check asks, then one wal write and one
// commit, behind the shared group committer each node's storage is given.
func TestCommitWindowOneCommitPerWrite(t *testing.T) {
	nodes, storages := journaledMesh(t, 3, 1, t.TempDir(), true)
	warmUp(t, nodes)
	before := make([]journalCounts, len(nodes))
	for i, s := range storages {
		before[i] = s.counts()
	}
	delta := func(i int) journalCounts { return storages[i].counts().minus(before[i]) }

	if _, err := nodes[0].Do("x", model.Write("v")); err != nil {
		t.Fatal(err)
	}
	if got := delta(0); got != (journalCounts{1, 1, 0}) {
		t.Fatalf("the write cost its origin %+v, want one wal write and one commit", got)
	}
	for _, nd := range nodes[1:] {
		awaitReceives(t, nd, 3) // both warm-up updates, and the write
	}
	time.Sleep(20 * time.Millisecond) // room for a commit, were a receiving turn to make one
	for i := 1; i < len(nodes); i++ {
		if got := delta(i); got != (journalCounts{0, 0, 1}) {
			t.Fatalf("r%d's apply cost %+v before anyone asked; want the receive staged and nothing written", i, got)
		}
	}

	if !cluster.WaitQuiesced(nodes, 30*time.Second) {
		t.Fatal("the cluster never quiesced after the write")
	}
	if got := delta(0); got != (journalCounts{1, 1, 0}) {
		t.Fatalf("the origin's journal did %+v over the write and the quiescence check, want one wal write and one commit", got)
	}
	for i := 1; i < len(nodes); i++ {
		if got := delta(i); got != (journalCounts{1, 1, 0}) {
			t.Fatalf("r%d's journal did %+v once asked, want one wal write and one commit", i, got)
		}
	}
}

// TestCommitWindowCrashLosesOnlyUnasked: a receiver crashes holding staged
// receives — every one of r0's writes, which nobody has asked it about. The
// restarted node recovers the committed prefix, exactly what it held before
// them; r0 resends them from the hello-ack watermark r1 reports on the new
// connection, and the cluster quiesces, converges and audits clean, at one
// shard and at four.
func TestCommitWindowCrashLosesOnlyUnasked(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) { testCommitWindowCrash(t, shards) })
	}
}

func testCommitWindowCrash(t *testing.T, shards int) {
	const writes = 20
	dir := t.TempDir()
	nodes, storages := journaledMesh(t, 3, shards, dir, false)
	warmUp(t, nodes)
	router := cluster.NewShardRouter(shards)
	var objs []model.ObjectID
	for covered := map[int]bool{}; len(covered) < shards; {
		obj := model.ObjectID(fmt.Sprintf("x%d", len(objs)))
		objs = append(objs, obj)
		covered[router.Route(obj)] = true
	}
	for i := 0; i < writes; i++ {
		if _, err := nodes[0].Do(objs[i%len(objs)], model.Write(model.Value(fmt.Sprintf("v%d", i)))); err != nil {
			t.Fatal(err)
		}
	}
	r1 := nodes[1]
	awaitReceives(t, r1, 2+writes)
	if staged := storages[1].counts().staged; staged != writes {
		t.Fatalf("r1 holds %d staged records, want its %d unasked receives", staged, writes)
	}
	recorded := r1.Stats().Events

	storages[1].crashed.Store(true)
	addr := r1.Addr()
	r1.Close()
	cfg := meshConfig(t, &Storage{Dir: dir}, shards)
	cfg.ID, cfg.N, cfg.Listen = 1, 3, addr
	r1b, err := cluster.NewNode(cfg)
	if err != nil {
		t.Fatalf("r1 does not restart from its journal: %v", err)
	}
	nodes[1] = r1b
	if got, want := r1b.Restored(), recorded-writes; got != want {
		t.Fatalf("r1 recovered %d events, want the %d it had committed (%d recorded)", got, want, recorded)
	}
	if err := r1b.Connect(map[model.ReplicaID]string{0: nodes[0].Addr(), 2: nodes[2].Addr()}); err != nil {
		t.Fatal(err)
	}

	if !cluster.WaitQuiesced(nodes, 30*time.Second) {
		t.Fatalf("the cluster never quiesced after r1's restart: %+v", r1b.Stats())
	}
	if got := nodes[0].Stats().Retransmits; got < writes {
		t.Fatalf("r0 resent %d updates, want the %d r1 lost", got, writes)
	}
	if err := cluster.CheckConverged(cluster.Doers(nodes), objs); err != nil {
		t.Fatal(err)
	}
	audits, err := cluster.AuditShards(shards, cluster.HistoriesOf(nodes), spec.MVRTypes())
	if err != nil {
		t.Fatal(err)
	}
	for s, a := range audits {
		if err := a.Err(); err != nil {
			t.Fatalf("shard %d: %v", s, err)
		}
	}
	for _, nd := range nodes {
		if st := nd.Stats(); st.FailedLinks != 0 || st.GapFrames != 0 || nd.Err() != nil {
			t.Fatalf("r%d: %d failed links, %d gap frames, err %v", nd.ID(), st.FailedLinks, st.GapFrames, nd.Err())
		}
	}
}
