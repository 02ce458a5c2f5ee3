package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/durable"
	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/spec"
	"repro/internal/store"
	"repro/internal/store/causal"
)

const (
	opTimeout      = 10 * time.Second
	quiesceTimeout = 60 * time.Second
)

// rig is one booted cluster with its pinned clients: the system under test.
type rig struct {
	w       *workload
	keys    []model.ObjectID
	cfgs    []cluster.Config // as booted, so a node can be restarted
	nodes   []*cluster.Node
	clients []*cluster.Client
	dir     string  // journal root, removed on close; "" when in-memory
	tr      *tracer // nil on untraced rigs
}

// setUp is what setup_s times: boot the nodes, connect them, preload every
// key through the two clients, and wait for quiescence. journalRoot is
// where a durable workload's journal directory is created. With a tracer
// the rig is built from the benchmark's wrappers around store, storage and
// tap; without one it is the plain configuration a user would run.
func setUp(w *workload, seed int64, journalRoot string, rounds int, tr *tracer) (_ *rig, err error) {
	r := &rig{w: w, keys: keyNames(w.keys), tr: tr}
	defer func() {
		if err != nil {
			r.close()
		}
	}()
	if w.durable {
		if r.dir, err = os.MkdirTemp(journalRoot, "journal-"); err != nil {
			return nil, err
		}
	}
	for i := 0; i < clusterSize; i++ {
		cfg := r.config(i, seed, tr != nil)
		nd, err := cluster.NewNode(cfg)
		if err != nil {
			return nil, err
		}
		r.cfgs = append(r.cfgs, cfg)
		r.nodes = append(r.nodes, nd)
	}
	for i, nd := range r.nodes {
		if err := nd.Connect(r.peersOf(i)); err != nil {
			return nil, err
		}
	}
	for i := 0; i < clients; i++ {
		c, err := cluster.Dial(r.nodes[i].Addr(), 0)
		if err != nil {
			return nil, err
		}
		c.SetOpTimeout(opTimeout)
		r.clients = append(r.clients, c)
	}
	if err := r.preload(seed, rounds); err != nil {
		return nil, err
	}
	if !cluster.WaitQuiesced(r.nodes, quiesceTimeout) {
		return nil, fmt.Errorf("%s: cluster did not quiesce within %v after the preload", w.name, quiesceTimeout)
	}
	return r, nil
}

// config builds node i's configuration. A rig with a tracer always times
// its storage; traced additionally wraps the store and attaches the tap.
func (r *rig) config(i int, seed int64, traced bool) cluster.Config {
	var st store.Store = causal.New(spec.MVRTypes())
	cfg := cluster.Config{
		ID: model.ReplicaID(i), N: clusterSize, Listen: "127.0.0.1:0",
		Seed: seed, Shards: r.w.shards,
	}
	var storage cluster.NodeStorage
	if r.w.durable {
		// One Storage per node: a node's shard journals share one group
		// committer, as they do in a served process; nodes do not share.
		storage = &durable.Storage{Dir: r.dir}
	}
	if storage != nil && r.tr != nil {
		storage = r.tr.wrapStorage(storage)
	}
	if traced {
		st = r.tr.wrapStore(st, i)
		cfg.Tap = r.tr.tap(i)
	}
	cfg.Store, cfg.Storage = st, storage
	return cfg
}

func (r *rig) peersOf(i int) map[model.ReplicaID]string {
	peers := make(map[model.ReplicaID]string)
	for j, other := range r.nodes {
		if j != i {
			peers[model.ReplicaID(j)] = other.Addr()
		}
	}
	return peers
}

// preload writes every key rounds times: client c owns the keys whose
// index is c modulo the client count, so the two connections share the
// work and every key has one writer.
func (r *rig) preload(seed int64, rounds int) error {
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			g := newGenerator(r.w, seed, ci)
			seq := 0
			for round := 0; round < rounds; round++ {
				for k := ci; k < len(r.keys); k += clients {
					resp, err := r.clients[ci].Do(r.keys[k], model.Write(g.value('p', seq)))
					if err == nil && !resp.OK {
						err = fmt.Errorf("write answered %s", resp)
					}
					if err != nil {
						errs[ci] = fmt.Errorf("%s: preload of %s: %w", r.w.name, r.keys[k], err)
						return
					}
					seq++
				}
			}
		}(ci)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// stop closes the clients and nodes. Node.Close waits for every goroutine
// of the node.
func (r *rig) stop() {
	for _, c := range r.clients {
		c.Close()
	}
	r.clients = nil
	for _, nd := range r.nodes {
		nd.Close()
	}
	r.nodes = nil
}

// close stops the rig and removes its journal directory.
func (r *rig) close() {
	r.stop()
	if r.dir != "" {
		os.RemoveAll(r.dir)
		r.dir = ""
	}
}

func (r *rig) stats() []cluster.Stats {
	ss := make([]cluster.Stats, len(r.nodes))
	for i, nd := range r.nodes {
		ss[i] = nd.Stats()
	}
	return ss
}

// checkKeys is the convergence check's key set: every key, or a seeded
// sample on the workloads where one read costs milliseconds.
func (r *rig) checkKeys(seed int64) []model.ObjectID {
	if r.w.sampleKeys == 0 || r.w.sampleKeys >= len(r.keys) {
		return r.keys
	}
	rng := rand.New(rand.NewSource(gen.SplitSeed(seed, clients)))
	ks := make([]model.ObjectID, r.w.sampleKeys)
	for i, k := range rng.Perm(len(r.keys))[:r.w.sampleKeys] {
		ks[i] = r.keys[k]
	}
	return ks
}

// verify is the cluster-wide part of the correctness gate: quiescence,
// convergence of the checked keys across all replicas, no property
// violation and no failed link on any node.
func (r *rig) verify(seed int64) error {
	if !cluster.WaitQuiesced(r.nodes, quiesceTimeout) {
		return fmt.Errorf("%s: cluster did not quiesce within %v", r.w.name, quiesceTimeout)
	}
	replicas := make([]cluster.Doer, len(r.nodes))
	for i, nd := range r.nodes {
		replicas[i] = nd
	}
	if err := cluster.CheckConverged(replicas, r.checkKeys(seed)); err != nil {
		return err
	}
	for _, s := range r.stats() {
		if s.Violations != 0 || s.FailedLinks != 0 {
			return fmt.Errorf("%s: node r%d reports %d property violations and %d failed links", r.w.name, s.Node, s.Violations, s.FailedLinks)
		}
	}
	return nil
}

// verifyRecovery is the durable workload's extra gate: close every node,
// reopen one from its journal alone, and require it to recover exactly the
// events it reported before closing.
func (r *rig) verifyRecovery() error {
	const reopen = clusterSize - 1
	want := r.nodes[reopen].Stats().Events
	cfg := r.cfgs[reopen]
	r.stop()
	nd, err := cluster.NewNode(cfg)
	if err != nil {
		return fmt.Errorf("%s: reopen r%d from its journal: %w", r.w.name, reopen, err)
	}
	got := nd.Restored()
	nd.Close()
	if got != want {
		return fmt.Errorf("%s: r%d recovered %d events from its journal, reported %d before closing", r.w.name, reopen, got, want)
	}
	return nil
}

// restart closes one node and boots a fresh incarnation on the same
// address, without store wrapper or tap, then waits for the cluster to
// quiesce again. A durable node recovers from its journal; an in-memory
// node comes back empty. It must be a node no client writes through: an
// in-memory node that lost its own writes could not resume its sequence
// domain.
func (r *rig) restart(i int, seed int64) (time.Duration, error) {
	t0 := time.Now()
	addr := r.nodes[i].Addr()
	r.nodes[i].Close()
	cfg := r.config(i, seed, false)
	cfg.Listen = addr
	nd, err := cluster.NewNode(cfg)
	if err != nil {
		return 0, fmt.Errorf("%s: restart r%d: %w", r.w.name, i, err)
	}
	r.nodes[i], r.cfgs[i] = nd, cfg
	if err := nd.Connect(r.peersOf(i)); err != nil {
		return 0, err
	}
	if !cluster.WaitQuiesced(r.nodes, quiesceTimeout) {
		return 0, fmt.Errorf("%s: cluster did not quiesce within %v after restarting r%d", r.w.name, quiesceTimeout, i)
	}
	return time.Since(t0), nil
}
