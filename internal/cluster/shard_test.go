package cluster

import (
	"errors"
	"fmt"
	"hash/fnv"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/livecheck"
	"repro/internal/membership"
	"repro/internal/model"
	"repro/internal/spec"
	"repro/internal/store"

	_ "repro/internal/store/causal"
	_ "repro/internal/store/lww"
)

// TestShardRouterDistribution: FNV-1a routing must be deterministic, stay
// in range, and spread a large flat keyspace evenly enough that no shard
// carries a pathological share.
// TestShardRouterMatchesHashFNV pins the inlined FNV-1a loop to hash/fnv on
// the key set BENCH_SHARD.json is drawn from (k000000..k999999, every shard
// count the bench sweeps) plus keys that are not ASCII digits, and pins the
// reason it was inlined: routing allocates nothing.
func TestShardRouterMatchesHashFNV(t *testing.T) {
	ref := func(obj model.ObjectID, shards uint32) int {
		h := fnv.New32a()
		h.Write([]byte(obj))
		return int(h.Sum32() % shards)
	}
	routers := []*ShardRouter{NewShardRouter(2), NewShardRouter(4), NewShardRouter(8), NewShardRouter(7)}
	check := func(obj model.ObjectID) {
		for _, r := range routers {
			if got, want := r.Route(obj), ref(obj, uint32(r.Shards())); got != want {
				t.Fatalf("Route(%q) over %d shards = %d, hash/fnv says %d", obj, r.Shards(), got, want)
			}
		}
	}
	for i := 0; i < 1000000; i++ {
		check(model.ObjectID(fmt.Sprintf("k%06d", i)))
	}
	for _, obj := range []model.ObjectID{"", "x", "obj0", "ключ", "\x00\xff\x80", "a much longer key than the bench ever draws"} {
		check(obj)
	}
	r := NewShardRouter(8)
	obj := model.ObjectID("k123456")
	if allocs := testing.AllocsPerRun(1000, func() { r.Route(obj) }); allocs != 0 {
		t.Fatalf("Route allocates %.0f times per call, want 0", allocs)
	}
}

func TestShardRouterDistribution(t *testing.T) {
	one := NewShardRouter(1)
	if one.Route("anything") != 0 || one.Route("") != 0 {
		t.Fatal("single-shard router must route everything to shard 0")
	}

	const shards = 8
	const keys = 100000
	r := NewShardRouter(shards)
	counts := make([]int, shards)
	for i := 0; i < keys; i++ {
		obj := model.ObjectID(fmt.Sprintf("k%06d", i))
		s := r.Route(obj)
		if s < 0 || s >= shards {
			t.Fatalf("key %q routed to %d, outside [0,%d)", obj, s, shards)
		}
		if s != r.Route(obj) {
			t.Fatalf("key %q routed twice to different shards", obj)
		}
		counts[s]++
	}
	min, max := counts[0], counts[0]
	for _, c := range counts[1:] {
		if c < min {
			min = c
		}
		if c > max {
			max = c
		}
	}
	// Uniform would be 12500 per shard; FNV over a flat keyspace stays
	// within a few percent. 1.25 is far looser than observed but tight
	// enough to catch a broken hash fold.
	if ratio := float64(max) / float64(min); ratio > 1.25 {
		t.Fatalf("shard load ratio %.3f (min %d, max %d) — routing is skewed", ratio, min, max)
	}
}

// shardedObjects returns objects covering every shard of the router, so a
// test workload exercises each independent domain.
func shardedObjects(t *testing.T, shards, atLeast int) []model.ObjectID {
	t.Helper()
	r := NewShardRouter(shards)
	covered := make(map[int]bool)
	var objs []model.ObjectID
	for i := 0; len(objs) < atLeast || len(covered) < shards; i++ {
		if i > 10000 {
			t.Fatalf("could not cover %d shards with %d keys", shards, i)
		}
		obj := model.ObjectID(fmt.Sprintf("k%04d", i))
		objs = append(objs, obj)
		covered[r.Route(obj)] = true
	}
	return objs
}

// TestShardedClusterConvergesAndAuditsPerShard is the sharded cluster's
// end-to-end check: a 3-node cluster with 4 shards per node takes writes
// from every node across keys covering every shard, replicates over the
// multiplexed links, quiesces, and converges. The recorded histories are
// then audited PER SHARD — same-shard histories across nodes merge into a
// well-formed execution; different shards never mix. No object spans
// shards, so per-object verdicts compose; the causal verdicts are per shard
// only, since happens-before across a node's shards is not recorded. The
// online ShardSet must agree with the offline verdicts.
func TestShardedClusterConvergesAndAuditsPerShard(t *testing.T) {
	const n = 3
	const shards = 4
	ck := livecheck.NewShardSet(n, shards, livecheck.Options{Types: spec.MVRTypes()})
	nodes := startClusterWith(t, "causal", n, func(cfg *Config) {
		cfg.Shards = shards
		cfg.Tap = ck.Observe
	})

	objs := shardedObjects(t, shards, 24)
	for i, obj := range objs {
		nd := nodes[i%n]
		if _, err := nd.Do(obj, model.Write(model.Value(fmt.Sprintf("v%d", i)))); err != nil {
			t.Fatal(err)
		}
	}
	settle(t, nodes, objs...)

	// Per-shard audits: each shard's histories merge and check on their own
	// (AuditShards also holds every do event to the shard its object routes
	// to — the projection property the audit rests on).
	totalEvents := 0
	for s, a := range auditClean(t, shards, func(s int) ([]History, error) {
		hists, err := HistoriesOf(nodes)(s)
		for i, h := range hists {
			if h.Shard != s || h.Shards != shards {
				t.Fatalf("node %d shard %d history tagged (%d of %d)", i, s, h.Shard, h.Shards)
			}
		}
		return hists, err
	}) {
		if !a.CausalOwed {
			t.Fatalf("shard %d: the causal store's audit skipped Definition 12", s)
		}
		totalEvents += a.Events
	}
	if totalEvents == 0 {
		t.Fatal("no events recorded across any shard")
	}

	// Online verdict composes the same way and agrees.
	v := ck.Verdict()
	if !v.Clean || v.Violations != 0 {
		t.Fatalf("live shard-set verdict = %+v, want clean", v)
	}
	if v.Events == 0 {
		t.Fatal("live checker observed nothing; Tap is not wired per shard")
	}

	// Stats carry coherent per-shard breakdowns.
	for i, nd := range nodes {
		st := nd.Stats()
		if st.Shards != shards || len(st.ShardOps) != shards {
			t.Fatalf("node %d stats shards = %d (%d slices), want %d", i, st.Shards, len(st.ShardOps), shards)
		}
		var ops, sends, receives, events int64
		for s := 0; s < shards; s++ {
			ops += st.ShardOps[s]
			sends += st.ShardSends[s]
			receives += st.ShardReceives[s]
			events += st.ShardEvents[s]
		}
		if ops != st.Ops || sends != st.Sends || receives != st.Receives || events != st.Events {
			t.Fatalf("node %d per-shard sums (%d,%d,%d,%d) != totals (%d,%d,%d,%d)",
				i, ops, sends, receives, events, st.Ops, st.Sends, st.Receives, st.Events)
		}
		if st.Violations != 0 {
			t.Fatalf("node %d recorded %d §4 violations", i, st.Violations)
		}
	}
}

// TestUnshardedStatsAreTheOneShardCase: Stats renders an unsharded node the
// way every frame and the audit do — as the one-shard case: Shards 1 and one
// entry per breakdown, equal to its aggregate, open or closed.
func TestUnshardedStatsAreTheOneShardCase(t *testing.T) {
	nd := bootNode(t, 0, 2, nil)
	writeN(t, nd, 5, "w")
	check := func(when string, st Stats) {
		t.Helper()
		if st.Shards != 1 {
			t.Fatalf("%s: Shards = %d, want 1", when, st.Shards)
		}
		for _, c := range []struct {
			name string
			per  []int64
			all  int64
		}{
			{"ops", st.ShardOps, st.Ops}, {"sends", st.ShardSends, st.Sends},
			{"receives", st.ShardReceives, st.Receives}, {"events", st.ShardEvents, st.Events},
		} {
			if len(c.per) != 1 || c.per[0] != c.all {
				t.Fatalf("%s: shard %s %v, want [%d]", when, c.name, c.per, c.all)
			}
		}
	}
	check("open", nd.Stats())
	nd.Close()
	check("closed", nd.Stats())
}

// TestAuditShardsRejectsMisroutedDo: a do event recorded by a shard its object
// does not route to means two broadcast domains were mixed; the audit refuses
// the run instead of ruling on it.
func TestAuditShardsRejectsMisroutedDo(t *testing.T) {
	const shards = 2
	obj := shardedObjects(t, shards, 1)[0]
	wrong := 1 - NewShardRouter(shards).Route(obj)
	fetch := func(s int) ([]History, error) {
		h := History{Node: 0, N: 1, Store: "lww", Shard: s, Shards: shards}
		if s == wrong {
			h.Events = []Event{{Kind: model.ActDo, Lamport: 1, Object: obj, Op: model.Read()}}
		}
		return []History{h}, nil
	}
	if _, err := AuditShards(shards, fetch, spec.MVRTypes()); err == nil || !strings.Contains(err.Error(), "routes to shard") {
		t.Fatalf("AuditShards = %v, want the misrouted do refused", err)
	}
}

// TestShardCountMismatchRefused: two nodes sealed at different shard counts
// must refuse to replicate — a frame interpreted in the wrong seq-domain
// partitioning would corrupt both histories, so no data may cross at all.
// The refusal is answered, so each side latches it and stops dialling
// instead of retrying a link that can never work.
func TestShardCountMismatchRefused(t *testing.T) {
	mk := func(id model.ReplicaID, shards int) *Node {
		st, err := store.Open("lww", spec.MVRTypes(), store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		cfg := fastConfig(id, 2, st)
		cfg.Shards = shards
		nd, err := NewNode(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { nd.Close() })
		return nd
	}
	a := mk(0, 2)
	b := mk(1, 4)
	if err := a.Connect(map[model.ReplicaID]string{1: b.Addr()}); err != nil {
		t.Fatal(err)
	}
	if err := b.Connect(map[model.ReplicaID]string{0: a.Addr()}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Do("x", model.Write("from-a")); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Do("x", model.Write("from-b")); err != nil {
		t.Fatal(err)
	}
	// Give the links ample time to (wrongly) deliver.
	deadline := time.Now().Add(500 * time.Millisecond)
	for time.Now().Before(deadline) {
		if a.Stats().Receives != 0 || b.Stats().Receives != 0 {
			t.Fatalf("mismatched shard counts exchanged data: a received %d, b received %d",
				a.Stats().Receives, b.Stats().Receives)
		}
		time.Sleep(25 * time.Millisecond)
	}
	for _, nd := range []*Node{a, b} {
		if st := nd.Stats(); st.FailedLinks != 1 || st.Reconnects > 2 {
			t.Fatalf("r%d: %d failed links after %d reconnects, want the one link latched failed within 2", nd.ID(), st.FailedLinks, st.Reconnects)
		}
		// A refused link costs its own node nothing else: clients are served.
		if _, err := nd.Do("y", model.Read()); err != nil {
			t.Fatalf("r%d stopped serving clients: %v", nd.ID(), err)
		}
	}
}

// TestShardedNodeInteroperatesWithSingleShard: an unsharded node is the
// one-shard case, so a node configured with Shards at 1 pairs with a
// default (0) node.
func TestShardedNodeInteroperatesWithSingleShard(t *testing.T) {
	mk := func(id model.ReplicaID, shards int) *Node {
		st, err := store.Open("lww", spec.MVRTypes(), store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		cfg := fastConfig(id, 2, st)
		cfg.Shards = shards
		nd, err := NewNode(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { nd.Close() })
		return nd
	}
	a := mk(0, 1)
	b := mk(1, 0) // zero defaults to one shard
	if err := a.Connect(map[model.ReplicaID]string{1: b.Addr()}); err != nil {
		t.Fatal(err)
	}
	if err := b.Connect(map[model.ReplicaID]string{0: a.Addr()}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Do("x", model.Write("v")); err != nil {
		t.Fatal(err)
	}
	settle(t, []*Node{a, b}, "x")
}

// laterShardFails is a NodeStorage whose Open succeeds for shard 0 and fails
// for every other shard, counting how often shard 0's closeLog runs.
type laterShardFails struct {
	err    error
	closed int
}

func (f *laterShardFails) Open(id model.ReplicaID, n int, storeName string, shard, shards int) (func(Event) error, *History, *membership.Forest, func() error, error) {
	if shard > 0 {
		return nil, nil, nil, nil, f.err
	}
	return func(Event) error { return nil }, nil, nil, func() error { f.closed++; return nil }, nil
}

// TestNewNodeStorageFailureOnLaterShard: a storage error on shard i > 0 must
// come back from NewNode as an error — not as a nil dereference in the
// unwind, which walks shards that were never built — with the listener
// closed and the shard logs already open closed exactly once.
func TestNewNodeStorageFailureOnLaterShard(t *testing.T) {
	probe, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := probe.Addr().String()
	probe.Close()

	cfg := fastConfig(0, 3, openCausal(t))
	cfg.Listen, cfg.Shards = addr, 4
	storage := &laterShardFails{err: errors.New("disk on fire")}
	cfg.Storage = storage
	nd, err := NewNode(cfg)
	if err == nil {
		nd.Close()
		t.Fatal("NewNode succeeded with a shard whose storage failed to open")
	}
	if !errors.Is(err, storage.err) || !strings.Contains(err.Error(), "shard 1") {
		t.Fatalf("err = %v, want the storage error wrapped and naming shard 1", err)
	}
	if storage.closed != 1 {
		t.Fatalf("shard 0's log was closed %d times, want once", storage.closed)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("the failed node still holds its listener: %v", err)
	}
	ln.Close()
}
