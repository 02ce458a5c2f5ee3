package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/membership"
	"repro/internal/model"
	"repro/internal/spec"
	"repro/internal/store"
	"repro/internal/wire"
)

func openCausal(t testing.TB) store.Store {
	t.Helper()
	st, err := store.Open("causal", spec.MVRTypes(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// bootNode starts one node of an n-population causal cluster without
// linking it to anyone.
func bootNode(t *testing.T, id model.ReplicaID, n int, mut func(*Config)) *Node {
	t.Helper()
	cfg := fastConfig(id, n, openCausal(t))
	if mut != nil {
		mut(&cfg)
	}
	nd, err := NewNode(cfg)
	if err != nil {
		t.Fatalf("node %d: %v", id, err)
	}
	t.Cleanup(func() { nd.Close() })
	return nd
}

// stored makes a node of the given shard count journal to mem, so that what
// it recorded outlives it: a later incarnation booted with the same storage
// restores it, and storedHistories reads it back for an audit.
func stored(mem *memStorage, shards int) func(*Config) {
	return func(cfg *Config) { cfg.Storage, cfg.Shards = mem, shards }
}

// storedHistories is an audit's fetch over the live nodes' histories plus
// the one the (closed) node gone left in mem.
func storedHistories(mem *memStorage, gone *Node, live ...*Node) func(int) ([]History, error) {
	return func(shard int) ([]History, error) {
		hists, err := HistoriesOf(live)(shard)
		h := History{Node: gone.ID(), N: gone.cfg.N, Store: gone.cfg.Store.Name(), Events: mem.events(gone.ID(), shard)}
		return append(hists, h), err
	}
}

// forShards runs test once unsharded and once at four shards: catch-up is per
// shard, so the sharded run must move exactly what the unsharded one does,
// summed over the shards.
func forShards(t *testing.T, test func(t *testing.T, shards int)) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) { test(t, shards) })
	}
}

// writeN performs k distinct writes on nd, spread over objects that cover
// every shard of it, and returns the object list.
func writeN(t *testing.T, nd *Node, k int, tag string) []model.ObjectID {
	t.Helper()
	objects := shardedObjects(t, len(nd.shards), 3)
	for i := 0; i < k; i++ {
		obj := objects[i%len(objects)]
		if _, err := nd.Do(obj, model.Write(model.Value(fmt.Sprintf("%s.%d", tag, i)))); err != nil {
			t.Fatalf("write %d on r%d: %v", i, nd.ID(), err)
		}
	}
	return objects
}

// TestJoinPullsDepartedOriginFully is the tentpole's end-to-end check with
// a deterministic byte-range assertion. All writes originate at r1, which
// then leaves; the joiner r2 has an empty log and only r0's address. Live
// replication links only re-offer a node's own updates, so r1's history
// can reach r2 exclusively through anti-entropy against r0's log —
// SyncPulled must equal the departed origin's update count exactly, summed
// over the shards, and r0 must have served exactly that many (no full-log
// transfer, no update streamed twice).
func TestJoinPullsDepartedOriginFully(t *testing.T) {
	forShards(t, func(t *testing.T, shards int) {
		const k = 60
		mem := &memStorage{}
		r0 := bootNode(t, 0, 3, func(cfg *Config) { cfg.Shards = shards })
		r1 := bootNode(t, 1, 3, stored(mem, shards))
		if err := r0.Connect(map[model.ReplicaID]string{1: r1.Addr()}); err != nil {
			t.Fatal(err)
		}
		if err := r1.Connect(map[model.ReplicaID]string{0: r0.Addr()}); err != nil {
			t.Fatal(err)
		}
		objects := writeN(t, r1, k, "r1")
		if !WaitQuiesced([]*Node{r0, r1}, 30*time.Second) {
			t.Fatal("pair did not quiesce before the leave")
		}
		if err := r1.Leave(); err != nil {
			t.Fatal(err)
		}
		r1.Close()

		r2 := bootNode(t, 2, 3, func(cfg *Config) {
			cfg.Shards = shards
			cfg.Join = map[model.ReplicaID]string{0: r0.Addr()}
		})
		if got := r2.Stats().SyncPulled; got != k {
			t.Fatalf("joiner pulled %d updates via anti-entropy, want exactly %d", got, k)
		}
		if got := r0.Stats().SyncServed; got != k {
			t.Fatalf("donor served %d updates, want exactly %d", got, k)
		}
		settle(t, []*Node{r0, r2}, objects...)
		// The views must agree: r1 departed, r2 admitted.
		for _, nd := range []*Node{r0, r2} {
			var left, alive int
			for _, m := range nd.Membership() {
				if m.Left {
					left++
				} else {
					alive++
				}
			}
			if left != 1 || alive != 2 {
				t.Fatalf("r%d view: %d left / %d alive, want 1/2: %+v", nd.ID(), left, alive, nd.Membership())
			}
		}
		auditClean(t, shards, storedHistories(mem, r1, r0, r2))
	})
}

// TestRejoinPullsOnlyMissingDelta pins the incremental half of
// anti-entropy: a node that departs with a prefix of the log and rejoins
// later pulls exactly the delta written while it was away — the digest
// exchange proves each shard's prefix matches and the range pull starts
// past it.
func TestRejoinPullsOnlyMissingDelta(t *testing.T) {
	forShards(t, func(t *testing.T, shards int) {
		const k1, k2 = 30, 45
		mem := &memStorage{}
		r0 := bootNode(t, 0, 3, func(cfg *Config) { cfg.Shards = shards })
		r1 := bootNode(t, 1, 3, stored(mem, shards))
		if err := r0.Connect(map[model.ReplicaID]string{1: r1.Addr()}); err != nil {
			t.Fatal(err)
		}
		if err := r1.Connect(map[model.ReplicaID]string{0: r0.Addr()}); err != nil {
			t.Fatal(err)
		}
		writeN(t, r1, k1, "a")
		if !WaitQuiesced([]*Node{r0, r1}, 30*time.Second) {
			t.Fatal("pair did not quiesce before the first join")
		}

		joinR0 := func(cfg *Config) {
			stored(mem, shards)(cfg)
			cfg.Join = map[model.ReplicaID]string{0: r0.Addr()}
		}
		r2 := bootNode(t, 2, 3, joinR0)
		if got := r2.Stats().SyncPulled; got != k1 {
			t.Fatalf("first join pulled %d, want %d", got, k1)
		}
		if !WaitQuiesced([]*Node{r0, r1, r2}, 30*time.Second) {
			t.Fatal("trio did not quiesce after the first join")
		}
		if err := r2.Leave(); err != nil {
			t.Fatal(err)
		}
		r2.Close()

		objects := writeN(t, r1, k2, "b")
		if !WaitQuiesced([]*Node{r0, r1}, 30*time.Second) {
			t.Fatal("pair did not quiesce after the delta writes")
		}
		if err := r1.Leave(); err != nil {
			t.Fatal(err)
		}
		r1.Close()

		r2b := bootNode(t, 2, 3, joinR0)
		if got := r2b.Stats().SyncPulled; got != k2 {
			t.Fatalf("rejoin pulled %d updates, want exactly the missing delta %d", got, k2)
		}
		settle(t, []*Node{r0, r2b}, objects...)
		// The rejoin must supersede the Left record: epoch strictly above it.
		for _, m := range r0.Membership() {
			if m.ID == 2 {
				if m.Left {
					t.Fatalf("r0 still sees r2 as left: %+v", m)
				}
				if m.Epoch == 0 {
					t.Fatalf("rejoin did not bump the epoch past the departure: %+v", m)
				}
			}
		}
		auditClean(t, shards, storedHistories(mem, r1, r0, r2b))
	})
}

// TestJoinRefusedOnDivergentHistory: a joiner whose log disagrees with the
// donor about an origin's history must be refused permanently, before an
// update moves — silently merging two incompatible histories would poison
// the audit. In each world the origin writes; the worlds share its first 34
// writes, all to one object and so to one shard, and differ after them. The
// joiner r1 holds 40 of world A's: its count ends mid-span, past the first
// stored chain value, so what differs is the donor's re-hash of updates
// 33–40 through its update log. World B's donor holds more than the joiner
// (its chain value over the joiner's count decides) or exactly as many (its
// head does).
//
// The origin is either r2, which departs and leaves its history with the
// donor r0 (no live link moves r2's updates: a link only offers its own
// node's), or the donor itself. A donor that linked back to a joiner before
// its digests were clean would, over that link, hand the refused joiner its
// own updates past the joiner's count, journaled on top of the divergent
// prefix; so the refused joiner's journal must hold exactly the receives it
// joined world A with.
func TestJoinRefusedOnDivergentHistory(t *testing.T) {
	forShards(t, func(t *testing.T, shards int) {
		for _, origin := range []model.ReplicaID{2, 0} {
			t.Run(fmt.Sprintf("origin=r%d", origin), func(t *testing.T) { testJoinRefusedOnDivergentHistory(t, shards, origin) })
		}
	})
}

func testJoinRefusedOnDivergentHistory(t *testing.T, shards int, origin model.ReplicaID) {
	const shared, joined = 34, 40
	obj := shardedObjects(t, shards, 1)[0]
	si := NewShardRouter(shards).Route(obj)
	world := func(tag string, k int) *Node {
		donor := bootNode(t, 0, 3, func(cfg *Config) { cfg.Shards = shards })
		writer := donor
		if origin != 0 {
			writer = bootNode(t, origin, 3, func(cfg *Config) { cfg.Shards = shards })
			if err := writer.Connect(map[model.ReplicaID]string{0: donor.Addr()}); err != nil {
				t.Fatal(err)
			}
			if err := donor.Connect(map[model.ReplicaID]string{origin: writer.Addr()}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < k; i++ {
			v := fmt.Sprintf("shared.%d", i)
			if i >= shared {
				v = fmt.Sprintf("%s.%d", tag, i)
			}
			if _, err := writer.Do(obj, model.Write(model.Value(v))); err != nil {
				t.Fatal(err)
			}
		}
		if writer != donor {
			if !WaitQuiesced([]*Node{donor, writer}, 30*time.Second) {
				t.Fatalf("%s did not quiesce", tag)
			}
			if err := writer.Leave(); err != nil {
				t.Fatal(err)
			}
			writer.Close()
		}
		return donor
	}
	chainAt := func(nd *Node, k uint64) membership.Hash {
		s := nd.shards[si]
		if err := s.lock(); err != nil {
			t.Fatal(err)
		}
		defer s.turn.Unlock()
		return s.tree.PrefixRoot(int(origin), k, s.updatePayload)
	}
	mem := &memStorage{}
	joining := func(donor *Node) func(*Config) {
		return func(cfg *Config) {
			stored(mem, shards)(cfg)
			cfg.Join = map[model.ReplicaID]string{0: donor.Addr()}
		}
	}
	// receives counts the receive events r1 has journaled, over every shard.
	receives := func() (n int) {
		for s := 0; s < shards; s++ {
			for _, ev := range mem.events(1, s) {
				if ev.Kind == model.ActReceive {
					n++
				}
			}
		}
		return n
	}
	donorA := world("worldA", joined)
	r1 := bootNode(t, 1, 3, joining(donorA))
	if !WaitQuiesced([]*Node{donorA, r1}, 30*time.Second) {
		t.Fatal("world A did not quiesce")
	}
	sharedRoot, joinedRoot := chainAt(donorA, shared), chainAt(donorA, joined)
	r1.Close()
	donorA.Close()
	if got := receives(); got != joined {
		t.Fatalf("r1 journaled %d receives in world A, want %d", got, joined)
	}

	for _, k := range []int{joined + 6, joined} {
		donorB := world("worldB", k)
		if chainAt(donorB, shared) != sharedRoot || chainAt(donorB, joined) == joinedRoot {
			t.Fatalf("donor of %d: the worlds do not share exactly their first %d updates", k, shared)
		}
		cfg := fastConfig(1, 3, openCausal(t))
		joining(donorB)(&cfg)
		nd, err := NewNode(cfg)
		if err == nil {
			nd.Close()
			t.Fatalf("donor of %d: join with a divergent r%d history was admitted", k, origin)
		}
		names := fmt.Sprintf("shard %d origin r%d: the donor's first %d updates", si, origin, joined)
		if !errors.Is(err, errJoinRefused) || !strings.Contains(err.Error(), names) {
			t.Fatalf("donor of %d: err = %v, want errJoinRefused naming %q", k, err, names)
		}
		// The same conversation from a node that stays up shows what moved.
		nd = bootNode(t, 1, 3, stored(mem, shards))
		if err := nd.joinVia(0, donorB.Addr()); !errors.Is(err, errJoinRefused) {
			t.Fatalf("donor of %d: joinVia = %v, want errJoinRefused", k, err)
		}
		if pulled, served := nd.Stats().SyncPulled, donorB.Stats().SyncServed; pulled != 0 || served != 0 {
			t.Fatalf("donor of %d: a refused join moved updates: joiner pulled %d, donor served %d", k, pulled, served)
		}
		// A donor that had linked back would stay unquiesced until its link
		// delivered what it holds past the joiner's count.
		if !WaitQuiesced([]*Node{donorB}, 30*time.Second) {
			t.Fatalf("donor of %d did not quiesce", k)
		}
		if got := receives(); got != joined {
			t.Fatalf("donor of %d: the refused joiner journaled %d receives, want the %d it joined with", k, got, joined)
		}
		nd.Close()
		donorB.Close()
	}
}

// TestJoinRefusedOnShardCountMismatch: a joiner and a seed that split the
// keyspace differently share no seq domain — shard i of one is not shard i of
// the other — so the join is refused for good, in either direction, before an
// update moves or the seed admits the joiner. A 1-shard joiner used to pull a
// 4-shard seed's shard 0 into its one shard, boot, and then watch every link
// fail-stop on the hello, holding a quarter of the keyspace.
func TestJoinRefusedOnShardCountMismatch(t *testing.T) {
	for _, tc := range []struct{ joiner, seed int }{{1, 4}, {4, 2}} {
		t.Run(fmt.Sprintf("joiner%d_seed%d", tc.joiner, tc.seed), func(t *testing.T) {
			seed := bootNode(t, 0, 2, func(cfg *Config) { cfg.Shards = tc.seed })
			for i, obj := range shardedObjects(t, tc.seed, 8) {
				if _, err := seed.Do(obj, model.Write(model.Value(fmt.Sprintf("v%d", i)))); err != nil {
					t.Fatal(err)
				}
			}
			counts := fmt.Sprintf("runs %d shards, this node %d", tc.seed, tc.joiner)
			cfg := fastConfig(1, 2, openCausal(t))
			cfg.Shards = tc.joiner
			cfg.Join = map[model.ReplicaID]string{0: seed.Addr()}
			nd, err := NewNode(cfg)
			if err == nil {
				nd.Close()
				t.Fatal("a joiner of another shard count was admitted")
			}
			if !errors.Is(err, errJoinRefused) || !strings.Contains(err.Error(), counts) {
				t.Fatalf("err = %v, want errJoinRefused naming %q", err, counts)
			}
			// The same conversation from a node that stays up shows what moved.
			nd = bootNode(t, 1, 2, func(cfg *Config) { cfg.Shards = tc.joiner })
			if err := nd.joinVia(0, seed.Addr()); !errors.Is(err, errJoinRefused) {
				t.Fatalf("joinVia = %v, want errJoinRefused", err)
			}
			if pulled, served := nd.Stats().SyncPulled, seed.Stats().SyncServed; pulled != 0 || served != 0 {
				t.Fatalf("a refused join moved updates: joiner pulled %d, seed served %d", pulled, served)
			}
			if ms := seed.Membership(); len(ms) != 1 {
				t.Fatalf("the seed admitted a joiner it refused: %+v", ms)
			}
		})
	}
}

// TestJoinRequestForUnknownShardHangsUp: the shard a join digest names is
// input from outside the program. A digest naming a shard the donor does
// not have, or a shard out of order, makes it hang up — no panic, nothing
// served — in a conversation whose digest of shard 0 was answered. So does a
// frame of a retired type in the place of the next digest: the tree walk's
// (20) or the range request's (22).
func TestJoinRequestForUnknownShardHangsUp(t *testing.T) {
	const shards = 4
	nd := bootNode(t, 0, 2, func(cfg *Config) { cfg.Shards = shards })
	writeN(t, nd, 8, "w")
	// The joiner, r1, asks only about its own broadcasts, of which the donor
	// holds none: a clean digest that is owed nothing.
	own := []originDigest{{Origin: 1}}
	for _, tc := range []struct {
		name string
		req  func(w *wire.Writer)
	}{
		{"unknown shard", func(w *wire.Writer) { appendDigest(w, tDigest, shards, own) }},
		{"shard out of order", func(w *wire.Writer) { appendDigest(w, tDigest, 2, own) }},
		{"retired tree walk", func(w *wire.Writer) {
			for _, v := range []uint64{20, 1, 0, 8, 0, 0} { // {type, shard, origin, prefix, level, index}
				w.Uvarint(v)
			}
		}},
		{"retired range request", func(w *wire.Writer) {
			for _, v := range []uint64{22, 1, 0, 0, 8, 1} { // {type, shard, origin, from, count, window}
				w.Uvarint(v)
			}
		}},
	} {
		send, recv := rawDial(t, nd)
		send(func(w *wire.Writer) { appendJoin(w, joinReq{From: 1, Shards: shards}) })
		if typ, _ := recv(); typ != tJoinAck {
			t.Fatalf("%s: join answered with frame type %d", tc.name, typ)
		}
		send(func(w *wire.Writer) { appendDigest(w, tDigest, 0, own) })
		if typ, r := recv(); typ != tDigestResp {
			t.Fatalf("%s: digest of shard 0 answered with frame type %d", tc.name, typ)
		} else if shard, _, err := decodeDigest(r, true); err != nil || shard != 0 {
			t.Fatalf("%s: digest answered for shard %d, err %v", tc.name, shard, err)
		}
		send(tc.req)
		if typ, _ := recv(); typ != 0 {
			t.Fatalf("%s: answered with frame type %d, want a hang-up", tc.name, typ)
		}
	}
	if served := nd.Stats().SyncServed; served != 0 {
		t.Fatalf("the donor served %d updates to a joiner it owed nothing", served)
	}
}

// TestJoinDigestUnansweredHangsUp: a donor that cannot compute a digest —
// its node is closing — returns the error, and serveJoin hangs up, where it
// used to answer an empty digest; and a joiner refuses an answer that lacks
// an origin it asked about, which it used to read as "the donor is behind",
// so a closing donor could hand out a join that pulled nothing.
func TestJoinDigestUnansweredHangsUp(t *testing.T) {
	nd := bootNode(t, 0, 2, nil)
	writeN(t, nd, 3, "w")
	asked := []originDigest{{Origin: 0}, {Origin: 1}}
	answered, err := digestResp(nd.shards[0], asked)
	if err != nil || len(answered) != 2 || answered[0].Count != 3 || answered[1].Count != 0 {
		t.Fatalf("digest answered %+v, err %v; want r0 at 3 and r1 at 0", answered, err)
	}
	owed, err := owedRanges(1, 0, asked, answered)
	if want := (owedRange{Origin: 0, From: 0, To: 3, Root: answered[0].Root}); err != nil || len(owed) != 1 || owed[0] != want {
		t.Fatalf("owed %+v, err %v; want just %+v", owed, err, want)
	}
	if owed, err := owedRanges(1, 0, asked, answered[:1]); err == nil {
		t.Fatalf("an answer lacking r1 was accepted, owing %+v", owed)
	}
	if _, err := digestResp(nd.shards[0], []originDigest{{Origin: 1}, {Origin: 0}}); err == nil {
		t.Fatal("a digest with its origins out of order was answered")
	}
	nd.Close()
	if resp, err := digestResp(nd.shards[0], asked); !errors.Is(err, ErrClosed) {
		t.Fatalf("a closed node answered the digest with %+v, err %v; want ErrClosed", resp, err)
	}
}

// TestJoinThroughWritingDonor: a donor's own writes reach a fresh joiner
// in its catch-up stream, each once, on the first attempt. The donor used
// to link back to the joiner before the digests, so its live link
// delivered the same writes during the pull; the joiner, which stopped
// reading a range when its log reached the donor's count, read the chunks
// still in flight as the next shard's digest answer and gave up. 400
// writes of 200-byte values under a 512-byte frame limit make every chunk
// one update, over four shards.
func TestJoinThroughWritingDonor(t *testing.T) {
	const shards, k = 4, 400
	small := func(cfg *Config) { cfg.Shards, cfg.MaxFrame = shards, 512 }
	donor := bootNode(t, 0, 2, small)
	objects := shardedObjects(t, shards, 3)
	for i := 0; i < k; i++ {
		v := model.Value(fmt.Sprintf("%04d%s", i, strings.Repeat("-", 196)))
		if _, err := donor.Do(objects[i%len(objects)], model.Write(v)); err != nil {
			t.Fatal(err)
		}
	}
	joiner := bootNode(t, 1, 2, small)
	if err := joiner.joinVia(0, donor.Addr()); err != nil {
		t.Fatalf("the first join attempt failed: %v", err)
	}
	if served, pulled := donor.Stats().SyncServed, joiner.Stats().SyncPulled; served != k || pulled != k {
		t.Fatalf("the donor served %d updates and the joiner pulled %d, want %d each", served, pulled, k)
	}
}

// TestJoinRefusedWithoutOriginalLog: a node that crashed (without leaving)
// and lost its data dir cannot rejoin under the same ID with an empty log
// while the cluster still holds updates it originated — that incarnation's
// history is irreplaceable, and admitting the impostor would fork the
// origin's sequence space.
func TestJoinRefusedWithoutOriginalLog(t *testing.T) {
	r0 := bootNode(t, 0, 2, nil)
	r1 := bootNode(t, 1, 2, nil)
	if err := r0.Connect(map[model.ReplicaID]string{1: r1.Addr()}); err != nil {
		t.Fatal(err)
	}
	if err := r1.Connect(map[model.ReplicaID]string{0: r0.Addr()}); err != nil {
		t.Fatal(err)
	}
	writeN(t, r1, 10, "orig")
	if !WaitQuiesced([]*Node{r0, r1}, 30*time.Second) {
		t.Fatal("pair did not quiesce")
	}
	r1.Close() // crash, not leave: the cluster still expects this log to exist

	cfg := fastConfig(1, 2, openCausal(t))
	cfg.Join = map[model.ReplicaID]string{0: r0.Addr()}
	nd, err := NewNode(cfg)
	if err == nil {
		nd.Close()
		t.Fatal("amnesiac rejoin under a live origin was admitted")
	}
	if !strings.Contains(err.Error(), "original log") {
		t.Fatalf("want the original-log refusal, got: %v", err)
	}
}

// TestConnectOffersLiveBacklogToLateJoiner pins the late-connect contract
// for a first-boot node (nothing restored): updates recorded before the first
// Connect are part of the live backlog and must be offered to the late
// peer — offering only restored events would strand them forever.
func TestConnectOffersLiveBacklogToLateJoiner(t *testing.T) {
	r0 := bootNode(t, 0, 2, nil)
	objects := writeN(t, r0, 25, "early")

	r1 := bootNode(t, 1, 2, nil)
	if err := r0.Connect(map[model.ReplicaID]string{1: r1.Addr()}); err != nil {
		t.Fatal(err)
	}
	if err := r1.Connect(map[model.ReplicaID]string{0: r0.Addr()}); err != nil {
		t.Fatal(err)
	}
	settle(t, []*Node{r0, r1}, objects...)
	auditClean(t, 1, HistoriesOf([]*Node{r0, r1}))
}

// TestSupervisorChurnScheduleAuditsClean runs a generated schedule that
// mixes a crash window with a leave→join window on a live TCP cluster
// under load: the departed node must rejoin through the membership path
// (tJoin + anti-entropy, shard by shard), and the run must quiesce,
// converge, and audit clean on every shard.
func TestSupervisorChurnScheduleAuditsClean(t *testing.T) {
	forShards(t, func(t *testing.T, shards int) {
		st := openCausal(t)
		const n = 3
		em := fault.NewNetem(n)
		base := Config{
			Store: st, Seed: 23, Shards: shards,
			// The restarted node recovers from what its journal kept.
			Storage:        lendingStorage{&memStorage{}},
			DialTimeout:    time.Second,
			DialBackoffMin: 5 * time.Millisecond,
			DialBackoffMax: 100 * time.Millisecond,
			GossipInterval: 50 * time.Millisecond,
		}
		sup, err := NewSupervisor(base, n, em, 5*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		defer sup.Close()

		sched := fault.Generate(fault.Config{Seed: 23, N: n, Steps: 80, Partitions: 1, Crashes: 1, LinkFaults: 1, Churns: 1})
		if err := sched.CheckBalanced(); err != nil {
			t.Fatalf("generated schedule unbalanced: %v", err)
		}
		objects := shardedObjects(t, shards, 3)

		var wg sync.WaitGroup
		schedErr := make(chan error, 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			schedErr <- sup.RunSchedule(sched)
		}()
		for w := 0; w < n; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(w)))
				for i := 0; i < 60; i++ {
					obj := objects[rng.Intn(len(objects))]
					op := model.Read()
					if rng.Intn(2) == 0 {
						op = model.Write(model.Value(fmt.Sprintf("w%d.%d", w, i)))
					}
					// Downtime errors are expected while a victim is away.
					_, _ = sup.Do(w%n, obj, op)
					time.Sleep(2 * time.Millisecond)
				}
			}(w)
		}
		wg.Wait()
		if err := <-schedErr; err != nil {
			t.Fatalf("schedule: %v", err)
		}
		if leaves, joins := sup.Churn(); leaves != 1 || joins != 1 {
			t.Fatalf("leaves/joins = %d/%d, want 1/1", leaves, joins)
		}
		m := sup.Metrics()
		if m.Leaves != 1 || m.Joins != 1 {
			t.Fatalf("observer leaves/joins = %d/%d, want 1/1", m.Leaves, m.Joins)
		}

		if err := sup.Settle(30*time.Second, objects); err != nil {
			t.Fatal(err)
		}
		auditClean(t, shards, sup.Histories)
		noViolations(t, sup.Nodes()...)
	})
}

// forestDigest is what one shard of a node would tell a joiner about each
// origin: how many updates it has hashed, the root over them, and the root
// over half of them (a prefix that ends off every leaf boundary — with more
// than a leaf of updates, inside a complete one, which the forest re-hashes
// from the shard's log).
func forestDigest(t *testing.T, nd *Node, shard int) []originDigest {
	t.Helper()
	s := nd.shards[shard]
	if err := s.lock(); err != nil {
		t.Fatal(err)
	}
	defer s.turn.Unlock()
	var ds []originDigest
	for o := 0; o < nd.cfg.N; o++ {
		ds = append(ds, originDigest{Origin: model.ReplicaID(o), Count: s.tree.Count(o),
			Root: s.tree.Root(o), PrefixRoot: s.tree.PrefixRoot(o, s.tree.Count(o)/2, s.updatePayload)})
	}
	return ds
}

// TestRestartedForestMatchesLive: the shard is the forest's only owner, so
// the forest a restarted node rebuilds from its journal (restore, through
// noteUpdate) must be hash-identical to the one the previous incarnation
// grew update by update — otherwise a restarted node would refuse (or
// wrongly admit) joiners its predecessor served correctly.
func TestRestartedForestMatchesLive(t *testing.T) {
	const k = 40 // past one leaf (membership.LeafSpan) per origin
	mem := &memStorage{}
	r0 := bootNode(t, 0, 3, nil)
	r1 := bootNode(t, 1, 3, stored(mem, 1))
	if err := r0.Connect(map[model.ReplicaID]string{1: r1.Addr()}); err != nil {
		t.Fatal(err)
	}
	if err := r1.Connect(map[model.ReplicaID]string{0: r0.Addr()}); err != nil {
		t.Fatal(err)
	}
	writeN(t, r0, k, "a")
	writeN(t, r1, k, "b")
	if !WaitQuiesced([]*Node{r0, r1}, 30*time.Second) {
		t.Fatal("pair did not quiesce")
	}
	live := forestDigest(t, r1, 0)
	if live[0].Count != k || live[1].Count != k || live[2].Count != 0 {
		t.Fatalf("live forest counts %d/%d/%d, want %d/%d/0", live[0].Count, live[1].Count, live[2].Count, k, k)
	}
	r1.Close()

	r1b := bootNode(t, 1, 3, stored(mem, 1))
	if r1b.Restored() == 0 {
		t.Fatal("the second incarnation restored nothing")
	}
	for o, got := range forestDigest(t, r1b, 0) {
		if got != live[o] {
			t.Fatalf("origin %d forest diverged across the restart:\n got %+v\nwant %+v", o, got, live[o])
		}
	}
}

// pullRange joins nd as replica `as` and, with a digest of shard 0 that
// asks about origin alone and holds none of it, reads back the stream of
// origin's updates, the way a joiner does; nd must hold count of them. It
// returns every tRangeResp frame as it crossed the wire (compression
// envelope and all), in order, and the updates they held.
func pullRange(t *testing.T, nd *Node, as, origin model.ReplicaID, count uint64) (frames [][]byte, pulled []protoUpdate) {
	t.Helper()
	conn, err := net.Dial("tcp", nd.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	send := func(build func(*wire.Writer)) {
		t.Helper()
		w := wire.NewWriter()
		build(w)
		if _, err := wire.WriteFrame(conn, w.Bytes(), 0); err != nil {
			t.Fatal(err)
		}
	}
	fr := wire.NewFrameReader(conn)
	send(func(w *wire.Writer) { appendJoin(w, joinReq{From: as, Shards: uint64(len(nd.shards))}) })
	if typ, _, err := readTyped(conn, fr, 0, 0); err != nil || typ != tJoinAck {
		t.Fatalf("join answered with type %d, err %v", typ, err)
	}
	send(func(w *wire.Writer) { appendDigest(w, tDigest, 0, []originDigest{{Origin: origin}}) })
	typ, r, err := readTyped(conn, fr, 0, 0)
	if err != nil || typ != tDigestResp {
		t.Fatalf("digest answered with type %d, err %v", typ, err)
	}
	if _, ds, err := decodeDigest(r, true); err != nil || len(ds) != 1 || ds[0].Origin != origin || ds[0].Count != count {
		t.Fatalf("digest answered %+v, err %v; want r%d at %d", ds, err, origin, count)
	}
	for uint64(len(pulled)) < count {
		raw, err := fr.ReadFrame(0)
		if err != nil {
			t.Fatalf("range pull of r%d after %d updates: %v", origin, len(pulled), err)
		}
		raw = append([]byte(nil), raw...)
		frames = append(frames, raw)
		b, _, err := decompressFrame(append([]byte(nil), raw...), 0)
		if err != nil {
			t.Fatal(err)
		}
		r := wire.NewReader(b)
		if typ := r.Uvarint(); typ != tRangeResp {
			t.Fatalf("range pull answered with type %d", typ)
		}
		_, us, err := decodeBatch(r, nil)
		if err != nil || len(us) == 0 {
			t.Fatalf("range chunk: %d updates, err %v", len(us), err)
		}
		pulled = append(pulled, us...)
	}
	return frames, pulled
}

// TestRangeServedSameAfterRestart: what a donor serves a joiner is a function
// of its journal, not of whether it has restarted since it wrote it. A live
// node used to index a received update under the origin's stamp and a
// restarted one under its own receive stamp, so the same range left the same
// donor as different frames; both now read the record's stamp. The pair
// write in turns, so every receive stamp is well ahead of the send's.
func TestRangeServedSameAfterRestart(t *testing.T) {
	const k = 100 // more than one chunk (BatchMax) of each origin
	mem := &memStorage{}
	r0 := bootNode(t, 0, 3, nil)
	r1 := bootNode(t, 1, 3, stored(mem, 1))
	if err := r0.Connect(map[model.ReplicaID]string{1: r1.Addr()}); err != nil {
		t.Fatal(err)
	}
	if err := r1.Connect(map[model.ReplicaID]string{0: r0.Addr()}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < k/10; i++ {
		writeN(t, r0, 10, fmt.Sprintf("a%d", i))
		writeN(t, r1, 10, fmt.Sprintf("b%d", i))
	}
	if !WaitQuiesced([]*Node{r0, r1}, 30*time.Second) {
		t.Fatal("pair did not quiesce")
	}
	var live [2][][]byte
	for o := range live {
		live[o], _ = pullRange(t, r1, 2, model.ReplicaID(o), k)
	}
	r1.Close()

	r1b := bootNode(t, 1, 3, stored(mem, 1))
	if r1b.Restored() == 0 {
		t.Fatal("the second incarnation restored nothing")
	}
	for o, want := range live {
		got, _ := pullRange(t, r1b, 2, model.ReplicaID(o), k)
		if len(got) != len(want) || len(want) < 2 {
			t.Fatalf("origin r%d: the restarted donor served %d frames, the live one %d (want several)", o, len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("origin r%d: range frame %d differs across the donor's restart (%d B live, %d B restarted)", o, i, len(want[i]), len(got[i]))
			}
		}
	}
}

// TestLeaveRacesClose: Leave runs on its caller's goroutine, so the gossip
// loop it starts must join the node's WaitGroup before Close waits on it or
// not start at all — never wg.Add beside wg.Wait, which -race reports and
// which leaves a loop running on a node whose Close has returned.
func TestLeaveRacesClose(t *testing.T) {
	st := openCausal(t)
	for i := 0; i < 50; i++ {
		nd, err := NewNode(fastConfig(0, 3, st))
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			nd.Leave()
		}()
		nd.Close()
		wg.Wait()
	}
}

// TestGossipReplyObeysLinkCut: a gossip exchange is a round trip whose reply
// travels the reverse link. With r1→r0 cut, r0's push reaches r1 but r1's
// reply must not reach r0: the exchange fails and r0 learns nothing of r1's
// view. The accepting side used to answer unshaped, so the cut leaked.
func TestGossipReplyObeysLinkCut(t *testing.T) {
	em := fault.NewNetem(3)
	shaped := func(cfg *Config) { cfg.Faults = em }
	r0, r1 := bootNode(t, 0, 3, shaped), bootNode(t, 1, 3, shaped)
	r1.view.Merge(membership.Member{ID: 2, Addr: "127.0.0.1:1"}) // only r1 knows r2
	em.Apply(fault.Directive{Kind: fault.KindLinkCut, From: 1, To: 0}, time.Millisecond)
	if r0.exchangeGossip(1, r1.Addr()) {
		t.Fatal("a gossip round trip completed with its reply's link cut")
	}
	if _, ok := r0.view.Get(2); ok {
		t.Fatalf("r0 learned r1's view over a cut link: %+v", r0.Membership())
	}
	if _, ok := r1.view.Get(0); !ok {
		t.Fatalf("r0's push never reached r1 over the open link: %+v", r1.Membership())
	}
	em.Apply(fault.Directive{Kind: fault.KindLinkRestore, From: 1, To: 0}, time.Millisecond)
	if !r0.exchangeGossip(1, r1.Addr()) {
		t.Fatal("the gossip round trip failed after the cut was restored")
	}
	if _, ok := r0.view.Get(2); !ok {
		t.Fatalf("r0 did not learn r1's view once the link was restored: %+v", r0.Membership())
	}
}
