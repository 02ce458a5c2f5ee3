package main

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/cli"
	"repro/internal/cluster"
	"repro/internal/model"
	"repro/internal/spec"
	"repro/internal/store"
	"repro/internal/store/storetest"
)

// TestMain doubles as the served entrypoint for the kill -9 harness: when
// re-exec'd with SERVED_RUN_MAIN=1 the test binary IS served, flags and
// all, so the harness below can SIGKILL a real process mid-run.
func TestMain(m *testing.M) {
	if os.Getenv("SERVED_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// freePort reserves a loopback port by binding and immediately releasing
// it; the momentary race is acceptable in a test harness.
func freePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// syncBuffer collects the child's output; exec's copier goroutine writes
// while the test reads, so both sides lock.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// servedProc is one child served process under harness control.
type servedProc struct {
	cmd *exec.Cmd
	out *syncBuffer
}

func spawnServedArgs(t *testing.T, args ...string) *servedProc {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "SERVED_RUN_MAIN=1")
	out := &syncBuffer{}
	cmd.Stdout = out
	cmd.Stderr = out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	return &servedProc{cmd: cmd, out: out}
}

func spawnServed(t *testing.T, addr, peers, dataDir string) *servedProc {
	t.Helper()
	return spawnServedArgs(t,
		"-store", "causal", "-id", "0", "-listen", addr,
		"-peers", peers, "-n", "3", "-data-dir", dataDir)
}

// settle walks the first half of the post-run pipeline across the process
// boundary: the child (asked through its client's Stats) and the in-process
// peers quiesce, then every replica converges on objs. The causal store ages
// no reads, so Settle needs no store.
func settle(t *testing.T, child *servedProc, c *cluster.Client, peers []*cluster.Node, objs ...model.ObjectID) {
	t.Helper()
	quiesce := func() error {
		return cluster.PollQuiesced(func() (bool, error) {
			all, _ := cluster.SweepAll(peers, func(nd *cluster.Node) (bool, error) { return nd.Quiesced(), nil })
			s, err := c.Stats()
			return all && err == nil && s.Quiesced, nil
		}, 30*time.Second)
	}
	doers := append([]cluster.Doer{c}, cluster.Doers(peers)...)
	if err := cluster.Settle(quiesce, nil, doers, objs); err != nil {
		s, _ := c.Stats()
		t.Fatalf("%v; child stats %+v\nchild output:\n%s", err, s, child.out)
	}
}

// auditClean walks the second half: every shard's histories must merge, be
// well-formed and causally consistent, as the reference judges them too.
func auditClean(t *testing.T, shards int, fetch func(shard int) ([]cluster.History, error)) {
	t.Helper()
	storetest.Audit(t, shards, fetch, spec.MVRTypes())
}

// dialReady polls the child's replication port until it accepts clients.
func dialReady(t *testing.T, addr string) *cluster.Client {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		c, err := cluster.Dial(addr, time.Second)
		if err == nil {
			if _, err := c.Stats(); err == nil {
				return c
			}
			c.Close()
		}
		if time.Now().After(deadline) {
			t.Fatalf("child on %s never became ready: %v", addr, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// reportedRestore waits up to 10 s for a restarted child to print its
// restore line. The node accepts connections before served prints it, so a
// client can be served before the line is written.
func reportedRestore(child *servedProc) bool {
	for deadline := time.Now().Add(10 * time.Second); !strings.Contains(child.out.String(), "restored"); time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			return false
		}
	}
	return true
}

// TestKill9Recovery is the tentpole's end-to-end proof: node 0 runs as a
// real served child process journaling to -data-dir, takes client writes
// while replicating with two in-process peers, and is SIGKILL'd mid-load.
// A fresh child on the same data directory must restore the journal, rejoin
// the cluster, reach quiescence, converge with the peers, and audit clean —
// which (per the ack-after-fsync ordering) also proves no event another
// node holds a receipt for was lost to the kill.
func TestKill9Recovery(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and kills child processes")
	}
	addr0 := freePort(t)
	dataDir := t.TempDir()

	// In-process peers r1 and r2.
	mkNode := func(id int) *cluster.Node {
		st, err := cli.OpenStore("causal", spec.MVRTypes(), store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		nd, err := cluster.NewNode(cluster.Config{
			ID: model.ReplicaID(id), N: 3, Store: st, Listen: "127.0.0.1:0",
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { nd.Close() })
		return nd
	}
	r1, r2 := mkNode(1), mkNode(2)
	if err := r1.Connect(map[model.ReplicaID]string{0: addr0, 2: r2.Addr()}); err != nil {
		t.Fatal(err)
	}
	if err := r2.Connect(map[model.ReplicaID]string{0: addr0, 1: r1.Addr()}); err != nil {
		t.Fatal(err)
	}
	peerSpec := fmt.Sprintf("1=%s,2=%s", r1.Addr(), r2.Addr())

	// First incarnation: load it, then kill -9 mid-stream.
	child := spawnServed(t, addr0, peerSpec, dataDir)
	c := dialReady(t, addr0)
	acked := 0
	for i := 0; i < 30; i++ {
		if _, err := c.Do("x", model.Write(model.Value(fmt.Sprintf("pre%d", i)))); err != nil {
			t.Fatalf("write %d: %v\nchild output:\n%s", i, err, child.out)
		}
		acked++
		if _, err := r1.Do("y", model.Write(model.Value(fmt.Sprintf("peer%d", i)))); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()
	// No quiescence wait: the kill lands while replication is in flight.
	if err := child.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	child.cmd.Wait()

	// Second incarnation on the same data directory.
	child = spawnServed(t, addr0, peerSpec, dataDir)
	defer func() {
		child.cmd.Process.Signal(syscall.SIGTERM)
		child.cmd.Wait()
	}()
	c = dialReady(t, addr0)
	defer c.Close()

	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Events == 0 {
		t.Fatalf("restarted child reports no events; journal not restored\nchild output:\n%s", child.out)
	}
	if !reportedRestore(child) {
		t.Fatalf("restart did not report a restore:\n%s", child.out)
	}

	// Fresh traffic everywhere, then cluster-wide quiescence: two
	// consecutive clean polls across the child (via Stats) and both peers.
	for i := 0; i < 5; i++ {
		if _, err := c.Do("x", model.Write(model.Value(fmt.Sprintf("post%d", i)))); err != nil {
			t.Fatalf("post-restart write %d: %v\nchild output:\n%s", i, err, child.out)
		}
	}
	// Converge and audit across the process boundary.
	settle(t, child, c, []*cluster.Node{r1, r2}, "x", "y")
	h0, err := c.History()
	if err != nil {
		t.Fatal(err)
	}
	if len(h0.Events) < acked {
		t.Fatalf("recovered history has %d events, fewer than the %d acked client writes", len(h0.Events), acked)
	}
	auditClean(t, 1, cluster.HistoriesOf([]cluster.HistorySource{c, r1, r2}))
	for _, nd := range []*cluster.Node{r1, r2} {
		if v := nd.Violations(); len(v) != 0 {
			t.Fatalf("r%d property violations: %v", nd.ID(), v)
		}
	}
}

// TestKill9MidSyncJoin is the membership subsystem's end-to-end crash
// proof: a served child joins a live donor through -join with an empty
// data directory, the donor's Transport paces what it writes on accepted
// connections — its anti-entropy chunks among them — so the pull is held
// open, and the joiner is SIGKILL'd mid-pull. A fresh
// child on the same data directory must restore the partial journal (each
// chunk is journaled in the turn that applies it), re-join, pull exactly
// the still-missing suffix — verified by the donor's served-update
// accounting — converge with the donor, and audit clean.
//
// The synced history belongs to a node that wrote it and then left: a
// departed origin's updates can only arrive via anti-entropy, which pins
// the whole catch-up inside the kill window.
//
// The harness runs on 1-shard and on 4-shard nodes, whose catch-up is per
// shard: there the kill lands with some shards pulled, one partway and the
// rest untouched, and the restart pulls only what each shard's journal
// lacks.
func TestKill9MidSyncJoin(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and kills child processes")
	}
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) { testKill9MidSyncJoin(t, shards) })
	}
}

// pacedTransport is plain TCP whose accepted connections sleep the given
// time before each Write. A node writes each frame in one Write, so a donor
// on it serves a joiner's range chunks that far apart. fault.Netem cannot
// pace them: the joiner is a served child process, and Netem shapes only
// connections that a node it hosts dialed.
type pacedTransport time.Duration

func (d pacedTransport) Listen(addr string) (net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return pacedListener{ln, time.Duration(d)}, nil
}

func (pacedTransport) Dial(_, _ model.ReplicaID, addr string) (net.Conn, error) {
	return net.DialTimeout("tcp", addr, 2*time.Second)
}

type pacedListener struct {
	net.Listener
	pace time.Duration
}

func (l pacedListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return pacedConn{conn, l.pace}, nil
}

type pacedConn struct {
	net.Conn
	pace time.Duration
}

func (c pacedConn) Write(p []byte) (int, error) {
	time.Sleep(c.pace)
	return c.Conn.Write(p)
}

func testKill9MidSyncJoin(t *testing.T, shards int) {
	const writes = 30
	// Keys covering every shard, so every shard has a range to pull.
	var objs []model.ObjectID
	for covered := map[int]bool{}; len(covered) < shards; {
		obj := model.ObjectID(fmt.Sprintf("x%d", len(objs)))
		objs = append(objs, obj)
		covered[cluster.NewShardRouter(shards).Route(obj)] = true
	}

	mkNode := func(id int, mut func(*cluster.Config)) *cluster.Node {
		st, err := cli.OpenStore("causal", spec.MVRTypes(), store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		// A frame limit two of the padded updates below cannot share: batches
		// and range chunks carry one update each.
		cfg := cluster.Config{
			ID: model.ReplicaID(id), N: 3, Store: st, Listen: "127.0.0.1:0",
			Shards:   shards,
			MaxFrame: 512,
		}
		if mut != nil {
			mut(&cfg)
		}
		nd, err := cluster.NewNode(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return nd
	}
	// Donor r0: pacing each write 50ms stretches the 30-chunk pull across
	// ~1.5s — a wide window for the kill.
	donor := mkNode(0, func(c *cluster.Config) {
		c.Transport = pacedTransport(50 * time.Millisecond)
	})
	defer donor.Close()

	// Origin r2 writes the history to be synced, replicates it to the
	// donor, and departs.
	r2 := mkNode(2, nil)
	if err := r2.Connect(map[model.ReplicaID]string{0: donor.Addr()}); err != nil {
		t.Fatal(err)
	}
	if err := donor.Connect(map[model.ReplicaID]string{2: r2.Addr()}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < writes; i++ {
		if _, err := r2.Do(objs[i%len(objs)], model.Write(model.Value(fmt.Sprintf("v%d.%s", i, strings.Repeat("-", 200))))); err != nil {
			t.Fatal(err)
		}
	}
	if !cluster.WaitQuiesced([]*cluster.Node{donor, r2}, 15*time.Second) {
		t.Fatal("donor never absorbed the origin's writes")
	}
	h2 := make([]cluster.History, shards)
	for s := range h2 {
		var err error
		if h2[s], err = r2.ShardHistory(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := r2.Leave(); err != nil {
		t.Fatal(err)
	}
	r2.Close()

	addr1 := freePort(t)
	dataDir := t.TempDir()
	joinArgs := []string{
		"-store", "causal", "-id", "1", "-listen", addr1, "-n", "3",
		"-join", "0=" + donor.Addr(), "-data-dir", dataDir,
		"-shards", strconv.Itoa(shards),
	}

	// First incarnation: wait until the donor has served a few chunks into
	// the pull, then kill -9. The pacing spaces the chunks far enough apart
	// that the joiner has journaled the first ones by then.
	child := spawnServedArgs(t, joinArgs...)
	deadline := time.Now().Add(10 * time.Second)
	for donor.Stats().SyncServed < 5 {
		if time.Now().After(deadline) {
			t.Fatalf("donor never started serving the pull\nchild output:\n%s", child.out)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := child.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	child.cmd.Wait()
	// Let the donor's next send hit the dead socket before snapshotting: a
	// chunk it wrote after the kill counts in served1 and must not leak
	// into the second pull's accounting.
	time.Sleep(250 * time.Millisecond)
	served1 := donor.Stats().SyncServed
	if served1 >= writes {
		t.Fatalf("kill landed after the full pull (%d of %d served); widen the donor's pacing", served1, writes)
	}

	// Second incarnation on the same data directory: it must restore a
	// non-empty, partial journal before re-joining.
	child = spawnServedArgs(t, joinArgs...)
	defer func() {
		child.cmd.Process.Signal(syscall.SIGTERM)
		child.cmd.Wait()
	}()
	restoredRe := regexp.MustCompile(`restored (\d+) events`)
	var restored int
	deadline = time.Now().Add(10 * time.Second)
	for {
		if m := restoredRe.FindStringSubmatch(child.out.String()); m != nil {
			restored, _ = strconv.Atoi(m[1])
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("restarted joiner never reported a restore:\n%s", child.out)
		}
		time.Sleep(25 * time.Millisecond)
	}
	if restored == 0 || restored >= writes {
		t.Fatalf("restored %d events, want a partial journal in (0,%d)", restored, writes)
	}

	// The re-join completes: the joiner holds every donor update, the
	// donor serves the second incarnation exactly the suffix its journal
	// lacks, and the pair converges and audits clean across the process
	// boundary.
	c := dialReady(t, addr1)
	defer c.Close()
	deadline = time.Now().Add(30 * time.Second)
	for {
		s, err := c.Stats()
		if err == nil && s.Events >= writes {
			break
		}
		if time.Now().After(deadline) {
			s, _ := c.Stats()
			t.Fatalf("joiner never caught up: stats %+v\nchild output:\n%s", s, child.out)
		}
		time.Sleep(50 * time.Millisecond)
	}
	// Exact accounting: the restarted joiner's digests name what its journal
	// holds, so the second pull serves exactly the rest. Fewer means
	// journaled updates were lost; more, that the restart re-pulled updates
	// the first incarnation already journaled.
	if pulled2 := donor.Stats().SyncServed - served1; pulled2 != int64(writes-restored) {
		t.Fatalf("second pull served %d updates, want %d (restored %d of %d; the first served %d)",
			pulled2, writes-restored, restored, writes, served1)
	}

	settle(t, child, c, []*cluster.Node{donor}, objs...)
	for _, m := range donor.Membership() {
		if m.ID == 1 && m.Left {
			t.Fatalf("donor's view still marks the joiner as left: %+v", m)
		}
		if m.ID == 2 && !m.Left {
			t.Fatalf("donor's view forgot the origin's departure: %+v", m)
		}
	}
	auditClean(t, shards, func(s int) ([]cluster.History, error) {
		hists, err := cluster.HistoriesOf([]cluster.HistorySource{donor, c})(s)
		return append(hists, h2[s]), err
	})
}

// TestKill9ShardedGroupCommit is the sharding tentpole's crash proof: a
// served child runs 4 shards, each journaling to its own data-dir/shard-NNN
// log behind the shared group-commit coordinator, and the shards are driven
// to DIFFERENT journal frontiers — a skewed synchronous phase gives shard s
// roughly (s+1)× the traffic, then concurrent per-shard writers keep
// appends (and so group-commit rounds) in flight when the SIGKILL lands. A
// fresh child on the same data directory must recover EVERY shard to at
// least its last acked write: acked ⇒ on-disk is per shard through the
// shared fsync round, so no shard's frontier may regress past an ack, no
// matter where in a round the kill hit. The restarted node then rejoins two
// sharded peers, converges, and audits clean per shard.
func TestKill9ShardedGroupCommit(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and kills child processes")
	}
	const shards = 4
	addr0 := freePort(t)
	dataDir := t.TempDir()

	mkNode := func(id int) *cluster.Node {
		st, err := cli.OpenStore("causal", spec.MVRTypes(), store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		nd, err := cluster.NewNode(cluster.Config{
			ID: model.ReplicaID(id), N: 3, Store: st, Listen: "127.0.0.1:0",
			Shards: shards,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { nd.Close() })
		return nd
	}
	r1, r2 := mkNode(1), mkNode(2)
	if err := r1.Connect(map[model.ReplicaID]string{0: addr0, 2: r2.Addr()}); err != nil {
		t.Fatal(err)
	}
	if err := r2.Connect(map[model.ReplicaID]string{0: addr0, 1: r1.Addr()}); err != nil {
		t.Fatal(err)
	}
	peerSpec := fmt.Sprintf("1=%s,2=%s", r1.Addr(), r2.Addr())
	spawn := func() *servedProc {
		return spawnServedArgs(t,
			"-store", "causal", "-id", "0", "-listen", addr0, "-peers", peerSpec,
			"-n", "3", "-data-dir", dataDir, "-shards", strconv.Itoa(shards))
	}

	// Bucket keys by shard so the load can target each frontier separately.
	router := cluster.NewShardRouter(shards)
	keys := make([][]model.ObjectID, shards)
	for i := 0; ; i++ {
		short := false
		for s := range keys {
			if len(keys[s]) < 4 {
				short = true
			}
		}
		if !short {
			break
		}
		obj := model.ObjectID(fmt.Sprintf("k%03d", i))
		keys[router.Route(obj)] = append(keys[router.Route(obj)], obj)
	}

	child := spawn()
	c := dialReady(t, addr0)

	// Phase 1 (synchronous, skewed): shard s takes (s+1)*5 acked writes, so
	// the four journals sit at visibly different frontiers before the crash.
	acked := make([]atomic.Int64, shards)
	for s := 0; s < shards; s++ {
		for i := 0; i < (s+1)*5; i++ {
			obj := keys[s][i%len(keys[s])]
			if _, err := c.Do(obj, model.Write(model.Value(fmt.Sprintf("pre%d.%d", s, i)))); err != nil {
				t.Fatalf("shard %d write %d: %v\nchild output:\n%s", s, i, err, child.out)
			}
			acked[s].Add(1)
		}
	}

	// Phase 2 (concurrent): one writer per shard on its own connection keeps
	// every shard's append stream — and the shared group-commit rounds — hot
	// while the kill lands. Only acked writes count toward the recovery bar.
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		wc, err := cluster.Dial(addr0, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(s int, wc *cluster.Client) {
			defer wg.Done()
			defer wc.Close()
			for i := 0; ; i++ {
				obj := keys[s][i%len(keys[s])]
				if _, err := wc.Do(obj, model.Write(model.Value(fmt.Sprintf("mid%d.%d", s, i)))); err != nil {
					return // the kill landed
				}
				acked[s].Add(1)
			}
		}(s, wc)
	}
	time.Sleep(200 * time.Millisecond)
	if err := child.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	child.cmd.Wait()
	wg.Wait()
	c.Close()

	// Second incarnation: every shard must hold at least its acked writes.
	child = spawn()
	defer func() {
		child.cmd.Process.Signal(syscall.SIGTERM)
		child.cmd.Wait()
	}()
	c = dialReady(t, addr0)
	defer c.Close()
	if !reportedRestore(child) {
		t.Fatalf("restart did not report a restore:\n%s", child.out)
	}
	var frontiers []int
	for s := 0; s < shards; s++ {
		h, err := c.ShardHistory(s)
		if err != nil {
			t.Fatalf("shard %d history: %v", s, err)
		}
		if h.Shard != s || h.Shards != shards {
			t.Fatalf("shard %d history tagged (%d of %d)", s, h.Shard, h.Shards)
		}
		dos := 0
		for _, ev := range h.Events {
			if ev.Kind == model.ActDo {
				dos++
			}
		}
		if int64(dos) < acked[s].Load() {
			t.Fatalf("shard %d recovered %d do events, fewer than its %d acked writes\nchild output:\n%s",
				s, dos, acked[s].Load(), child.out)
		}
		frontiers = append(frontiers, dos)
	}
	// The skewed phase must actually have produced distinct frontiers, or
	// the test degenerates into the unsharded recovery check.
	distinct := make(map[int]bool)
	for _, f := range frontiers {
		distinct[f] = true
	}
	if len(distinct) < 2 {
		t.Fatalf("all shards recovered identical frontiers %v; skew failed", frontiers)
	}

	// Fresh traffic on every shard, cluster-wide quiescence, convergence,
	// and a per-shard audit across the process boundary.
	var allKeys []model.ObjectID
	for s := 0; s < shards; s++ {
		if _, err := c.Do(keys[s][0], model.Write(model.Value(fmt.Sprintf("post%d", s)))); err != nil {
			t.Fatalf("post-restart write shard %d: %v\nchild output:\n%s", s, err, child.out)
		}
		allKeys = append(allKeys, keys[s]...)
	}
	settle(t, child, c, []*cluster.Node{r1, r2}, allKeys...)
	auditClean(t, shards, cluster.HistoriesOf([]cluster.HistorySource{c, r1, r2}))
}
