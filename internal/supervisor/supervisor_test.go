package supervisor

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/consistency"
	"repro/internal/fault"
	"repro/internal/membership"
	"repro/internal/model"
	"repro/internal/spec"
	"repro/internal/store"
	"repro/internal/wire"

	_ "repro/internal/store/causal"
)

func openCausal(t testing.TB) store.Store {
	t.Helper()
	st, err := store.Open("causal", spec.MVRTypes(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// shardedObjects returns at least atLeast object keys that together cover
// every shard of a node with the given shard count.
func shardedObjects(t *testing.T, shards, atLeast int) []model.ObjectID {
	t.Helper()
	r := cluster.NewShardRouter(shards)
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

// auditClean requires every shard's histories to merge, be well-formed and
// causally consistent, with each shard's causal verdict agreeing with the
// reference: BuildAudit + CheckCausal over the same histories.
func auditClean(t *testing.T, shards int, fetch func(shard int) ([]cluster.History, error)) []cluster.ShardAudit {
	t.Helper()
	fetched := make([][]cluster.History, shards)
	audits, err := cluster.AuditShards(shards, func(s int) ([]cluster.History, error) {
		h, err := fetch(s)
		fetched[s] = h
		return h, err
	}, spec.MVRTypes())
	if err != nil {
		t.Fatal(err)
	}
	for s, a := range audits {
		ref, err := cluster.BuildAudit(fetched[s])
		if err != nil {
			t.Fatal(err)
		}
		if reference := consistency.CheckCausal(ref.Abstract, spec.MVRTypes()); (a.Causal == nil) != (reference == nil) {
			t.Fatalf("shard %d: the audit says %v, the reference %v", s, a.Causal, reference)
		}
		if err := a.Err(); err != nil {
			t.Fatalf("shard %d: %v", s, err)
		}
	}
	return audits
}

// forShards runs test once unsharded and once at four shards.
func forShards(t *testing.T, test func(t *testing.T, shards int)) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) { test(t, shards) })
	}
}

// noViolations fails the test on any §4 violation the nodes' checkers saw.
func noViolations(t *testing.T, nodes ...*cluster.Node) {
	t.Helper()
	for _, nd := range nodes {
		if v := nd.Violations(); len(v) != 0 {
			t.Fatalf("r%d property violations: %v", nd.ID(), v)
		}
	}
}

// lendingStorage wraps a NodeStorage so that its journal is handed each do
// event's frontier in a copy the wrapper owns and scribbles over as soon as
// the call returns: the journal contract at its strictest. Hiding
// OpenJournal, it drives the storage event by event.
type lendingStorage struct{ cluster.NodeStorage }

func (s lendingStorage) Open(id model.ReplicaID, n int, storeName string, shard, shards int) (func(cluster.Event) error, *cluster.History, *membership.Forest, func() error, error) {
	journal, restore, tree, closeLog, err := s.NodeStorage.Open(id, n, storeName, shard, shards)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	lent := func(ev cluster.Event) error {
		if ev.Frontier == nil {
			return journal(ev)
		}
		ev.Frontier = slices.Clone(ev.Frontier)
		err := journal(ev)
		for i := range ev.Frontier {
			ev.Frontier[i] = math.MaxUint64
		}
		return err
	}
	return lent, restore, tree, closeLog, nil
}

// TestSupervisorScheduleAuditsClean is the cluster-side tentpole check: a
// seeded schedule with a partition, link shaping, and a crash/restart runs
// against a live 3-node TCP cluster under concurrent load, and the run
// still quiesces, converges, and audits clean — with the crash/restart path
// actually exercised.
func TestSupervisorScheduleAuditsClean(t *testing.T) {
	st, err := store.Open("causal", spec.MVRTypes(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 3
	em := fault.NewNetem(n)
	base := cluster.Config{
		Store: st, Seed: 11,
	}
	sup, err := New(base, n, em, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Close()

	sched := fault.Generate(fault.Config{Seed: 11, N: n, Steps: 80, Partitions: 1, Crashes: 1, LinkFaults: 2})
	objects := []model.ObjectID{"x", "y", "z"}

	var wg sync.WaitGroup
	schedErr := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		schedErr <- sup.RunSchedule(sched)
	}()
	const workers = 3
	for w := 0; w < workers; w++ {
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
				// Downtime errors are expected while the victim is crashed.
				_, _ = sup.Do(w%n, obj, op)
				time.Sleep(2 * time.Millisecond)
			}
		}(w)
	}
	wg.Wait()
	if err := <-schedErr; err != nil {
		t.Fatalf("schedule: %v", err)
	}
	if crashes, restarts := sup.Crashes(); crashes != 1 || restarts != 1 {
		t.Fatalf("crashes/restarts = %d/%d, want 1/1", crashes, restarts)
	}

	if err := sup.Settle(30*time.Second, objects); err != nil {
		t.Fatal(err)
	}
	auditClean(t, 1, sup.Histories)
	noViolations(t, sup.Nodes()...)
}

// TestSupervisorShardedCrashRestart is the check that the seams compose:
// sharding × crash/restart × the storage seam, with no disk. A 3-node,
// 2-shard cluster on the supervisor's in-memory storage runs a seeded
// schedule with a crash/restart under load; every shard of the victim must
// come back from its own journal, and every shard's histories must audit
// clean.
func TestSupervisorShardedCrashRestart(t *testing.T) {
	const n, shards = 3, 2
	em := fault.NewNetem(n)
	base := cluster.Config{
		Store: openCausal(t), Seed: 29, Shards: shards,
	}
	sup, err := New(base, n, em, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Close()

	sched := fault.Generate(fault.Config{Seed: 29, N: n, Steps: 80, Partitions: 1, Crashes: 1, LinkFaults: 1})
	objects := shardedObjects(t, shards, 6)

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
				// Downtime errors are expected while the victim is crashed.
				_, _ = sup.Do(w, obj, op)
				time.Sleep(2 * time.Millisecond)
			}
		}(w)
	}
	wg.Wait()
	if err := <-schedErr; err != nil {
		t.Fatalf("schedule: %v", err)
	}
	if crashes, restarts := sup.Crashes(); crashes != 1 || restarts != 1 {
		t.Fatalf("crashes/restarts = %d/%d, want 1/1", crashes, restarts)
	}

	if err := sup.Settle(30*time.Second, objects); err != nil {
		t.Fatal(err)
	}
	// The audit must cover every shard: what it read sums to what the nodes
	// recorded (Histories once returned shard 0 alone, whatever Config.Shards).
	var audited int
	for _, a := range auditClean(t, shards, sup.Histories) {
		audited += a.Events
	}
	var total cluster.Stats
	restored := int64(0)
	for _, nd := range sup.Nodes() {
		total.Add(nd.Stats())
		restored += nd.Restored()
	}
	if int64(audited) != total.Events {
		t.Fatalf("audited %d events over %d shards, the nodes recorded %d", audited, shards, total.Events)
	}
	noViolations(t, sup.Nodes()...)
	if restored == 0 {
		t.Fatal("the restarted node restored nothing: its shards' journals did not survive the crash")
	}
}

// TestSupervisorMetricsCountEveryIncarnation: the transport half of
// Supervisor.Metrics is the nodes' own counters, so it must not lose an
// incarnation's share when the incarnation stops. A reconnect counted on
// node 0 stays in the total through node 0's crash, its restart as a fresh
// node whose counters start at zero, and the supervisor's Close.
func TestSupervisorMetricsCountEveryIncarnation(t *testing.T) {
	base := cluster.Config{
		Store: openCausal(t),
	}
	sup, err := New(base, 2, fault.NewNetem(2), 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Close()
	if _, err := sup.Do(0, "x", model.Write("v")); err != nil {
		t.Fatal(err)
	}
	r0 := sup.Nodes()[0]
	for deadline := time.Now().Add(10 * time.Second); r0.Stats().Reconnects == 0; time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("no reconnect after breaking r0's connections: %+v", r0.Stats())
		}
		r0.BreakConnections()
	}
	floor := sup.Metrics().Reconnects
	if floor == 0 {
		t.Fatalf("Metrics misses the live nodes' counters: %+v", sup.Metrics())
	}
	for _, step := range []struct {
		what string
		do   func() error
	}{
		{"crash", func() error { return sup.apply(fault.Directive{Kind: fault.KindCrash, Node: 0}) }},
		{"restart", func() error { return sup.apply(fault.Directive{Kind: fault.KindRestart, Node: 0}) }},
		{"close", func() error { sup.Close(); return nil }},
	} {
		if err := step.do(); err != nil {
			t.Fatalf("%s: %v", step.what, err)
		}
		got := sup.Metrics().Reconnects
		if got < floor {
			t.Fatalf("after the %s Metrics reports %d reconnects, %d before it", step.what, got, floor)
		}
		floor = got
	}
}

// TestSupervisorOverlappingCrashWindows drives the case the single-crash
// schedule test never reaches: two victims down at once, their windows
// overlapping, leaving a single live node. The survivor must keep taking
// writes, both victims must rejoin from their captured histories, and the
// run must quiesce, converge, and audit clean — minority liveness plus
// fail-stop recovery under compound failure.
func TestSupervisorOverlappingCrashWindows(t *testing.T) {
	st, err := store.Open("causal", spec.MVRTypes(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 3
	em := fault.NewNetem(n)
	base := cluster.Config{
		Store: st, Seed: 23,
	}
	sup, err := New(base, n, em, 2*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Close()

	// Hand-built overlap: node 0 down over [4,20), node 1 over [8,26) —
	// both down together during [8,20).
	sched := fault.Schedule{
		Seed: 23, N: n, Steps: 40,
		Directives: []fault.Directive{
			{Step: 4, Kind: fault.KindCrash, Node: 0},
			{Step: 8, Kind: fault.KindCrash, Node: 1},
			{Step: 20, Kind: fault.KindRestart, Node: 0},
			{Step: 26, Kind: fault.KindRestart, Node: 1},
		},
	}
	if err := sched.CheckBalanced(); err != nil {
		t.Fatalf("schedule not balanced: %v", err)
	}
	objects := []model.ObjectID{"x", "y"}

	var wg sync.WaitGroup
	schedErr := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		schedErr <- sup.RunSchedule(sched)
	}()
	// One worker per node: the survivor's writes must all succeed, the
	// victims' workers tolerate downtime errors.
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				v := model.Value(fmt.Sprintf("w%d.%d", w, i))
				_, err := sup.Do(w, objects[i%len(objects)], model.Write(v))
				if w == 2 && err != nil {
					t.Errorf("survivor write %d: %v", i, err)
					return
				}
				time.Sleep(2 * time.Millisecond)
			}
		}(w)
	}
	wg.Wait()
	if err := <-schedErr; err != nil {
		t.Fatalf("schedule: %v", err)
	}
	if crashes, restarts := sup.Crashes(); crashes != 2 || restarts != 2 {
		t.Fatalf("crashes/restarts = %d/%d, want 2/2", crashes, restarts)
	}

	if err := sup.Settle(30*time.Second, objects); err != nil {
		t.Fatal(err)
	}
	auditClean(t, 1, sup.Histories)
}

// TestSupervisorSimultaneousCrashLosesNoAckedUpdate is the regression for
// the crash-snapshot ordering bug: the supervisor used to capture a
// victim's history while its event loop was still running, so updates
// applied (and acknowledged) between the snapshot and the actual stop were
// pruned from the sender's queue as acked yet missing from the restarted
// node's log — an unfillable sequence gap that wedged the cluster short of
// quiescence forever. Both victims crash at the same step under flood-rate
// writes to keep updates in flight inside that window; the run must still
// quiesce and converge.
func TestSupervisorSimultaneousCrashLosesNoAckedUpdate(t *testing.T) {
	st, err := store.Open("causal", spec.MVRTypes(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 3
	em := fault.NewNetem(n)
	base := cluster.Config{
		Store: st, Seed: 29,
	}
	sup, err := New(base, n, em, 2*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Close()
	sched := fault.Schedule{
		Seed: 29, N: n, Steps: 30,
		Directives: []fault.Directive{
			{Step: 2, Kind: fault.KindCrash, Node: 0},
			{Step: 2, Kind: fault.KindCrash, Node: 1},
			{Step: 16, Kind: fault.KindRestart, Node: 0},
			{Step: 16, Kind: fault.KindRestart, Node: 1},
		},
	}
	if err := sched.CheckBalanced(); err != nil {
		t.Fatalf("schedule not balanced: %v", err)
	}
	objects := []model.ObjectID{"x", "y"}

	done := make(chan struct{})
	schedErr := make(chan error, 1)
	go func() { defer close(done); schedErr <- sup.RunSchedule(sched) }()
	// Flood writes with no pacing: the bug needs an update applied at a
	// victim in the instant it crashes, so keep the pipelines full.
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 4000; i++ {
				select {
				case <-done:
					return
				default:
				}
				v := model.Value(fmt.Sprintf("w%d.%d", w, i))
				_, _ = sup.Do(w, objects[i%len(objects)], model.Write(v))
			}
		}(w)
	}
	wg.Wait()
	<-done
	if err := <-schedErr; err != nil {
		t.Fatalf("schedule: %v", err)
	}
	// A failure to quiesce here is the wedge: an update acked inside the crash
	// window was lost.
	if err := sup.Settle(30*time.Second, objects); err != nil {
		t.Fatal(err)
	}
	// The flood leaves thousands of events: merge them, but spare the cubic
	// causal check.
	hists, err := sup.Histories(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cluster.BuildAudit(hists); err != nil {
		t.Fatal(err)
	}
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
		base := cluster.Config{
			Store: st, Seed: 23, Shards: shards,
			// The restarted node recovers from what its journal kept.
			Storage: lendingStorage{&memStorage{}},
		}
		sup, err := New(base, n, em, 5*time.Millisecond)
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

// TestMemStorageRestoresShortSends: the in-memory journal keeps the records
// a node's history holds — each write's send leaving out the value its do
// record holds — and a restart decodes them, in order, back to the history
// the node recorded.
func TestMemStorageRestoresShortSends(t *testing.T) {
	sup, err := New(cluster.Config{Store: openCausal(t), Seed: 3}, 3, fault.NewNetem(3), 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Close()
	values := 0
	// The messages the writes broadcast, as a replica of the store alone
	// makes them: a reference no decoder of the node's records had a hand in.
	twin := openCausal(t).NewReplica(0, 3)
	var sent [][]byte
	for i := 0; i < 40; i++ {
		key, value := model.ObjectID(fmt.Sprintf("k%d", i%4)), model.Value(strings.Repeat(string(rune('a'+i%26)), 1+7*i))
		values += len(value)
		if _, err := sup.Do(0, key, model.Write(value)); err != nil {
			t.Fatal(err)
		}
		twin.Do(key, model.Write(value))
		sent = append(sent, slices.Clone(twin.PendingMessage()))
		twin.OnSend()
	}
	before := sup.Nodes()[0].History()
	mem := sup.base.Storage.(*memStorage)
	mem.mu.Lock()
	recs := mem.logs[[2]int{0, 0}]
	mem.mu.Unlock()
	kept, full := 0, 0
	for i, rec := range recs {
		kept += len(rec)
		var w wire.Writer
		if err := cluster.AppendEventBinary(&w, before.Events[i]); err != nil {
			t.Fatal(err)
		}
		full += w.Len()
	}
	if len(recs) != len(before.Events) || full-kept < values-3*40 {
		t.Fatalf("%d records of %d B for %d events, whose sends carry %d B of written values again in %d B",
			len(recs), kept, len(before.Events), values, full)
	}
	if err := sup.crash(0); err != nil {
		t.Fatal(err)
	}
	if err := sup.restart(0); err != nil {
		t.Fatal(err)
	}
	after := sup.Nodes()[0].History()
	if len(after.Events) < len(before.Events) {
		t.Fatalf("restored %d events, recorded %d", len(after.Events), len(before.Events))
	}
	for i, ev := range before.Events {
		if got := after.Events[i]; !reflect.DeepEqual(got, ev) {
			t.Fatalf("event %d restored as\n%#v\nrecorded\n%#v", i, got, ev)
		}
	}
	var sends [][]byte
	for _, ev := range after.Events {
		if ev.Kind == model.ActSend {
			sends = append(sends, ev.Payload)
		}
	}
	if !reflect.DeepEqual(sends, sent) {
		t.Fatalf("the restored sends carry %d messages that differ from the %d the store broadcast", len(sends), len(sent))
	}
}
