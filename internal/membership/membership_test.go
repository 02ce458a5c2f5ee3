package membership

import (
	"math/rand"
	"testing"
)

func TestViewMergeEpochRules(t *testing.T) {
	v := NewView()
	if !v.Merge(Member{ID: 1, Addr: ":7001", Epoch: 1}) {
		t.Fatal("first record should change the view")
	}
	// Same epoch, same state: a duplicate announcement is idempotent.
	if v.Merge(Member{ID: 1, Addr: ":7001", Epoch: 1}) {
		t.Fatal("duplicate record changed the view")
	}
	// Same epoch: left beats alive (a delayed alive dup cannot resurrect).
	if !v.Merge(Member{ID: 1, Addr: ":7001", Epoch: 1, Left: true}) {
		t.Fatal("departure at the same epoch should win")
	}
	if v.Merge(Member{ID: 1, Addr: ":7001", Epoch: 1}) {
		t.Fatal("alive dup at the same epoch resurrected a left member")
	}
	// Higher epoch: the rejoin incarnation wins over the old departure.
	if !v.Merge(Member{ID: 1, Addr: ":7009", Epoch: 2}) {
		t.Fatal("higher-epoch rejoin should win")
	}
	m, ok := v.Get(1)
	if !ok || m.Left || m.Epoch != 2 || m.Addr != ":7009" {
		t.Fatalf("after rejoin: %+v", m)
	}
	if got := len(v.Alive()); got != 1 {
		t.Fatalf("alive = %d, want 1", got)
	}
}

// TestAliveCountAndWalkMatchAlive: the count and the walk see the members
// Alive copies out, a walk stops when told to, and neither allocates.
func TestAliveCountAndWalkMatchAlive(t *testing.T) {
	v := NewView()
	v.MergeAll([]Member{{ID: 0, Epoch: 1}, {ID: 1, Epoch: 1, Left: true}, {ID: 2, Epoch: 3}, {ID: 4, Epoch: 1}})
	alive := v.Alive()
	if got := v.AliveCount(); got != len(alive) || got != 3 {
		t.Fatalf("AliveCount = %d, Alive holds %d, want 3", got, len(alive))
	}
	seen := map[int]bool{}
	v.EachAlive(func(m Member) bool { seen[m.ID] = true; return true })
	for _, m := range alive {
		if !seen[m.ID] {
			t.Errorf("EachAlive skipped r%d", m.ID)
		}
	}
	if len(seen) != len(alive) {
		t.Errorf("EachAlive yielded %d members, Alive holds %d", len(seen), len(alive))
	}
	calls := 0
	v.EachAlive(func(Member) bool { calls++; return false })
	if calls != 1 {
		t.Errorf("a walk told to stop went on: %d calls", calls)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		n := v.AliveCount()
		v.EachAlive(func(m Member) bool { n -= m.ID; return true })
	}); allocs != 0 {
		t.Errorf("counting and walking the view allocate %.0f times, want 0", allocs)
	}
}

// TestViewMergeConvergent checks the semilattice property operationally:
// merging the same records in random orders always converges to the same
// view.
func TestViewMergeConvergent(t *testing.T) {
	records := []Member{
		{ID: 0, Addr: "a", Epoch: 1},
		{ID: 0, Addr: "a", Epoch: 1, Left: true},
		{ID: 0, Addr: "b", Epoch: 2},
		{ID: 1, Addr: "c", Epoch: 5},
		{ID: 1, Addr: "d", Epoch: 4, Left: true},
		{ID: 2, Addr: "e", Epoch: 1},
	}
	want := ""
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		v := NewView()
		for _, i := range rng.Perm(len(records)) {
			v.Merge(records[i])
		}
		got := v.String()
		if trial == 0 {
			want = got
		} else if got != want {
			t.Fatalf("merge order changed the fixed point:\n got %s\nwant %s", got, want)
		}
	}
}

// buildForest hashes k deterministic updates for origin 0.
func buildForest(k int) *Forest { return buildForestExcept(k, 0) }

// buildForestExcept is buildForest with a different payload at seq odd
// (none when odd is 0).
func buildForestExcept(k, odd int) *Forest {
	f := NewForest(3)
	for i := 1; i <= k; i++ {
		if err := f.Append(0, uint64(i), payloadExcept(uint64(i), uint64(odd))); err != nil {
			panic(err)
		}
	}
	return f
}

// payloadExcept is testPayload with a different payload at seq odd.
func payloadExcept(seq, odd uint64) []byte {
	if seq == odd {
		return []byte("something else")
	}
	return testPayload(seq)
}

func TestForestPrefixAgreement(t *testing.T) {
	// Two forests sharing a prefix agree on every prefix root up to the
	// shorter one, and disagree beyond any point of divergence.
	a := buildForest(100)
	b := buildForest(70)
	for k := uint64(0); k <= 70; k++ {
		if a.PrefixRoot(0, k, testSource) != b.PrefixRoot(0, k, testSource) {
			t.Fatalf("prefix roots diverge at k=%d on identical prefixes", k)
		}
	}
	if a.PrefixRoot(0, 100, testSource) == a.PrefixRoot(0, 70, testSource) {
		t.Fatal("roots over different prefixes collide")
	}
}

func TestForestDetectsDivergence(t *testing.T) {
	a := buildForest(100)
	// b holds a different update in the middle: seq 41.
	b := buildForestExcept(100, 41)
	if a.Root(0) == b.Root(0) {
		t.Fatal("root blind to a corrupted update")
	}
	// The chain agrees up to the corrupted update and disagrees on every
	// prefix that includes it, whichever side of a stored value it ends on.
	srcB := func(_ int, seq uint64) []byte { return payloadExcept(seq, 41) }
	for k := uint64(0); k <= 100; k++ {
		if same := a.PrefixRoot(0, k, testSource) == b.PrefixRoot(0, k, srcB); same != (k < 41) {
			t.Fatalf("prefix %d: roots agree = %v, corrupted update is 41", k, same)
		}
	}
}

func TestForestAppendRejectsGaps(t *testing.T) {
	f := NewForest(2)
	if err := f.Append(0, 1, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := f.Append(0, 3, []byte("c")); err == nil {
		t.Fatal("gap in seq accepted")
	}
	if err := f.Append(5, 1, []byte("x")); err == nil {
		t.Fatal("out-of-range origin accepted")
	}
}

func TestForestCheckpointRoundTrip(t *testing.T) {
	a := buildForest(90)
	// The chain values, in order, determine the forest: one rebuilt from
	// them alone reproduces every root, and — handed the same update log to
	// re-hash from — every prefix root, so the forest is derived state and
	// nothing of it needs persisting.
	b := NewForest(3)
	for _, h := range refChain(90)[1:] {
		b.origins[0].push(h)
	}
	if a.Root(0) != b.Root(0) || a.PrefixRoot(0, 33, testSource) != b.PrefixRoot(0, 33, testSource) {
		t.Fatal("checkpoint round trip changed roots")
	}
}
