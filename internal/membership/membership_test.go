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
		payload := testPayload(uint64(i))
		if i == odd {
			payload = []byte("something else")
		}
		if err := f.Append(0, uint64(i), payload); err != nil {
			panic(err)
		}
	}
	return f
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
	// b holds a different update in the middle: index 40 is seq 41.
	b := buildForestExcept(100, 41)
	if a.Root(0) == b.Root(0) {
		t.Fatal("root blind to a corrupted update")
	}
	// The walk localizes the damage: descend from the root, at each level
	// taking the first child whose hash disagrees, and land on the leaf
	// covering update 40.
	k := uint64(100)
	level, index := TopLevel(k), uint64(0)
	for level > 0 {
		next := uint64(0)
		found := false
		for c := uint64(0); c < 2; c++ {
			ha, okA := a.NodeHash(0, k, level-1, 2*index+c, nil)
			hb, okB := b.NodeHash(0, k, level-1, 2*index+c, nil)
			if okA != okB || (okA && ha != hb) {
				next = 2*index + c
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("level %d node %d differs but no child does", level, index)
		}
		level, index = level-1, next
	}
	lo, hi := index*LeafSpan, (index+1)*LeafSpan
	if 40 < lo || 40 >= hi {
		t.Fatalf("walk landed on leaf [%d,%d), corrupted update is 40", lo, hi)
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
	// The update hashes, in order, determine the forest: one rebuilt from
	// them alone reproduces every root, and — handed the same update log to
	// re-hash from — every prefix root, so the forest is derived state and
	// nothing of it needs persisting.
	b := NewForest(3)
	for _, h := range refHashes(90) {
		b.origins[0].push(h)
	}
	if a.Root(0) != b.Root(0) || a.PrefixRoot(0, 33, testSource) != b.PrefixRoot(0, 33, testSource) {
		t.Fatal("checkpoint round trip changed roots")
	}
}

func TestTopLevel(t *testing.T) {
	for _, tc := range []struct {
		k    uint64
		want int
	}{
		{0, 0}, {1, 0}, {32, 0}, {33, 1}, {64, 1}, {65, 2}, {1 << 12, 7},
	} {
		if got := TopLevel(tc.k); got != tc.want {
			t.Fatalf("TopLevel(%d) = %d, want %d", tc.k, got, tc.want)
		}
	}
}
