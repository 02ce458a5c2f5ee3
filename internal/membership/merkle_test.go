package membership

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/seglog"
)

// refNodeHash is the recursive NodeHash the forest had before it cached
// complete nodes: every node is recomputed from the update hashes, streaming
// through sha256.New. It is the reference the cached forest must match byte
// for byte — digests, prefix proofs and tree walks cross the wire between
// nodes that may run either.
func refNodeHash(hashes []Hash, prefix uint64, level int, index uint64) (Hash, bool) {
	if prefix > uint64(len(hashes)) {
		return Hash{}, false
	}
	span := uint64(LeafSpan) << uint(level)
	start := index * span
	if start >= prefix || level < 0 {
		return Hash{}, false
	}
	if level == 0 {
		end := start + LeafSpan
		if end > prefix {
			end = prefix
		}
		h := sha256.New()
		h.Write([]byte{0x00})
		for i := start; i < end; i++ {
			h.Write(hashes[i][:])
		}
		var out Hash
		h.Sum(out[:0])
		return out, true
	}
	left, okL := refNodeHash(hashes, prefix, level-1, 2*index)
	right, okR := refNodeHash(hashes, prefix, level-1, 2*index+1)
	if !okL {
		return Hash{}, false
	}
	if !okR {
		return left, true
	}
	h := sha256.New()
	h.Write([]byte{0x01})
	h.Write(left[:])
	h.Write(right[:])
	var out Hash
	h.Sum(out[:0])
	return out, true
}

func refPrefixRoot(hashes []Hash, k uint64) Hash {
	if k == 0 {
		return Hash{}
	}
	h, _ := refNodeHash(hashes, k, TopLevel(k), 0)
	return h
}

// testPayload is update seq of the deterministic history every forest in
// these tests is built over (membership_test.go's buildForest), and
// testSource serves it back as the update log would: the re-hash path's
// Source.
func testPayload(seq uint64) []byte { return []byte(fmt.Sprintf("update-%d", seq)) }

func testSource(_ int, seq uint64) []byte { return testPayload(seq) }

// refHashes is the full list of update hashes the reference tree is computed
// over — what a forest held, one per update, before it kept the open leaf's
// only.
func refHashes(k int) []Hash {
	hashes := make([]Hash, k)
	for i := range hashes {
		hashes[i] = HashUpdate(0, uint64(i+1), testPayload(uint64(i+1)))
	}
	return hashes
}

// forestBuilders are three ways a forest comes to hold k updates: hashing
// payloads (Append, all the cluster does), pushing update hashes computed
// elsewhere straight into the origin's tree, and a pushed prefix extended
// with payloads — the node cache must fill the same way under each.
var forestBuilders = []struct {
	name  string
	build func(k int) *Forest
}{
	{"Append", buildForest},
	{"AppendHash", func(k int) *Forest {
		f := NewForest(3)
		for _, h := range refHashes(k) {
			f.origins[0].push(h)
		}
		return f
	}},
	{"mixed", func(k int) *Forest {
		f := NewForest(3)
		seeded := k * 2 / 3 // off every leaf and node boundary for most k
		for i, h := range refHashes(k) {
			if i < seeded {
				f.origins[0].push(h)
			} else if err := f.Append(0, uint64(i)+1, testPayload(uint64(i)+1)); err != nil {
				panic(err)
			}
		}
		return f
	}},
}

// TestNodeHashMatchesReference compares the forest with the reference tree
// over the full list of update hashes — which the forest no longer holds:
// past the open leaf it has the complete-node cache and, for a prefix that
// ends strictly inside a complete leaf, the re-hash through its Source. The
// forests are several levels deep with an incomplete last leaf and right
// spine; two of them cross one and two seglog.SegmentLen boundaries. Every
// prefix is checked: its root, and at every level the node the prefix cuts
// through and both its neighbours (complete on the left, absent on the
// right). The small forest, and every prefix within a leaf of a segment
// boundary or of the end of the larger ones, is swept in full — every
// (level, index), nodes that do not exist and levels above the root
// included.
func TestNodeHashMatchesReference(t *testing.T) {
	near := func(p uint64, marks ...uint64) bool {
		for _, m := range marks {
			if p+LeafSpan+1 >= m && p <= m+LeafSpan+1 {
				return true
			}
		}
		return false
	}
	sizes := []uint64{6*LeafSpan*4 + 5, seglog.SegmentLen + LeafSpan + 5, 2*seglog.SegmentLen + 3*LeafSpan + 7}
	sweep := func(t *testing.T, f *Forest, k uint64) {
		hashes := refHashes(int(k))
		top := TopLevel(k)
		check := func(prefix uint64, level int, index uint64) {
			got, ok := f.NodeHash(0, prefix, level, index, testSource)
			want, wantOK := refNodeHash(hashes, prefix, level, index)
			if ok != wantOK || got != want {
				t.Fatalf("NodeHash(prefix %d, level %d, index %d) = %x/%v, reference %x/%v",
					prefix, level, index, got, ok, want, wantOK)
			}
		}
		for prefix := uint64(0); prefix <= k; prefix++ {
			if got, want := f.PrefixRoot(0, prefix, testSource), refPrefixRoot(hashes, prefix); got != want {
				t.Fatalf("PrefixRoot(%d) = %x, reference %x", prefix, got, want)
			}
			full := k <= seglog.SegmentLen || near(prefix, seglog.SegmentLen, 2*seglog.SegmentLen, k)
			for level := 0; level <= top+2; level++ {
				span := uint64(LeafSpan) << uint(level)
				if full {
					for index := uint64(0); index <= k/span+1; index++ {
						check(prefix, level, index)
					}
					continue
				}
				cut := (max(prefix, 1) - 1) / span
				for index := max(cut, 1) - 1; index <= cut+1; index++ {
					check(prefix, level, index)
				}
			}
		}
		if _, ok := f.NodeHash(0, k+1, 0, 0, testSource); ok {
			t.Fatal("node over a prefix longer than the history exists")
		}
		// Without a source the forest answers what it holds and reports the
		// rest absent: a prefix inside the first leaf, long since complete.
		if _, ok := f.NodeHash(0, LeafSpan/2, 0, 0, nil); ok {
			t.Fatal("a prefix cutting a complete leaf was answered without a source")
		}
		// An index whose update range would wrap around uint64 names no node.
		for _, index := range []uint64{1 << 59, 1<<64 - 1} {
			if _, ok := f.NodeHash(0, k, 0, index, testSource); ok {
				t.Fatalf("node (0, %d) exists in a tree over %d updates", index, k)
			}
		}
	}
	for _, b := range forestBuilders {
		t.Run(b.name, func(t *testing.T) {
			for _, k := range sizes {
				t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) { sweep(t, b.build(int(k)), k) })
			}
		})
	}
}

// TestRootsMatchReferenceAtRandomSizes checks Root while the forest grows
// to 10⁵ updates and PrefixRoot at random prefixes of the finished one —
// all but one in 32 of which end inside a complete leaf, at every depth of
// the node cache and across its segment boundaries.
func TestRootsMatchReferenceAtRandomSizes(t *testing.T) {
	const k = 100_000
	rng := rand.New(rand.NewSource(1))
	hashes := refHashes(k)
	for _, b := range forestBuilders {
		t.Run(b.name, func(t *testing.T) {
			f := b.build(k)
			if got, want := f.Root(0), refPrefixRoot(hashes, k); got != want {
				t.Fatalf("Root at %d = %x, reference %x", k, got, want)
			}
			for i := 0; i < 40; i++ {
				p := uint64(rng.Intn(k + 1))
				if got, want := f.PrefixRoot(0, p, testSource), refPrefixRoot(hashes, p); got != want {
					t.Fatalf("PrefixRoot(%d) = %x, reference %x", p, got, want)
				}
			}
		})
	}
	// Root as the history grows: the cache must be right at every size, not
	// only at the end — at random sizes, and on either side of the node
	// cache's first two segment boundaries in updates, with and without a
	// whole last leaf.
	const seg = seglog.SegmentLen
	sizes := []int{seg - 1, seg, seg + 1, seg + LeafSpan + 3, 2*seg - LeafSpan, 2*seg - 1, 2 * seg, 2*seg + 1, 2*seg + 2*LeafSpan + 9}
	for size := 1; size <= k; size += 1 + rng.Intn(9000) {
		sizes = append(sizes, size)
	}
	slices.Sort(sizes)
	f := NewForest(1)
	next := 1
	for _, size := range sizes {
		for ; next <= size; next++ {
			if err := f.Append(0, uint64(next), testPayload(uint64(next))); err != nil {
				t.Fatal(err)
			}
		}
		if got, want := f.Root(0), refPrefixRoot(hashes[:size], uint64(size)); got != want {
			t.Fatalf("Root while growing, at %d = %x, reference %x", size, got, want)
		}
	}
}

// FuzzForestPrefix grows a forest to a random length and asks it for a
// random node of the tree over a random prefix — the question a joiner's
// tree walk puts to a donor, in a frame the donor does not get to vet. For a
// node of the tree the answer is the reference tree's over the full hash
// list. Around the tree the answers are fixed: no node over a prefix longer
// than the history, below level 0, or at an index past the prefix's last
// node (one whose update range would wrap uint64 included); above the root,
// the root lifted at index 0 and nothing elsewhere.
func FuzzForestPrefix(f *testing.F) {
	f.Add(uint16(100), uint64(70), 1, uint64(0))
	f.Add(uint16(100), uint64(33), 0, uint64(1))                                    // inside a complete leaf
	f.Add(uint16(seglog.SegmentLen+40), uint64(seglog.SegmentLen-3), 0, uint64(31)) // … at a segment boundary
	f.Add(uint16(2100), uint64(2077), 3, uint64(8))
	f.Add(uint16(64), uint64(64), 40, uint64(0))      // far above the root
	f.Add(uint16(64), uint64(65), 0, uint64(0))       // past the history
	f.Add(uint16(700), uint64(650), 0, uint64(1)<<59) // index·span wraps to 0
	f.Add(uint16(700), uint64(650), -1, uint64(0))
	f.Add(uint16(0), uint64(0), 0, uint64(0))
	f.Fuzz(func(t *testing.T, grow uint16, prefix uint64, level int, index uint64) {
		k := uint64(grow % 2500)
		forest, hashes := buildForest(int(k)), refHashes(int(k))
		got, ok := forest.NodeHash(0, prefix, level, index, testSource)
		var want Hash
		wantOK := false
		if top := TopLevel(prefix); prefix > 0 && prefix <= k && level >= 0 {
			if level > top && index == 0 {
				want, wantOK = refNodeHash(hashes, prefix, top, 0)
			} else if level <= top && index <= (prefix-1)/(LeafSpan<<uint(level)) {
				want, wantOK = refNodeHash(hashes, prefix, level, index)
			}
		}
		if ok != wantOK || got != want {
			t.Fatalf("forest of %d: NodeHash(prefix %d, level %d, index %d) = %x/%v, reference %x/%v",
				k, prefix, level, index, got, ok, want, wantOK)
		}
		if level == TopLevel(prefix) && index == 0 {
			if root := forest.PrefixRoot(0, prefix, testSource); root != want {
				t.Fatalf("forest of %d: PrefixRoot(%d) = %x, reference %x", k, prefix, root, want)
			}
		}
	})
}

// TestNodeCacheFillAllocatesNothing pins the claim the in-memory workloads
// rest on: hashing an update into the open leaf, and completing leaves and
// interior nodes, costs Append no allocation of its own. What does allocate
// is the node cache growing — each level's log, a segment at a time (the
// first by doubling) — so the run is placed where none grows: after 34
// segments' worth of updates levels 0–6 hold 1088, 544, 272, 136, 68, 34
// and 17 nodes, each with room for the 32, 16, 8, 4, 2, 1 and 0 the run
// adds. The count is read from the allocator: testing.AllocsPerRun rounds
// an allocation per leaf down to 0.
func TestNodeCacheFillAllocatesNothing(t *testing.T) {
	var tr originTree
	var h Hash
	for i := 0; i < 34*seglog.SegmentLen+1; i++ {
		h[1]++
		tr.push(h)
	}
	completed := tr.nodes[2].Len()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 1; i < seglog.SegmentLen; i++ {
		h[0]++
		tr.push(h)
	}
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Fatalf("%d pushes inside one segment allocated %d times", seglog.SegmentLen-1, n)
	}
	if tr.count != 35*seglog.SegmentLen {
		t.Fatalf("run ended at %d updates, not the %d it was placed against", tr.count, 35*seglog.SegmentLen)
	}
	if tr.nodes[2].Len() == completed {
		t.Fatal("no interior node completed; the run did not exercise the cache fill")
	}
}

var rootSink Hash

// BenchmarkForestRoot is the digest a joiner asks for: it must grow no
// faster than log k.
//
//	go test ./internal/membership -run '^$' -bench ForestRoot -benchmem
func BenchmarkForestRoot(b *testing.B) {
	for _, k := range []int{1 << 10, 1 << 15, 1 << 20} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			f := NewForest(1)
			var h Hash
			for i := 0; i < k-7; i++ { // off a leaf boundary: the spine is incomplete
				h[i%32]++
				f.origins[0].push(h)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rootSink = f.Root(0)
			}
		})
	}
}

// BenchmarkForestNodeHashMidLeaf is the one query that reads the update log:
// a prefix that ends one update short of a leaf long since complete, so the
// leaf's other LeafSpan-1 updates are hashed again through the Source — about
// 31 HashUpdate calls and a leaf hash, whatever the history's length. It runs
// on the shard loop, once per level of a joiner's digest walk.
//
//	go test ./internal/membership -run '^$' -bench ForestNodeHashMidLeaf -benchmem
func BenchmarkForestNodeHashMidLeaf(b *testing.B) {
	for _, k := range []int{1 << 10, 1 << 15} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			f := buildForest(k)
			payload := testPayload(1)
			src := func(int, uint64) []byte { return payload }
			prefix := uint64(k/2 + LeafSpan - 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rootSink, _ = f.NodeHash(0, prefix, 0, prefix/LeafSpan, src)
			}
		})
	}
}
