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
		src, f := buildForest(k), NewForest(3)
		for i := 0; i < k; i++ {
			f.origins[0].push(src.origins[0].hashes.At(i))
		}
		return f
	}},
	{"mixed", func(k int) *Forest {
		src, f := buildForest(k), NewForest(3)
		seeded := k * 2 / 3 // off every leaf and node boundary for most k
		for i := 0; i < k; i++ {
			if i < seeded {
				f.origins[0].push(src.origins[0].hashes.At(i))
			} else if err := f.Append(0, uint64(i)+1, []byte(fmt.Sprintf("update-%d", i+1))); err != nil {
				panic(err)
			}
		}
		return f
	}},
}

// TestNodeHashMatchesReference sweeps (prefix, level, index) over forests
// several levels deep whose last leaf and right spine are incomplete —
// including nodes that do not exist and levels above the root. The small
// forest, inside the hash log's first segment, is swept at every prefix;
// the two that cross one and two segment boundaries are swept at every
// prefix within a leaf of a boundary or of the end, where a leaf read that
// straddled two segments would show.
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
		hashes := f.origins[0].hashes.AppendTo(nil)
		top := TopLevel(k)
		for prefix := uint64(0); prefix <= k; prefix++ {
			if k > seglog.SegmentLen && !near(prefix, seglog.SegmentLen, 2*seglog.SegmentLen, k) {
				continue
			}
			if got, want := f.PrefixRoot(0, prefix), refPrefixRoot(hashes, prefix); got != want {
				t.Fatalf("PrefixRoot(%d) = %x, reference %x", prefix, got, want)
			}
			for level := 0; level <= top+2; level++ {
				span := uint64(LeafSpan) << uint(level)
				for index := uint64(0); index <= k/span+1; index++ {
					got, ok := f.NodeHash(0, prefix, level, index)
					want, wantOK := refNodeHash(hashes, prefix, level, index)
					if ok != wantOK || got != want {
						t.Fatalf("NodeHash(prefix %d, level %d, index %d) = %x/%v, reference %x/%v",
							prefix, level, index, got, ok, want, wantOK)
					}
				}
			}
		}
		if _, ok := f.NodeHash(0, k+1, 0, 0); ok {
			t.Fatal("node over a prefix longer than the history exists")
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
// to 10⁵ updates and PrefixRoot at random prefixes of the finished one.
func TestRootsMatchReferenceAtRandomSizes(t *testing.T) {
	const k = 100_000
	rng := rand.New(rand.NewSource(1))
	for _, b := range forestBuilders {
		t.Run(b.name, func(t *testing.T) {
			f := b.build(k)
			hashes := f.origins[0].hashes.AppendTo(nil)
			if got, want := f.Root(0), refPrefixRoot(hashes, k); got != want {
				t.Fatalf("Root at %d = %x, reference %x", k, got, want)
			}
			for i := 0; i < 40; i++ {
				p := uint64(rng.Intn(k + 1))
				if got, want := f.PrefixRoot(0, p), refPrefixRoot(hashes, p); got != want {
					t.Fatalf("PrefixRoot(%d) = %x, reference %x", p, got, want)
				}
			}
		})
	}
	// Root as the history grows: the cache must be right at every size, not
	// only at the end — at random sizes, and on either side of the hash
	// log's first two segment boundaries, with and without a whole last leaf.
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
			if err := f.Append(0, uint64(next), []byte{byte(next), byte(next >> 8)}); err != nil {
				t.Fatal(err)
			}
		}
		if got, want := f.Root(0), refPrefixRoot(f.origins[0].hashes.AppendTo(nil), uint64(size)); got != want {
			t.Fatalf("Root while growing, at %d = %x, reference %x", size, got, want)
		}
	}
}

// TestNodeCacheFillAllocatesNothing pins the claim the in-memory workloads
// rest on: completing leaves and interior nodes costs Append no allocation
// of its own. What does allocate is the logs growing — the hash log and
// each level's node log, a segment at a time (the first by doubling) — so
// the run is placed where none of them grows: after 34 segments of hashes
// the hash log has just opened a segment the run exactly fills, and levels
// 0–6 hold 1088, 544, 272, 136, 68, 34 and 17 nodes, each with room for the
// 32, 16, 8, 4, 2, 1 and 0 the run adds. The count is read from the
// allocator: testing.AllocsPerRun rounds an allocation per leaf down to 0.
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
	if tr.hashes.Len()%seglog.SegmentLen != 0 {
		t.Fatalf("run ended at %d hashes, off the segment boundary it was placed against", tr.hashes.Len())
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
