package membership

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/seglog"
)

// refChain is origin 0's chain over the first k test updates recomputed from
// scratch the way it is specified, sharing no code with the forest:
// refChain(k)[i] is h_i, one SHA-256 over h_{i−1}, the update's origin, seq
// and payload length as big-endian uint64s, and the payload, laid end to end.
// Digests and prefix proofs cross the wire between nodes, so the forest must
// match it byte for byte.
func refChain(k int) []Hash {
	chain := make([]Hash, k+1)
	for i := 1; i <= k; i++ {
		p := testPayload(uint64(i))
		b := append([]byte(nil), chain[i-1][:]...)
		b = binary.BigEndian.AppendUint64(b, 0)
		b = binary.BigEndian.AppendUint64(b, uint64(i))
		b = binary.BigEndian.AppendUint64(b, uint64(len(p)))
		chain[i] = sha256.Sum256(append(b, p...))
	}
	return chain
}

// refPrefixRoot is what PrefixRoot must answer for origin 0 of a forest over
// the updates chain covers: h_k, except the zero Hash for a k past the
// history, and, without a source, for a k that is neither a stored chain
// value nor the head.
func refPrefixRoot(chain []Hash, k uint64, src Source) Hash {
	count := uint64(len(chain) - 1)
	if k > count || (src == nil && k%LeafSpan != 0 && k != count) {
		return Hash{}
	}
	return chain[k]
}

// testPayload is update seq of the deterministic history every forest in
// these tests is built over (membership_test.go's buildForest), and
// testSource serves it back as the update log would: the re-hash path's
// Source.
func testPayload(seq uint64) []byte { return []byte(fmt.Sprintf("update-%d", seq)) }

func testSource(_ int, seq uint64) []byte { return testPayload(seq) }

// forestBuilders are three ways a forest comes to hold k updates: hashing
// payloads (Append, all the cluster does), pushing chain values computed
// elsewhere straight into the origin's chain, and a pushed prefix extended
// with payloads — the stored chain values must fill the same way under each.
var forestBuilders = []struct {
	name  string
	build func(k int) *Forest
}{
	{"Append", buildForest},
	{"AppendHash", func(k int) *Forest {
		f := NewForest(3)
		for _, h := range refChain(k)[1:] {
			f.origins[0].push(h)
		}
		return f
	}},
	{"mixed", func(k int) *Forest {
		f := NewForest(3)
		seeded := k * 2 / 3 // off every span boundary for most k
		for i, h := range refChain(k)[1:] {
			if i < seeded {
				f.origins[0].push(h)
			} else if err := f.Append(0, uint64(i)+1, testPayload(uint64(i)+1)); err != nil {
				panic(err)
			}
		}
		return f
	}},
}

// TestNodeHashMatchesReference compares every node of the chain — the chain
// value over every prefix, the history's own length and one past it
// included — with the reference, with and without a source. A prefix is
// answered from the stored chain value at or below it, re-hashing exactly
// the updates between the two through the Source: never LeafSpan or more.
// Other origins of the forest hold nothing, and an origin outside it has no
// chain.
func TestNodeHashMatchesReference(t *testing.T) {
	sizes := []uint64{6*LeafSpan*4 + 5, seglog.SegmentLen + LeafSpan + 5, 2*seglog.SegmentLen + 3*LeafSpan + 7}
	sweep := func(t *testing.T, f *Forest, k uint64) {
		chain := refChain(int(k))
		if got := f.Root(0); got != chain[k] {
			t.Fatalf("Root = %x, reference %x", got, chain[k])
		}
		reads := 0
		counted := func(o int, seq uint64) []byte { reads++; return testSource(o, seq) }
		for prefix := uint64(0); prefix <= k+1; prefix++ {
			reads = 0
			if got, want := f.PrefixRoot(0, prefix, counted), refPrefixRoot(chain, prefix, counted); got != want {
				t.Fatalf("PrefixRoot(%d) = %x, reference %x", prefix, got, want)
			}
			want := 0 // the head, or past the history
			if prefix < k {
				want = int(prefix % LeafSpan)
			}
			if reads != want {
				t.Fatalf("PrefixRoot(%d) read %d updates, want %d", prefix, reads, want)
			}
			if got, want := f.PrefixRoot(0, prefix, nil), refPrefixRoot(chain, prefix, nil); got != want {
				t.Fatalf("PrefixRoot(%d) without a source = %x, reference %x", prefix, got, want)
			}
		}
		for _, o := range []int{1, 2, 3, -1} {
			if f.Count(o) != 0 || f.Root(o) != (Hash{}) || f.PrefixRoot(o, 1, testSource) != (Hash{}) {
				t.Fatalf("origin %d answers for a history it does not hold", o)
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
// all but one in 32 of which fall between two stored chain values — across
// the segment boundaries of the log those values are kept in.
func TestRootsMatchReferenceAtRandomSizes(t *testing.T) {
	const k = 100_000
	rng := rand.New(rand.NewSource(1))
	chain := refChain(k)
	for _, b := range forestBuilders {
		t.Run(b.name, func(t *testing.T) {
			f := b.build(k)
			if got := f.Root(0); got != chain[k] {
				t.Fatalf("Root at %d = %x, reference %x", k, got, chain[k])
			}
			for i := 0; i < 40; i++ {
				p := uint64(rng.Intn(k + 1))
				if got := f.PrefixRoot(0, p, testSource); got != chain[p] {
					t.Fatalf("PrefixRoot(%d) = %x, reference %x", p, got, chain[p])
				}
			}
		})
	}
	// Root as the history grows: the chain must be right at every size, not
	// only at the end — at random sizes, and on either side of the first two
	// segment boundaries of the stored values, in updates, with and without
	// a whole last span.
	const seg = seglog.SegmentLen * LeafSpan
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
		if got := f.Root(0); got != chain[size] {
			t.Fatalf("Root while growing, at %d = %x, reference %x", size, got, chain[size])
		}
		if p := uint64(size) - 1; f.PrefixRoot(0, p, testSource) != chain[p] {
			t.Fatalf("PrefixRoot(%d) while growing disagrees with the reference", p)
		}
	}
}

// FuzzForestPrefix grows a forest to a random length and asks it for the
// chain value over a random prefix of a random origin, with or without a
// source — the question a joiner's digest puts to a donor, in a frame the
// donor does not get to vet. The answer is the reference chain's h_prefix
// for a prefix of origin 0's history, and the zero Hash past the history,
// for an origin that holds nothing or is outside the forest, and without a
// source for a prefix that is neither stored nor the head.
func FuzzForestPrefix(f *testing.F) {
	f.Add(uint16(100), uint64(70), 0, false)
	f.Add(uint16(100), uint64(33), 0, false)                                   // one past a stored value
	f.Add(uint16(seglog.SegmentLen+40), uint64(seglog.SegmentLen-3), 0, false) // one short of a stored value
	f.Add(uint16(2100), uint64(2077), 0, true)                                 // mid-span, no source
	f.Add(uint16(64), uint64(64), 0, true)                                     // the head
	f.Add(uint16(64), uint64(65), 0, false)                                    // past the history
	f.Add(uint16(700), uint64(650), 1, false)                                  // an origin with no history
	f.Add(uint16(700), uint64(650), -1, false)                                 // outside the forest
	f.Add(uint16(0), uint64(0), 0, false)
	f.Fuzz(func(t *testing.T, grow uint16, prefix uint64, origin int, noSource bool) {
		k := int(grow % 2500)
		forest := buildForest(k)
		var src Source = testSource
		if noSource {
			src = nil
		}
		chain := refChain(k)
		if origin != 0 {
			chain = refChain(0)
		}
		got, want := forest.PrefixRoot(origin, prefix, src), refPrefixRoot(chain, prefix, src)
		if got != want {
			t.Fatalf("forest of %d: PrefixRoot(origin %d, %d, source %v) = %x, reference %x",
				k, origin, prefix, !noSource, got, want)
		}
	})
}

// TestNodeCacheFillAllocatesNothing pins the claim the in-memory workloads
// rest on: hashing an update into the chain, and storing every LeafSpan-th
// chain value, costs Append no allocation of its own. What does allocate is
// the log of stored values growing a segment at a time (the first by
// doubling), so the run is placed where none grows: from the first value of
// the second segment to the last. The count is read from the allocator:
// testing.AllocsPerRun rounds an allocation per span down to 0.
func TestNodeCacheFillAllocatesNothing(t *testing.T) {
	f := NewForest(1)
	payload := testPayload(1)
	seq := uint64(0)
	appendN := func(n int) {
		for i := 0; i < n; i++ {
			seq++
			if err := f.Append(0, seq, payload); err != nil {
				t.Fatal(err)
			}
		}
	}
	appendN((seglog.SegmentLen + 1) * LeafSpan)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	appendN((seglog.SegmentLen - 1) * LeafSpan)
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Fatalf("%d appends inside one segment allocated %d times", (seglog.SegmentLen-1)*LeafSpan, n)
	}
	if got := f.origins[0].marks.Len(); got != 2*seglog.SegmentLen {
		t.Fatalf("run stored %d chain values, not the %d it was placed against", got, 2*seglog.SegmentLen)
	}
}

var rootSink Hash

// BenchmarkForestRoot is the digest a joiner asks for: the head, whatever k.
//
//	go test ./internal/membership -run '^$' -bench ForestRoot -benchmem
func BenchmarkForestRoot(b *testing.B) {
	for _, k := range []int{1 << 10, 1 << 15, 1 << 20} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			f := NewForest(1)
			var h Hash
			for i := 0; i < k-7; i++ { // off a span boundary
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

// BenchmarkForestPrefixRootMidSpan is the one query that reads the update
// log: a prefix one update short of a stored chain value, so LeafSpan-1
// updates are hashed again through the Source, whatever the history's
// length. It runs on the shard loop, once per origin of a joiner's digest.
//
//	go test ./internal/membership -run '^$' -bench ForestPrefixRootMidSpan -benchmem
func BenchmarkForestPrefixRootMidSpan(b *testing.B) {
	for _, k := range []int{1 << 10, 1 << 15} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			f := buildForest(k)
			payload := testPayload(1)
			src := func(int, uint64) []byte { return payload }
			prefix := uint64(k/2 + LeafSpan - 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rootSink = f.PrefixRoot(0, prefix, src)
			}
		})
	}
}
