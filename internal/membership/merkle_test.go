package membership

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"testing"
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

// forestBuilders are the three ways a forest comes to hold k updates:
// hashing payloads, reloading checkpointed hashes, and the recovery shape —
// a checkpointed prefix extended with payloads.
var forestBuilders = []struct {
	name  string
	build func(k int) *Forest
}{
	{"Append", buildForest},
	{"AppendHash", func(k int) *Forest {
		src, f := buildForest(k), NewForest(3)
		for i := uint64(0); i < uint64(k); i++ {
			if err := f.AppendHash(0, src.UpdateHash(0, i)); err != nil {
				panic(err)
			}
		}
		return f
	}},
	{"mixed", func(k int) *Forest {
		src, f := buildForest(k), NewForest(3)
		seeded := k * 2 / 3 // off every leaf and node boundary for most k
		for i := 0; i < k; i++ {
			var err error
			if i < seeded {
				err = f.AppendHash(0, src.UpdateHash(0, uint64(i)))
			} else {
				err = f.Append(0, uint64(i)+1, []byte(fmt.Sprintf("update-%d", i+1)))
			}
			if err != nil {
				panic(err)
			}
		}
		return f
	}},
}

// TestNodeHashMatchesReference sweeps every (prefix, level, index) of a
// small forest — several levels deep, its last leaf and right spine
// incomplete — including nodes that do not exist and levels above the root.
func TestNodeHashMatchesReference(t *testing.T) {
	const k = 6*LeafSpan*4 + 5
	for _, b := range forestBuilders {
		t.Run(b.name, func(t *testing.T) {
			f := b.build(k)
			hashes := f.origins[0].hashes
			top := TopLevel(k)
			for prefix := uint64(0); prefix <= k; prefix++ {
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
			hashes := f.origins[0].hashes
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
	// only at the end.
	f := NewForest(1)
	next := 1
	for size := 1; size <= k; size += 1 + rng.Intn(9000) {
		for ; next <= size; next++ {
			if err := f.Append(0, uint64(next), []byte{byte(next), byte(next >> 8)}); err != nil {
				t.Fatal(err)
			}
		}
		if got, want := f.Root(0), refPrefixRoot(f.origins[0].hashes, uint64(size)); got != want {
			t.Fatalf("Root while growing, at %d = %x, reference %x", size, got, want)
		}
	}
}

// TestNodeCacheFillAllocatesNothing pins the claim the in-memory workloads
// rest on: completing leaves and interior nodes costs Append no allocation
// of its own (slice growth aside, which the preallocated forest here rules
// out).
func TestNodeCacheFillAllocatesNothing(t *testing.T) {
	const k = 4 * LeafSpan * 8
	var tr originTree
	tr.hashes = make([]Hash, 0, 2*k)
	for level := 0; level < 8; level++ {
		tr.nodes = append(tr.nodes, make([]Hash, 0, k))
	}
	var h Hash
	if avg := testing.AllocsPerRun(k, func() {
		h[0]++
		tr.push(h)
	}); avg != 0 {
		t.Fatalf("push allocates %.2f times per update", avg)
	}
	if len(tr.nodes[2]) == 0 {
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
				if err := f.AppendHash(0, h); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rootSink = f.Root(0)
			}
		})
	}
}
