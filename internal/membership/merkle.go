package membership

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"repro/internal/seglog"
)

// LeafSpan is how many consecutive updates one Merkle leaf covers. Leaves
// this wide keep the tree shallow (a million-update history is a 15-level
// walk) while bounding how much a walk over-fetches: a divergent prefix is
// localized to within LeafSpan updates.
const LeafSpan = 32

// Hash is one SHA-256 digest.
type Hash [32]byte

// Forest holds one node's incremental Merkle summary of every origin's
// broadcast history: per origin, the hash of every complete tree node over
// the per-update hashes, and the per-update hashes of the one leaf that is
// still open.
//
// A node is complete once every update it covers has been appended; its
// hash never changes afterwards and does not depend on the prefix a query
// asks about. Append fills that cache as nodes complete (amortized O(1),
// no allocation beyond the cache's growth), so a root, prefix root or node
// hash costs O(log k): complete nodes are looked up and only the incomplete
// right spine is hashed. The forest is derived state: it holds no update
// and, once a leaf has closed, not even an update's hash. The one query
// that needs those — a prefix that ends inside a leaf already complete —
// re-hashes that leaf's updates, fewer than LeafSpan of them, from the log
// the forest summarizes, through the Source the caller passes. The zero
// value is unusable; use NewForest.
//
// The Forest is not internally locked: the cluster's event loop owns the
// writes (Append runs in the same loop turn that journals the hashed
// event) and readers go through the same loop.
type Forest struct {
	origins []originTree
}

// Source returns the payload of origin's update seq out of the update log a
// forest was built over. NodeHash and PrefixRoot call it only for a prefix
// that cuts through a complete leaf, for the updates of that leaf the prefix
// covers.
type Source func(origin int, seq uint64) []byte

// originTree is one origin's complete-node cache and open leaf:
// nodes[level].At(index) is the hash of node (level, index), present
// exactly when (index+1)·LeafSpan·2^level ≤ count, and open[:count%LeafSpan]
// are the hashes of the updates past the last complete leaf. The cache
// grows with the history — one node per LeafSpan/2 updates — so it sits in
// segment logs of pointer-free Hash values: appending never re-copies what
// is there, and the collector never scans it.
type originTree struct {
	count uint64
	open  [LeafSpan]Hash
	nodes []seglog.Log[Hash]
}

// NewForest returns an empty forest for an n-origin cluster.
func NewForest(n int) *Forest {
	return &Forest{origins: make([]originTree, n)}
}

// Count returns how many of origin's updates the forest has hashed.
func (f *Forest) Count(origin int) uint64 {
	if origin < 0 || origin >= len(f.origins) {
		return 0
	}
	return f.origins[origin].count
}

// HashUpdate digests one broadcast update's identity and content: origin,
// seq, and payload — exactly the fields every replica holds identically.
// Lamport stamps are deliberately excluded: a receiver records an update
// under its own local clock, so including them would make identical
// histories hash differently across nodes. The fields are
// length-delimited by construction (fixed-width encodings), so distinct
// updates cannot collide by concatenation tricks.
func HashUpdate(origin int, seq uint64, payload []byte) Hash {
	h := sha256.New()
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(origin))
	h.Write(b[:])
	binary.BigEndian.PutUint64(b[:], seq)
	h.Write(b[:])
	binary.BigEndian.PutUint64(b[:], uint64(len(payload)))
	h.Write(b[:])
	h.Write(payload)
	var out Hash
	h.Sum(out[:0])
	return out
}

// Append hashes origin's next update into the forest. seq must be exactly
// count+1 (broadcast sequences are gap-free cumulative counters); anything
// else is a caller bug worth failing loudly over, since a silently
// misaligned tree would "detect" divergence that is not there.
func (f *Forest) Append(origin int, seq uint64, payload []byte) error {
	if origin < 0 || origin >= len(f.origins) {
		return fmt.Errorf("membership: hash append for origin %d outside forest of %d", origin, len(f.origins))
	}
	if want := f.origins[origin].count + 1; seq != want {
		return fmt.Errorf("membership: origin %d hash append at seq %d, want %d", origin, seq, want)
	}
	f.origins[origin].push(HashUpdate(origin, seq, payload))
	return nil
}

// push appends one update hash and caches every node it completes: the
// leaf when a LeafSpan boundary is reached, then each ancestor whose right
// child that just finished.
func (t *originTree) push(h Hash) {
	t.open[t.count%LeafSpan] = h
	t.count++
	if t.count%LeafSpan != 0 {
		return
	}
	node := leafHash(t.open[:])
	for level := 0; ; level++ {
		if level == len(t.nodes) {
			t.nodes = append(t.nodes, seglog.Log[Hash]{})
		}
		t.nodes[level].Append(node)
		n := t.nodes[level].Len()
		if n%2 != 0 {
			return
		}
		node = interiorHash(t.nodes[level].At(n-2), node)
	}
}

// TopLevel returns the level of the root node of a tree over k updates:
// level 0 is the leaves, each covering LeafSpan updates.
func TopLevel(k uint64) int {
	leaves := (k + LeafSpan - 1) / LeafSpan
	level := 0
	for leaves > 1 {
		leaves = (leaves + 1) / 2
		level++
	}
	return level
}

// Domain-separation prefixes: leaf and interior hashes can never collide
// with each other or with raw update hashes.
const (
	leafTag     = 0x00
	interiorTag = 0x01
)

// leafHash digests up to LeafSpan consecutive update hashes. The input is
// assembled in a stack array so the call allocates nothing.
func leafHash(hashes []Hash) Hash {
	var buf [1 + LeafSpan*len(Hash{})]byte
	buf[0] = leafTag
	n := 1
	for i := range hashes {
		n += copy(buf[n:], hashes[i][:])
	}
	return sha256.Sum256(buf[:n])
}

// interiorHash digests a node's two children.
func interiorHash(left, right Hash) Hash {
	var buf [1 + 2*len(Hash{})]byte
	buf[0] = interiorTag
	copy(buf[1:], left[:])
	copy(buf[1+len(left):], right[:])
	return sha256.Sum256(buf[:])
}

// NodeHash returns the hash of node (level, index) in the Merkle tree over
// the first prefix updates of origin, and whether that node exists (covers
// at least one update). Node (level, index) covers the update range
// [index·LeafSpan·2^level, (index+1)·LeafSpan·2^level) clipped to prefix.
// An interior node with a single child takes that child's hash unchanged
// (the "lifted" convention), so the root over k updates is insensitive to
// how the incomplete right spine is padded. src is read only when prefix
// ends inside a leaf that has since completed (see Forest); with a nil src
// such a node is reported absent.
func (f *Forest) NodeHash(origin int, prefix uint64, level int, index uint64, src Source) (Hash, bool) {
	if origin < 0 || origin >= len(f.origins) {
		return Hash{}, false
	}
	t := &f.origins[origin]
	if prefix > t.count || prefix == 0 || level < 0 {
		return Hash{}, false
	}
	// Above the root every node is the lifted root (index 0) or empty, so
	// the walk starts no higher than the top level whatever a peer asks for.
	if top := TopLevel(prefix); level > top {
		if index != 0 {
			return Hash{}, false
		}
		level = top
	}
	// An index past the prefix's last node names nothing; refusing it here
	// also keeps index·span from wrapping around for a hostile index.
	if index > (prefix-1)/(uint64(LeafSpan)<<uint(level)) {
		return Hash{}, false
	}
	return t.nodeHash(origin, prefix, level, index, src)
}

// nodeHash is NodeHash for 0 < prefix ≤ t.count, 0 ≤ level ≤ TopLevel(prefix)
// and index·span within the range of uint64.
func (t *originTree) nodeHash(origin int, prefix uint64, level int, index uint64, src Source) (Hash, bool) {
	span := uint64(LeafSpan) << uint(level)
	start := index * span
	if start >= prefix {
		return Hash{}, false
	}
	// A cached node is complete over the whole history; it is this prefix's
	// node too when the prefix covers all of it.
	if level < len(t.nodes) && index < uint64(t.nodes[level].Len()) && start+span <= prefix {
		return t.nodes[level].At(int(index)), true
	}
	if level == 0 {
		// The prefix ends inside this leaf: prefix < start+LeafSpan.
		if start == t.count-t.count%LeafSpan {
			return leafHash(t.open[:prefix-start]), true
		}
		// The leaf completed after the prefix the question is about, and its
		// update hashes went with it: hash the covered updates again.
		if src == nil {
			return Hash{}, false
		}
		var cut [LeafSpan]Hash
		for seq := start + 1; seq <= prefix; seq++ {
			cut[seq-start-1] = HashUpdate(origin, seq, src(origin, seq))
		}
		return leafHash(cut[:prefix-start]), true
	}
	left, okL := t.nodeHash(origin, prefix, level-1, 2*index, src)
	right, okR := t.nodeHash(origin, prefix, level-1, 2*index+1, src)
	if !okL {
		return Hash{}, false
	}
	if !okR {
		return left, true
	}
	return interiorHash(left, right), true
}

// PrefixRoot returns the Merkle root over the first k updates of origin
// (the zero Hash for k == 0). Two nodes whose roots over the same k agree
// hold, with cryptographic certainty, the same k-update prefix — which is
// what lets anti-entropy ship only the range beyond k. src is as for
// NodeHash.
func (f *Forest) PrefixRoot(origin int, k uint64, src Source) Hash {
	h, _ := f.NodeHash(origin, k, TopLevel(k), 0, src)
	return h
}

// Root returns the Merkle root over origin's full hashed history. It needs
// no source: every complete leaf is wholly inside the prefix.
func (f *Forest) Root(origin int) Hash {
	return f.PrefixRoot(origin, f.Count(origin), nil)
}
