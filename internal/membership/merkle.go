package membership

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"repro/internal/seglog"
)

// LeafSpan is how many updates apart a Forest stores an origin's chain
// values, so a prefix root re-hashes fewer than LeafSpan updates.
const LeafSpan = 32

// Hash is one SHA-256 digest.
type Hash [32]byte

// Forest holds one node's hash chain over every origin's broadcast history:
// per origin, h_0 is the zero Hash and h_k = SHA-256(h_{k−1} ‖ origin ‖ k ‖
// len ‖ payload) over its k-th update, in fixed-width big-endian fields so
// distinct histories cannot collide by concatenation tricks. Lamport stamps
// are left out: a receiver records an update under its own clock, so
// including them would make identical histories hash differently.
//
// Broadcasts form one gap-free sequence per origin, so h_k alone proves a
// k-update prefix: two nodes whose h_k agree hold, with cryptographic
// certainty, the same first k updates. The forest keeps the head h_count
// and every LeafSpan-th chain value — about one byte per update, in a
// segment log of pointer-free Hash values the collector never scans. Root
// is the head; PrefixRoot at any other k starts from the stored value at or
// below k and re-hashes the rest, fewer than LeafSpan updates, from the log
// the forest summarizes, through the Source the caller passes. The forest
// is derived state and holds no update. The zero value is unusable; use
// NewForest.
//
// The Forest is not internally locked: the cluster's event loop owns the
// writes (Append runs in the same loop turn that journals the hashed
// event) and readers go through the same loop.
type Forest struct {
	origins []originChain
}

// Source returns the payload of origin's update seq out of the update log a
// forest was built over. PrefixRoot calls it for the updates between the
// last stored chain value and the prefix it is asked about.
type Source func(origin int, seq uint64) []byte

// originChain is one origin's chain: head is h_count, and marks.At(i) is
// h_{(i+1)·LeafSpan}.
type originChain struct {
	count uint64
	head  Hash
	marks seglog.Log[Hash]
}

// NewForest returns an empty forest for an n-origin cluster.
func NewForest(n int) *Forest {
	return &Forest{origins: make([]originChain, n)}
}

// Count returns how many of origin's updates the forest has hashed.
func (f *Forest) Count(origin int) uint64 {
	if origin < 0 || origin >= len(f.origins) {
		return 0
	}
	return f.origins[origin].count
}

// link is one step of the chain: h_seq from h_{seq−1} and update seq.
func link(prev Hash, origin int, seq uint64, payload []byte) Hash {
	var b [len(Hash{}) + 24]byte
	copy(b[:], prev[:])
	binary.BigEndian.PutUint64(b[32:], uint64(origin))
	binary.BigEndian.PutUint64(b[40:], seq)
	binary.BigEndian.PutUint64(b[48:], uint64(len(payload)))
	h := sha256.New()
	h.Write(b[:])
	h.Write(payload)
	var out Hash
	h.Sum(out[:0])
	return out
}

// Append hashes origin's next update into the forest. seq must be exactly
// count+1 (broadcast sequences are gap-free cumulative counters); anything
// else is a caller bug worth failing loudly over, since a silently
// misaligned chain would "detect" divergence that is not there.
func (f *Forest) Append(origin int, seq uint64, payload []byte) error {
	if origin < 0 || origin >= len(f.origins) {
		return fmt.Errorf("membership: hash append for origin %d outside forest of %d", origin, len(f.origins))
	}
	c := &f.origins[origin]
	if want := c.count + 1; seq != want {
		return fmt.Errorf("membership: origin %d hash append at seq %d, want %d", origin, seq, want)
	}
	c.push(link(c.head, origin, seq, payload))
	return nil
}

// push makes h the head and stores it when it closes a LeafSpan.
func (c *originChain) push(h Hash) {
	c.head = h
	c.count++
	if c.count%LeafSpan == 0 {
		c.marks.Append(h)
	}
}

// PrefixRoot returns h_k, the chain value over the first k updates of
// origin: the zero Hash for k == 0, and for a k the forest cannot answer —
// past its count, or neither stored nor the head with a nil src.
func (f *Forest) PrefixRoot(origin int, k uint64, src Source) Hash {
	if origin < 0 || origin >= len(f.origins) {
		return Hash{}
	}
	c := &f.origins[origin]
	if k == c.count {
		return c.head
	}
	if k > c.count {
		return Hash{}
	}
	from := k - k%LeafSpan
	var h Hash
	if from > 0 {
		h = c.marks.At(int(from/LeafSpan) - 1)
	}
	if from == k {
		return h
	}
	if src == nil {
		return Hash{}
	}
	for seq := from + 1; seq <= k; seq++ {
		h = link(h, origin, seq, src(origin, seq))
	}
	return h
}

// Root returns the chain value over origin's full hashed history, its head.
func (f *Forest) Root(origin int) Hash {
	return f.PrefixRoot(origin, f.Count(origin), nil)
}
