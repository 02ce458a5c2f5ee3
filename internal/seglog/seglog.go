// Package seglog is an append-only log held in fixed-length segments. A
// node keeps its whole history — recorded events, where each origin's
// updates are among them, the chain values over them — and an append-doubled
// slice pays for that history again at every growth: the runtime allocates
// a larger array and memmoves everything recorded so far, on the event
// loop, so the cost of one append depends on how long the node has lived. Here an append touches one
// segment, a full segment is never copied or moved again, and dropping a
// prefix of the history is dropping head segments.
//
// Log[T] holds fixed-size elements; Blocks (blocks.go) holds variable-length
// byte records — the recorded events, in their codec form — under the same
// rules.
package seglog

import "slices"

// SegmentLen is the number of elements in a full segment. It is a power of
// two: index arithmetic is a shift and a mask.
const SegmentLen = 1 << segShift

const (
	segShift = 10
	segMask  = SegmentLen - 1
	// firstCap is the first segment's initial capacity. It doubles up to
	// SegmentLen, so a node that records a handful of elements does not
	// pay for a full segment; every later segment is allocated whole.
	firstCap = 8
)

// Log is an append-only sequence of T. The zero value is an empty log. It
// is not safe for concurrent use: one goroutine owns it, as one owned the
// slice it replaces. Elements are immutable once appended.
type Log[T any] struct {
	segs [][]T // every segment but the last holds exactly SegmentLen elements
	n    int
}

// Len returns the number of elements appended.
func (l *Log[T]) Len() int { return l.n }

// Append adds v at index Len(). It allocates at most one segment and
// copies at most the (still short) first one; the segment table itself
// grows by append, one slice header per SegmentLen elements.
func (l *Log[T]) Append(v T) {
	last := len(l.segs) - 1
	if last < 0 || len(l.segs[last]) == SegmentLen {
		c := SegmentLen
		if last < 0 {
			c = firstCap
		}
		l.segs = append(l.segs, make([]T, 0, c))
		last++
	} else if s := l.segs[last]; len(s) == cap(s) {
		// Only the first segment is ever short of SegmentLen capacity.
		grown := make([]T, len(s), 2*cap(s))
		copy(grown, s)
		l.segs[last] = grown
	}
	l.segs[last] = append(l.segs[last], v)
	l.n++
}

// At returns element i (0-based). It panics when i is out of range, like a
// slice index.
func (l *Log[T]) At(i int) T {
	return l.segs[i>>segShift][i&segMask]
}

// Chunk returns the longest contiguous run of elements that starts at from
// and ends at or before to: all of [from, to) when the range lies within
// one segment, otherwise the part of it in from's segment. Iterating a
// range in order is
//
//	for i := from; i < to; {
//		c := l.Chunk(i, to)
//		…
//		i += len(c)
//	}
//
// The run aliases the log's storage and must not be written to. It stays
// valid, and unchanged, across later appends. Chunk panics unless
// 0 ≤ from ≤ to ≤ Len(); an empty range yields nil.
func (l *Log[T]) Chunk(from, to int) []T {
	if from < 0 || from > to || to > l.n {
		panic("seglog: range out of bounds")
	}
	if from == to {
		return nil
	}
	seg := l.segs[from>>segShift]
	lo := from & segMask
	hi := lo + (to - from)
	if hi > len(seg) {
		hi = len(seg)
	}
	return seg[lo:hi:hi]
}

// AppendTo appends every element, in order, to dst and returns the
// extended slice: the flat private copy a snapshot hands out.
func (l *Log[T]) AppendTo(dst []T) []T {
	dst = slices.Grow(dst, l.n)
	for _, s := range l.segs {
		dst = append(dst, s...)
	}
	return dst
}
