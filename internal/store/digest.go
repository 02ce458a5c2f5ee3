package store

import (
	"bytes"
	"slices"
)

// SortedList renders what fmt prints for a sort.Strings-ordered []string
// under %v — "[a b c]" — without building the strings: elements are
// appended into one scratch buffer, ordered bytewise, and copied out. A
// replica keeps one as a field so its digest renderer reuses the scratch
// across renders; the zero value is ready to use.
type SortedList struct {
	buf  []byte
	segs []segment
}

type segment struct{ start, end int }

// Reset empties the list, keeping its buffers.
func (l *SortedList) Reset() {
	l.buf = l.buf[:0]
	l.segs = l.segs[:0]
}

// Open returns the scratch buffer to append the next element to; hand the
// grown buffer back to Close.
func (l *SortedList) Open() []byte { return l.buf }

// Close records buf's bytes past the previous element as one element.
func (l *SortedList) Close(buf []byte) {
	l.segs = append(l.segs, segment{len(l.buf), len(buf)})
	l.buf = buf
}

// AppendTo sorts the elements and appends them to dst as "[e1 e2 ...]".
func (l *SortedList) AppendTo(dst []byte) []byte {
	slices.SortFunc(l.segs, func(a, b segment) int {
		return bytes.Compare(l.buf[a.start:a.end], l.buf[b.start:b.end])
	})
	dst = append(dst, '[')
	for i, s := range l.segs {
		if i > 0 {
			dst = append(dst, ' ')
		}
		dst = append(dst, l.buf[s.start:s.end]...)
	}
	return append(dst, ']')
}
