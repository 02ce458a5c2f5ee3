package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// StreamWindow is how far back a stream's back-reference may reach: a
// match may copy from any of the StreamWindow bytes before it, in the
// bodies the stream carried before or earlier in the current one.
const StreamWindow = 32 << 10

// The LZ stream codec (StreamEncoder, StreamDecoder) codes a sequence of
// bodies — one connection's frames — as one byte stream, so a body costs
// only what the last StreamWindow bytes of the stream do not already hold.
// It has no entropy stage and no knobs: a body is a sequence of tokens,
// each a uvarint and what follows it,
//
//	literal = uvarint(n<<1)            n bytes     (n ≥ 1)
//	match   = uvarint((m-4)<<1 | 1)   uvarint(d-1) (copy m ≥ 4 bytes from d back)
//
// and decodes to exactly the rawLen bytes its frame declares. Both ends
// start from the empty stream, and each keeps the last StreamWindow bytes
// of it; what the bodies are is their caller's business.
const (
	streamMinMatch = 4
	// streamHashBits sizes the encoder's full table of 4-byte sequences: 4 K
	// positions of 4 bytes, small enough to stay in a core's near cache
	// between one frame and the next. A table starts at streamMinHashBits
	// and grows with the history, a slot per 4 bytes of it, to the full size.
	streamHashBits    = 12
	streamMinHashBits = 8
	// streamMinCap is the capacity a history grows to before it slides:
	// StreamWindow of kept bytes and as many new ones — a copy of the window
	// and, at the encoder, a pass over its table, once per 32 KiB the
	// stream carries. A history starts at its first body's size and doubles
	// on the way, so a stream that carries little holds little.
	streamMinCap = 2 * StreamWindow
)

// StreamBound is the longest stream an n-byte body can code to: n and
// one literal header. Every match pays for its own token and for the
// header of the literal run it ends, so only the last literal run's
// header is not paid for.
func StreamBound(n int) int {
	return n + UvarintLen(uint64(n)<<1)
}

// UvarintLen is the length of x's uvarint: a byte per started seven bits.
func UvarintLen(x uint64) int {
	n := 1
	for ; x >= 0x80; x >>= 7 {
		n++
	}
	return n
}

// makeRoom readies hist to take n more bytes. When they do not fit its
// capacity, a history below streamMinCap moves whole to an array of twice
// its capacity (up to streamMinCap) or of the bytes it must hold, whichever
// is more; a history of streamMinCap or more keeps only its last
// StreamWindow bytes (moved to the front), and when n still does not fit,
// moves them to an array of StreamWindow + n bytes. Both ends of a stream
// call it with the same sizes, so their histories slide alike; either keeps
// every byte of the last StreamWindow the stream carried. It returns the
// new history and how many bytes slid off its front.
func makeRoom(hist []byte, n int) ([]byte, int) {
	if len(hist)+n <= cap(hist) {
		return hist, 0
	}
	shift := 0
	if cap(hist) >= streamMinCap {
		shift = max(len(hist)-StreamWindow, 0)
	}
	keep := len(hist) - shift
	if keep+n > cap(hist) {
		grown := make([]byte, keep, max(min(2*cap(hist), streamMinCap), keep+n))
		copy(grown, hist[shift:])
		return grown, shift
	}
	copy(hist, hist[shift:])
	return hist[:keep], shift
}

// StreamEncoder is the sending end of an LZ stream: it codes each body
// against the bodies before it. Its history and its table of 4-byte
// sequences are built on the first body, sized to it, and grow with what
// the stream carries to their full sizes, which every later body reuses:
// a connection's encoder allocates nothing per body once they exist (only a
// body larger than any before grows the history). The zero value is the
// empty stream. It is not safe for concurrent use.
type StreamEncoder struct {
	hist []byte
	// table maps the hash of 4 bytes to the last position they were seen
	// at, + 1 (0: none). A probe checks the history for the same bytes. Its
	// size is the encoder's alone: the decoder never sees it.
	table []uint32
	// shift is 32 less the table's bits: a hash is the top bits of a product.
	shift uint8
}

func load32(b []byte, i int) uint32 { return binary.LittleEndian.Uint32(b[i:]) }

func hash4(u uint32, shift uint8) uint32 { return (u * 0x1e35a7bd) >> shift }

// growTable sizes the table to the history's capacity: a slot per 4 bytes
// of it, from 1<<streamMinHashBits to 1<<streamHashBits slots. A grown
// table keeps every position the old one held: a slot's hash is the top
// bits of the same product, so each old slot moves to one new one.
func (e *StreamEncoder) growTable() {
	bits := streamMinHashBits
	for bits < streamHashBits && 4<<bits < cap(e.hist) {
		bits++
	}
	if len(e.table) >= 1<<bits {
		return
	}
	old := e.table
	e.table, e.shift = make([]uint32, 1<<bits), uint8(32-bits)
	for _, v := range old {
		if v > 0 && int(v)-1+streamMinMatch <= len(e.hist) {
			e.table[hash4(load32(e.hist, int(v)-1), e.shift)] = v
		}
	}
}

// Encode appends the tokens of body to w: body follows everything the
// stream carried before, and a decoder that decoded those bodies decodes
// it back from the appended bytes and len(body). At most StreamBound(len(
// body)) bytes are appended. body must not alias w's buffer.
func (e *StreamEncoder) Encode(w *Writer, body []byte) {
	var shift int
	e.hist, shift = makeRoom(e.hist, len(body))
	if shift > 0 {
		// Positions move down by shift; one that slid off becomes 0, none.
		for i, v := range e.table {
			e.table[i] = v - min(v, uint32(shift))
		}
	}
	e.growTable()
	start := len(e.hist)
	e.hist = append(e.hist, body...)
	h := e.hist
	end := len(h)

	lit := start // the first byte no token has covered yet
	s := start
	// The step between probes starts at two bytes (a match found a byte
	// late extends backward) and grows by one every 32 misses, as Snappy's
	// does, so bytes that repeat nothing cost ever fewer probes.
	skip := 64
	for s+streamMinMatch <= end {
		cur := load32(h, s)
		slot := &e.table[hash4(cur, e.shift)]
		cand := int(*slot) - 1
		*slot = uint32(s + 1)
		if cand < 0 || s-cand > StreamWindow || load32(h, cand) != cur {
			step := skip >> 5
			skip += step
			s += step
			continue
		}
		// Extend the match forward, then backward over bytes that would
		// otherwise go out as literals.
		probe := s
		m := streamMinMatch + matchLen(h[cand+streamMinMatch:], h[s+streamMinMatch:])
		for s > lit && cand > 0 && h[s-1] == h[cand-1] {
			s, cand, m = s-1, cand-1, m+1
		}
		// A match pays for its own token and for the header of the literal
		// run it ends; one that cannot is left to that run.
		dist := s - cand
		cost := UvarintLen(uint64(m-streamMinMatch)<<1|1) + UvarintLen(uint64(dist-1))
		if n := s - lit; n > 0 {
			cost += UvarintLen(uint64(n) << 1)
		}
		if cost > m {
			s = probe + 1
			continue
		}
		if s > lit {
			w.Uvarint(uint64(s-lit) << 1)
			w.Raw(h[lit:s])
		}
		w.Uvarint(uint64(m-streamMinMatch)<<1 | 1)
		w.Uvarint(uint64(dist - 1))
		s += m
		lit = s
		skip = 64
		// The positions a match covered become later matches' candidates:
		// its first 16 (a key, a value's prefix) and its last two, so a
		// long match costs no more to index than a short one.
		for i := s - m + 1; i < s; i++ {
			if i == s-m+16 {
				i = max(i, s-2)
			}
			if i+streamMinMatch > end {
				break
			}
			e.table[hash4(load32(h, i), e.shift)] = uint32(i + 1)
		}
	}
	if end > lit {
		w.Uvarint(uint64(end-lit) << 1)
		w.Raw(h[lit:end])
	}
}

// matchLen is how many bytes a and b (the shorter) agree on from the
// first, compared eight at a time.
func matchLen(a, b []byte) int {
	n := 0
	for len(b)-n >= 8 {
		if x := binary.LittleEndian.Uint64(a[n:]) ^ binary.LittleEndian.Uint64(b[n:]); x != 0 {
			return n + bits.TrailingZeros64(x)>>3
		}
		n += 8
	}
	for n < len(b) && a[n] == b[n] {
		n++
	}
	return n
}

// StreamDecoder is the receiving end of an LZ stream: it decodes each body
// against the bodies it decoded before. Its history is built on the first
// body and reused for every later one; it holds at most StreamWindow bytes
// and the largest body so far. The zero value is the empty stream. It is
// not safe for concurrent use.
type StreamDecoder struct {
	hist []byte
}

// ErrStream reports a stream body the decoder refuses: a token that runs
// past the body or past the declared length, reaches back past the
// history or the window, or a body that stops short of its length or
// runs past it.
var ErrStream = errors.New("wire: corrupt stream")

// Decode decodes the next body of the stream — rawLen bytes coded as src
// — and returns it. The body is a view of the decoder's history, valid
// until the next Decode: whatever must outlive it is copied first. A
// rawLen above max (DefaultMaxFrame when max <= 0) is a *FrameSizeError,
// refused before the history grows; a body that does not decode to exactly
// rawLen bytes is ErrStream. A refused body leaves the stream as it was.
func (d *StreamDecoder) Decode(src []byte, rawLen uint64, max int) ([]byte, error) {
	if max <= 0 {
		max = DefaultMaxFrame
	}
	if rawLen > uint64(max) {
		return nil, &FrameSizeError{Size: int(min(rawLen, uint64(^uint(0)>>1))), Max: max}
	}
	n := int(rawLen)
	d.hist, _ = makeRoom(d.hist, n)
	start := len(d.hist)
	out := d.hist[:start+n]
	pos := start
	for off := 0; off < len(src); {
		tok, k := binary.Uvarint(src[off:])
		if k <= 0 {
			return d.refuse(start, "a token runs past the body at offset %d", off)
		}
		off += k
		if tok&1 == 0 {
			lit := tok >> 1
			if lit == 0 || lit > uint64(len(out)-pos) || lit > uint64(len(src)-off) {
				return d.refuse(start, "a literal of %d bytes at offset %d: %d left to decode, %d left in the body", lit, off, len(out)-pos, len(src)-off)
			}
			pos += copy(out[pos:], src[off:off+int(lit)])
			off += int(lit)
			continue
		}
		dist, k := binary.Uvarint(src[off:])
		if k <= 0 {
			return d.refuse(start, "a match runs past the body at offset %d", off)
		}
		off += k
		m := tok>>1 + streamMinMatch
		if dist >= uint64(pos) || dist >= StreamWindow || m > uint64(len(out)-pos) {
			return d.refuse(start, "a match of %d bytes from %d back at offset %d: %d bytes of history, %d left to decode", m, dist+1, off, pos, len(out)-pos)
		}
		from := pos - int(dist) - 1
		if int(dist)+1 >= int(m) {
			pos += copy(out[pos:pos+int(m)], out[from:])
		} else {
			for i := 0; i < int(m); i++ { // overlapping: a byte may be one this match wrote
				out[pos+i] = out[from+i]
			}
			pos += int(m)
		}
	}
	if pos != len(out) {
		return d.refuse(start, "the body decodes to %d of its %d bytes", pos-start, n)
	}
	d.hist = out
	return out[start:], nil
}

// refuse leaves the history as it stood before the refused body.
func (d *StreamDecoder) refuse(start int, format string, args ...any) ([]byte, error) {
	d.hist = d.hist[:start]
	return nil, fmt.Errorf("%w: "+format, append([]any{ErrStream}, args...)...)
}
