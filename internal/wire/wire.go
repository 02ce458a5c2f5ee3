// Package wire provides a compact varint-based binary codec used for every
// message payload in this repository.
//
// Message *size* is a first-class measured quantity here: Theorem 12 lower
// bounds the number of bits a causally+eventually consistent store must put
// on the wire. Payloads therefore use a deterministic, self-delimiting
// encoding with no framing overhead beyond what the content requires, so the
// measured sizes reflect information content rather than codec slack.
//
// Contract:
//
//   - OWNS: varint/string/clock encoding (Writer, Reader), length-delimited
//     framing and its size limits (frame.go), DEFLATE streams (compress.go),
//     the LZ stream codec a connection's frames go through (stream.go), and
//     the tree's one non-test use of unsafe, Reader.StringView.
//   - MUST NOT: know any frame type, message layout or protocol version —
//     those belong to the package that defines the message — or touch a
//     socket beyond the io.Reader/io.Writer it is handed.
//   - MUST NOT import: any internal package except model and vclock, the
//     value types it encodes.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"unsafe"

	"repro/internal/model"
	"repro/internal/vclock"
)

// ErrTruncated is returned when a decode runs past the end of the buffer.
var ErrTruncated = errors.New("wire: truncated payload")

// ErrTrailing is returned by End when a decode stops short of the end.
var ErrTrailing = errors.New("wire: trailing bytes after payload")

// Writer accumulates an encoded payload.
type Writer struct {
	buf []byte
	// frameOff is the buffer offset of the open frame header reserved by
	// BeginFrame, or -1 when no frame is open. The zero value (0) is never a
	// valid open-frame offset conflict because BeginFrame always sets it
	// explicitly; NewWriter and Reset set -1.
	frameOff int
}

// NewWriter returns an empty payload writer.
func NewWriter() *Writer { return &Writer{frameOff: -1} }

// NewWriterTo returns a writer that appends to dst; Bytes then returns dst
// extended by everything written.
func NewWriterTo(dst []byte) *Writer { return &Writer{buf: dst, frameOff: -1} }

// Bytes returns the encoded payload.
func (w *Writer) Bytes() []byte { return w.buf }

// Len returns the current payload length in bytes.
func (w *Writer) Len() int { return len(w.buf) }

// Reset truncates the payload to empty while keeping the allocated buffer,
// so a pooled or per-connection Writer encodes repeatedly without
// reallocating (the hot send path's per-event allocation came from minting
// a fresh Writer per frame).
func (w *Writer) Reset() {
	w.buf = w.buf[:0]
	w.frameOff = -1
}

// Raw appends b verbatim, with no length prefix: the zero-copy write path
// for payloads that are already encoded bytes. The old route was
// String(string(b)), which copied b into a string and then copied the
// string into the buffer; Raw appends the bytes once. Callers that need
// self-delimiting framing write a Uvarint length first (the layout Bytes
// decodes).
func (w *Writer) Raw(b []byte) {
	w.buf = append(w.buf, b...)
}

// Write implements io.Writer by appending p verbatim (Raw's contract), so
// stream encoders like compress/flate can emit directly into a payload
// under construction. It never fails.
func (w *Writer) Write(p []byte) (int, error) {
	w.buf = append(w.buf, p...)
	return len(p), nil
}

// Uvarint appends an unsigned varint.
func (w *Writer) Uvarint(x uint64) {
	w.buf = binary.AppendUvarint(w.buf, x)
}

// Varint appends a signed (zig-zag) varint.
func (w *Writer) Varint(x int64) {
	w.buf = binary.AppendVarint(w.buf, x)
}

// String appends a length-prefixed string.
func (w *Writer) String(s string) {
	w.Uvarint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// VC appends a vector clock as a length-prefixed dense vector of varints.
// Small entries (the common case for the clock components Theorem 12 counts)
// cost one byte each; an entry with value up to k costs Θ(lg k) bits.
func (w *Writer) VC(v vclock.VC) {
	w.Uvarint(uint64(len(v)))
	for _, x := range v {
		w.Uvarint(x)
	}
}

// SparseVC appends a vector clock as (count, (index, value)...) pairs,
// skipping zero entries. This is the "sparse dependency" ablation encoding:
// still Ω(n'·lg k) bits on the Theorem 12 executions, but with different
// constants on sparse clocks.
func (w *Writer) SparseVC(v vclock.VC) {
	nonzero := 0
	for _, x := range v {
		if x != 0 {
			nonzero++
		}
	}
	w.Uvarint(uint64(nonzero))
	for i, x := range v {
		if x != 0 {
			w.Uvarint(uint64(i))
			w.Uvarint(x)
		}
	}
}

// Dot appends an update identifier.
func (w *Writer) Dot(d model.Dot) {
	w.Uvarint(uint64(d.Origin))
	w.Uvarint(d.Seq)
}

// Reader decodes a payload produced by Writer.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader wraps a payload for decoding.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// Reset points the Reader at a new payload and clears any decode error, so
// a connection handler decodes frame after frame with one Reader value (the
// zero Reader is ready to Reset).
func (r *Reader) Reset(buf []byte) { *r = Reader{buf: buf} }

// Err returns the first decode error, if any.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

// End closes a strict decode: it returns the first decode error, or
// ErrTrailing if the payload holds bytes nothing read. A layout decoded
// this way has exactly one valid length, so a message from a different
// format is rejected instead of half-understood.
func (r *Reader) End() error {
	if r.err == nil && r.off != len(r.buf) {
		return fmt.Errorf("%w: %d after offset %d", ErrTrailing, len(r.buf)-r.off, r.off)
	}
	return r.err
}

func (r *Reader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("%w at offset %d", ErrTruncated, r.off)
	}
}

// Uvarint decodes an unsigned varint, returning 0 after an error.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	x, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.off += n
	return x
}

// Varint decodes a signed (zig-zag) varint.
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	x, n := binary.Varint(r.buf[r.off:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.off += n
	return x
}

// String decodes a length-prefixed string.
func (r *Reader) String() string {
	n := r.Uvarint()
	if r.err != nil {
		return ""
	}
	if uint64(r.Remaining()) < n {
		r.fail()
		return ""
	}
	s := string(r.buf[r.off : r.off+int(n)])
	r.off += int(n)
	return s
}

// Bytes decodes a length-prefixed byte field (the same layout String reads)
// and returns it as a subslice of the underlying buffer — zero-copy, unlike
// String, which materializes a fresh string. The returned slice aliases the
// Reader's buffer and lives exactly as long as that buffer's contents do:
// for a frame read with FrameReader.ReadFrame, until the connection's next
// read overwrites it. A caller that retains the bytes, or hands them to code
// that may, copies them first (the cluster's receive path copies each
// update's payload once, before its store or history sees it).
func (r *Reader) Bytes() []byte {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if uint64(r.Remaining()) < n {
		r.fail()
		return nil
	}
	b := r.buf[r.off : r.off+int(n) : r.off+int(n)]
	r.off += int(n)
	return b
}

// StringView decodes a length-prefixed string, like String, without
// copying it: the result shares the Reader's buffer, as Bytes does. A Go
// string is immutable, so the buffer must never be written again — not
// after this call, and not for as long as anything holds the string or a
// substring of it. Only a buffer its owner has given up for good qualifies:
// a replica's received payload (store.Replica.Receive), a record of a
// node's history. The one exception is a frame read off a connection and
// lent for one answer: its views are copied before the connection reads
// its next frame over them, and nothing holds them past the answer.
func (r *Reader) StringView() string {
	b := r.Bytes()
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// Fixed returns the next n bytes verbatim (no length prefix) — the read
// path for fields whose width is fixed by the protocol, like 32-byte
// chain hashes. The slice aliases the Reader's buffer, like Bytes.
func (r *Reader) Fixed(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.Remaining() < n {
		r.fail()
		return nil
	}
	b := r.buf[r.off : r.off+n : r.off+n]
	r.off += n
	return b
}

// VC decodes a dense vector clock.
func (r *Reader) VC() vclock.VC {
	n := r.Uvarint()
	if r.err != nil || n > uint64(r.Remaining()) {
		// Each entry takes at least one byte, so a valid count never exceeds
		// the bytes left; anything beyond is corrupt and would otherwise
		// allocate unboundedly. (An earlier guard allowed Remaining+1, one
		// more entry than the buffer can possibly hold.)
		if n > uint64(r.Remaining()) {
			r.fail()
		}
		return nil
	}
	v := make(vclock.VC, n)
	for i := range v {
		v[i] = r.Uvarint()
	}
	return v
}

// SparseVC decodes a sparse vector clock into dst, the caller's clock of
// the population's length: dst is zeroed, then each pair sets its entry.
// An index at or beyond len(dst) is rejected as corrupt rather than grown
// into (found by FuzzReader, when the clock was sized from the index).
func (r *Reader) SparseVC(dst vclock.VC) {
	clear(dst)
	count := r.Uvarint()
	for i := uint64(0); i < count; i++ {
		idx, val := r.Uvarint(), r.Uvarint()
		if r.err != nil {
			return
		}
		if idx >= uint64(len(dst)) {
			r.err = fmt.Errorf("wire: sparse clock index %d outside population %d", idx, len(dst))
			return
		}
		dst[idx] = val
	}
}

// Dot decodes an update identifier.
func (r *Reader) Dot() model.Dot {
	origin := r.Uvarint()
	seq := r.Uvarint()
	return model.Dot{Origin: model.ReplicaID(origin), Seq: seq}
}
