package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync"
)

// DefaultMaxFrame is the frame-size ceiling used when a caller passes a
// non-positive limit: large enough for any replication payload the stores
// produce, small enough that a hostile length prefix cannot force an
// unbounded allocation.
const DefaultMaxFrame = 1 << 20

// FrameSizeError reports a frame whose declared length exceeds the
// receiver's (or sender's) limit. It is a typed error so transports can
// distinguish a hostile or misconfigured peer from an ordinary I/O failure
// with errors.As.
type FrameSizeError struct {
	Size int // declared payload length
	Max  int // the limit it exceeded
}

// Error implements error.
func (e *FrameSizeError) Error() string {
	return fmt.Sprintf("wire: frame of %d bytes exceeds limit %d", e.Size, e.Max)
}

// WriteFrame writes payload as one length-delimited frame: a 4-byte
// big-endian length prefix followed by the payload. It refuses payloads
// beyond max (DefaultMaxFrame when max <= 0) with a *FrameSizeError, so a
// sender cannot emit a frame its peer is guaranteed to reject. It returns
// the number of bytes written to w.
func WriteFrame(w io.Writer, payload []byte, max int) (int, error) {
	if max <= 0 {
		max = DefaultMaxFrame
	}
	if len(payload) > max {
		return 0, &FrameSizeError{Size: len(payload), Max: max}
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	n, err := w.Write(hdr[:])
	if err != nil {
		return n, err
	}
	m, err := w.Write(payload)
	return n + m, err
}

// BeginFrame reserves a frame header at the Writer's current position: the
// payload encoded after it, sealed with EndFrame, becomes one wire frame in
// the Writer's own buffer. Together they let a sender build header+payload
// contiguously and hand the result to a single Write call — one syscall and
// zero intermediate allocations per frame, where WriteFrame costs two
// writes and a payload slice. Frames do not nest; BeginFrame panics if one
// is already open (a programming error, not a wire condition).
func (w *Writer) BeginFrame() {
	if w.frameOff >= 0 {
		panic("wire: BeginFrame inside an open frame")
	}
	w.frameOff = len(w.buf)
	w.buf = append(w.buf, 0, 0, 0, 0)
}

// EndFrame seals the frame opened by BeginFrame: it patches the reserved
// header with the payload length and returns the complete frame (header
// plus payload) as a subslice of the Writer's buffer, valid until the next
// Reset. It enforces the same size limit as WriteFrame (DefaultMaxFrame
// when max <= 0) with a *FrameSizeError, leaving the frame open so the
// caller can observe the oversized state.
func (w *Writer) EndFrame(max int) ([]byte, error) {
	if w.frameOff < 0 {
		panic("wire: EndFrame without BeginFrame")
	}
	if max <= 0 {
		max = DefaultMaxFrame
	}
	size := len(w.buf) - w.frameOff - 4
	if size > max {
		return nil, &FrameSizeError{Size: size, Max: max}
	}
	binary.BigEndian.PutUint32(w.buf[w.frameOff:], uint32(size))
	frame := w.buf[w.frameOff:]
	w.frameOff = -1
	return frame, nil
}

// pooledWriterMax bounds the buffer capacity a Writer may take back into
// the pool: a one-off giant frame (a history transfer) must not pin its
// buffer for the rest of the process.
const pooledWriterMax = 1 << 20

var writerPool = sync.Pool{New: func() any { return NewWriter() }}

// GetWriter returns a reset Writer from the process-wide pool. Pair with
// PutWriter on paths that encode frequently enough for per-frame Writer
// allocation to show up (the cluster's send and journal paths).
func GetWriter() *Writer {
	w := writerPool.Get().(*Writer)
	w.Reset()
	return w
}

// PutWriter returns a Writer to the pool. The caller must no longer hold
// any slice obtained from it (Bytes, EndFrame): the next GetWriter will
// overwrite the shared buffer.
func PutWriter(w *Writer) {
	if cap(w.buf) > pooledWriterMax {
		return
	}
	writerPool.Put(w)
}

// ReadFrame reads one length-delimited frame written by WriteFrame and
// returns its payload in a buffer of its own: the allocate-per-call form of
// ReadFrameInto, for callers that keep the payload.
func ReadFrame(r io.Reader, max int) ([]byte, error) {
	return ReadFrameInto(r, max, nil)
}

// ReadFrameInto reads one length-delimited frame written by WriteFrame into
// buf's storage and returns its payload, which is buf resliced to the
// frame's length when buf has the capacity and a new, larger buffer
// otherwise. A connection handler that passes the returned slice back in
// reads frame after frame without allocating. The payload is then only
// valid until that next call, which overwrites it: whatever must outlive
// the frame — and everything decoded zero-copy from it, see Reader.Bytes —
// has to be copied first. buf's length is ignored; nil is a valid buf.
//
// A declared length beyond max (DefaultMaxFrame when max <= 0) returns a
// *FrameSizeError BEFORE the buffer grows to hold it: the guard is what
// makes the framing safe against a hostile length prefix. A clean close
// before the first header byte returns io.EOF; a header or payload
// truncated mid-frame returns io.ErrUnexpectedEOF.
func ReadFrameInto(r io.Reader, max int, buf []byte) ([]byte, error) {
	if max <= 0 {
		max = DefaultMaxFrame
	}
	// The header is read into the buffer it is about to describe (a local
	// array would escape through the io.Reader call and cost an allocation
	// per frame).
	if cap(buf) < 4 {
		buf = make([]byte, 4)
	}
	hdr := buf[:4]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, err
	}
	size := binary.BigEndian.Uint32(hdr)
	if size > uint32(max) {
		return nil, &FrameSizeError{Size: int(size), Max: max}
	}
	if uint32(cap(buf)) < size {
		buf = make([]byte, size)
	}
	payload := buf[:size]
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF {
			return nil, io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return payload, nil
}
