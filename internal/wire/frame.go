package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sync"
)

// DefaultMaxFrame is the frame-size ceiling used when a caller passes a
// non-positive limit: large enough for any replication payload the stores
// produce, small enough that a hostile length prefix cannot force an
// unbounded allocation.
const DefaultMaxFrame = 1 << 20

// MaxFrameHeader is the longest frame header: the uvarint of any length
// below 2³⁵, far above every frame limit in use. A header that runs longer
// is refused unread.
const MaxFrameHeader = binary.MaxVarintLen32

// FrameSizeError reports a frame whose declared length exceeds the
// receiver's (or sender's) limit. It is a typed error so transports can
// distinguish a hostile or misconfigured peer from an ordinary I/O failure
// with errors.As.
type FrameSizeError struct {
	Size int // declared payload length; math.MaxInt for an overlong header
	Max  int // the limit it exceeded
}

// Error implements error.
func (e *FrameSizeError) Error() string {
	return fmt.Sprintf("wire: frame of %d bytes exceeds limit %d", e.Size, e.Max)
}

// FrameHeaderLen is the length of the header in front of an n-byte payload:
// uvarint(n), one byte per started seven bits of n. A frame is its header
// and its payload, nothing else, so this is all a caller measuring wire
// bytes adds to a payload.
func FrameHeaderLen(n int) int { return UvarintLen(uint64(n)) }

// FramePayload returns the payload of a whole frame as EndFrame returns it:
// the bytes behind its header.
func FramePayload(frame []byte) []byte {
	_, h := binary.Uvarint(frame)
	return frame[h:]
}

// WriteFrame writes payload as one length-delimited frame: the payload's
// length as a uvarint, then the payload. It refuses payloads beyond max
// (DefaultMaxFrame when max <= 0) with a *FrameSizeError, so a sender cannot
// emit a frame its peer is guaranteed to reject. It returns the number of
// bytes written to w.
func WriteFrame(w io.Writer, payload []byte, max int) (int, error) {
	if max <= 0 {
		max = DefaultMaxFrame
	}
	if len(payload) > max {
		return 0, &FrameSizeError{Size: len(payload), Max: max}
	}
	var hdr [MaxFrameHeader]byte
	n, err := w.Write(hdr[:binary.PutUvarint(hdr[:], uint64(len(payload)))])
	if err != nil {
		return n, err
	}
	m, err := w.Write(payload)
	return n + m, err
}

// BeginFrame reserves room for a frame header at the Writer's current
// position: the payload encoded after it, sealed with EndFrame, becomes one
// wire frame in the Writer's own buffer. Together they let a sender build
// header+payload contiguously and hand the result to a single Write call —
// one syscall and zero intermediate allocations per frame, where WriteFrame
// costs two writes and a payload slice. Frames do not nest; BeginFrame
// panics if one is already open (a programming error, not a wire condition).
func (w *Writer) BeginFrame() {
	if w.frameOff >= 0 {
		panic("wire: BeginFrame inside an open frame")
	}
	w.frameOff = len(w.buf)
	w.buf = append(w.buf, make([]byte, MaxFrameHeader)...)
}

// EndFrame seals the frame opened by BeginFrame: it writes the payload's
// length into the end of the reserved room, right against the payload, and
// returns the complete frame — from its first header byte, so the unused
// front of the reservation is not part of it — as a subslice of the
// Writer's buffer, valid until the next Reset. Nothing moves: the header is
// as short as the length allows and the payload stays where it was encoded.
// It enforces the same size limit as WriteFrame (DefaultMaxFrame when
// max <= 0) with a *FrameSizeError, leaving the frame open so the caller can
// observe the oversized state.
func (w *Writer) EndFrame(max int) ([]byte, error) {
	if w.frameOff < 0 {
		panic("wire: EndFrame without BeginFrame")
	}
	if max <= 0 {
		max = DefaultMaxFrame
	}
	body := w.frameOff + MaxFrameHeader
	size := len(w.buf) - body
	if size > max {
		return nil, &FrameSizeError{Size: size, Max: max}
	}
	start := body - FrameHeaderLen(size)
	binary.PutUvarint(w.buf[start:body], uint64(size))
	w.frameOff = -1
	return w.buf[start:], nil
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

// FrameReader reads the frames of one stream, as WriteFrame and EndFrame
// write them. It reads through a buffer of its own, so a run of small
// frames costs one read of the stream per buffer-full rather than two per
// frame, and it must be the stream's only reader: it reads ahead of the
// frame it returns. A connection handler builds one per connection and
// hands it to every read.
type FrameReader struct {
	r   *bufio.Reader
	buf []byte // payload storage, reused from frame to frame
}

// NewFrameReader returns a reader of the frames r carries.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{r: bufio.NewReader(r)}
}

// ReadFrame reads the next frame and returns its payload. The payload is
// read into the reader's own storage, which the next ReadFrame overwrites:
// whatever must outlive the frame — and everything decoded zero-copy from
// it, see Reader.Bytes — has to be copied first. In exchange a stream of
// frames no larger than the largest seen so far allocates nothing. The
// payload is never an alias of the read-ahead buffer, so a caller may
// append to it in place (up to its capacity) without touching bytes not
// yet read.
//
// A header longer than MaxFrameHeader bytes, or one declaring a length
// beyond max (DefaultMaxFrame when max <= 0), returns a *FrameSizeError
// BEFORE the storage grows to hold it: the guard is what makes the framing
// safe against a hostile length prefix. A clean end of stream before the
// first header byte returns io.EOF; a header or payload cut short returns
// io.ErrUnexpectedEOF.
func (f *FrameReader) ReadFrame(max int) ([]byte, error) {
	if max <= 0 {
		max = DefaultMaxFrame
	}
	var size uint64
	for i := 0; ; i++ {
		if i == MaxFrameHeader {
			return nil, &FrameSizeError{Size: math.MaxInt, Max: max}
		}
		c, err := f.r.ReadByte()
		if err != nil {
			if err == io.EOF && i > 0 {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
		size |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			break
		}
	}
	if size > uint64(max) {
		return nil, &FrameSizeError{Size: int(size), Max: max}
	}
	if uint64(cap(f.buf)) < size {
		f.buf = make([]byte, size)
	}
	payload := f.buf[:size]
	if _, err := io.ReadFull(f.r, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return payload, nil
}

// Reuse makes buf the storage the next frame is read into. A caller that
// appended to the last payload — an inflated frame written behind its
// compressed envelope — hands back what the append returned, so storage
// that had to grow is kept rather than grown again; nil drops the storage,
// for a caller that must not pin a large frame's.
func (f *FrameReader) Reuse(buf []byte) { f.buf = buf }
