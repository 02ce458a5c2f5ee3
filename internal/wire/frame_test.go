package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"testing"
)

// frameReader reads the frames of a byte slice.
func frameReader(b []byte) *FrameReader { return NewFrameReader(bytes.NewReader(b)) }

func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{
		nil,
		{},
		[]byte("x"),
		bytes.Repeat([]byte{0xAB}, 1000),
		bytes.Repeat([]byte{0xCD}, 20000), // a three-byte header
	}
	var buf bytes.Buffer
	for _, p := range payloads {
		if _, err := WriteFrame(&buf, p, 0); err != nil {
			t.Fatalf("WriteFrame(%d bytes): %v", len(p), err)
		}
	}
	fr := NewFrameReader(&buf)
	for _, want := range payloads {
		got, err := fr.ReadFrame(0)
		if err != nil {
			t.Fatalf("ReadFrame: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("round trip: got %d bytes, want %d", len(got), len(want))
		}
	}
	if _, err := fr.ReadFrame(0); err != io.EOF {
		t.Fatalf("read past last frame: %v, want io.EOF", err)
	}
}

func TestWriteFrameReportsBytesWritten(t *testing.T) {
	var buf bytes.Buffer
	n, err := WriteFrame(&buf, []byte("abc"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 || buf.Len() != 4 {
		t.Fatalf("wrote %d bytes (buffer %d), want 4", n, buf.Len())
	}
}

// TestFrameSizeOnWire pins what a frame costs beyond its payload: the
// uvarint of its length, one byte up to 127 B of payload and two up to
// 16 KiB, whether written by WriteFrame or built by BeginFrame/EndFrame —
// and FrameHeaderLen, which the cluster's wire accounting adds, agrees.
func TestFrameSizeOnWire(t *testing.T) {
	for _, c := range []struct{ payload, wire int }{
		{0, 1}, {127, 128}, {128, 130}, {16383, 16385}, {16384, 16387}, {DefaultMaxFrame, DefaultMaxFrame + 3},
	} {
		payload := bytes.Repeat([]byte{'p'}, c.payload)
		var buf bytes.Buffer
		if n, err := WriteFrame(&buf, payload, 0); err != nil || n != c.wire {
			t.Errorf("WriteFrame of %d B wrote %d B (%v), want %d", c.payload, n, err, c.wire)
		}
		w := NewWriter()
		w.Uvarint(99) // something ahead of the frame, as a reused writer may hold
		w.BeginFrame()
		w.Raw(payload)
		frame, err := w.EndFrame(0)
		if err != nil || !bytes.Equal(frame, buf.Bytes()) {
			t.Errorf("EndFrame of %d B: %d B (%v), not WriteFrame's %d B", c.payload, len(frame), err, buf.Len())
		}
		if !bytes.Equal(FramePayload(frame), payload) {
			t.Errorf("FramePayload of a %d B frame is %d B", c.payload, len(FramePayload(frame)))
		}
		if h := FrameHeaderLen(c.payload); h != c.wire-c.payload {
			t.Errorf("FrameHeaderLen(%d) = %d, want %d", c.payload, h, c.wire-c.payload)
		}
	}
}

func TestWriteFrameRejectsOversize(t *testing.T) {
	var buf bytes.Buffer
	_, err := WriteFrame(&buf, make([]byte, 11), 10)
	var fse *FrameSizeError
	if !errors.As(err, &fse) {
		t.Fatalf("err = %v, want *FrameSizeError", err)
	}
	if fse.Size != 11 || fse.Max != 10 {
		t.Fatalf("FrameSizeError = %+v", fse)
	}
	if buf.Len() != 0 {
		t.Fatal("oversize frame partially written")
	}
}

// hostileHeaders are the two ways a length prefix can lie: a header that
// never ends (six continuation bytes, one past MaxFrameHeader), and a
// five-byte header declaring 4 GiB-1.
var hostileHeaders = []struct {
	name string
	hdr  []byte
	size int
}{
	{"overlong", []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80}, math.MaxInt},
	{"4GiB", []byte{0xFF, 0xFF, 0xFF, 0xFF, 0x0F}, math.MaxUint32},
}

func TestReadFrameRejectsHostileLength(t *testing.T) {
	// Rejected before allocation, not trusted.
	for _, h := range hostileHeaders {
		_, err := frameReader(append(h.hdr, 1, 2, 3)).ReadFrame(0)
		var fse *FrameSizeError
		if !errors.As(err, &fse) {
			t.Fatalf("%s: err = %v, want *FrameSizeError", h.name, err)
		}
		if fse.Size != h.size || fse.Max != DefaultMaxFrame {
			t.Fatalf("%s: FrameSizeError = %+v, want size %d over DefaultMaxFrame", h.name, fse, h.size)
		}
	}
}

func TestReadFrameTruncation(t *testing.T) {
	// Header truncated mid-way: a continuation byte, then the end.
	if _, err := frameReader([]byte{0x80}).ReadFrame(0); err != io.ErrUnexpectedEOF {
		t.Fatalf("truncated header: %v, want io.ErrUnexpectedEOF", err)
	}
	// Payload shorter than the header declares.
	if _, err := frameReader(append([]byte{10}, "short"...)).ReadFrame(0); err != io.ErrUnexpectedEOF {
		t.Fatalf("truncated payload: %v, want io.ErrUnexpectedEOF", err)
	}
}

func TestReadFrameCustomLimit(t *testing.T) {
	var buf bytes.Buffer
	if _, err := WriteFrame(&buf, make([]byte, 64), 64); err != nil {
		t.Fatal(err)
	}
	if _, err := frameReader(buf.Bytes()).ReadFrame(63); err == nil {
		t.Fatal("frame above the reader's limit was accepted")
	}
	if _, err := frameReader(buf.Bytes()).ReadFrame(64); err != nil {
		t.Fatalf("frame at the limit rejected: %v", err)
	}
}

// FuzzReadFrame feeds arbitrary byte streams to ReadFrame: it must never
// panic, never allocate beyond the limit, and every successfully read
// payload must re-encode to a frame ReadFrame accepts again.
func FuzzReadFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x0F, 1, 2, 3})
	f.Add([]byte{3, 'a', 'b', 'c'})
	f.Add([]byte{5, 'x'})
	f.Fuzz(func(t *testing.T, data []byte) {
		const limit = 1 << 12
		payload, err := frameReader(data).ReadFrame(limit)
		if err != nil {
			return
		}
		if len(payload) > limit {
			t.Fatalf("payload of %d bytes exceeds limit %d", len(payload), limit)
		}
		var buf bytes.Buffer
		if _, err := WriteFrame(&buf, payload, limit); err != nil {
			t.Fatalf("re-encode of accepted payload failed: %v", err)
		}
		back, err := NewFrameReader(&buf).ReadFrame(limit)
		if err != nil || !bytes.Equal(back, payload) {
			t.Fatalf("round trip changed payload: %v", err)
		}
	})
}

// TestReadFrameIntoReusesBuffer pins what a connection handler relies on: a
// frame that fits the reader's storage lands in it, one that does not gets
// larger storage, a short frame after a long one is exactly its own bytes,
// and reading into warmed storage allocates nothing.
func TestReadFrameIntoReusesBuffer(t *testing.T) {
	long, short := bytes.Repeat([]byte{0xCD}, 300), []byte("ok")
	var stream bytes.Buffer
	for _, p := range [][]byte{short, long, short, nil} {
		if _, err := WriteFrame(&stream, p, 0); err != nil {
			t.Fatal(err)
		}
	}
	r := bytes.NewReader(stream.Bytes())
	fr := NewFrameReader(r)
	buf := make([]byte, 16)
	fr.Reuse(buf)
	got, err := fr.ReadFrame(0)
	if err != nil || !bytes.Equal(got, short) || &got[0] != &buf[0] {
		t.Fatalf("frame that fits: %q err %v (or it left the caller's buffer)", got, err)
	}
	grown, err := fr.ReadFrame(0)
	if err != nil || !bytes.Equal(grown, long) {
		t.Fatalf("frame beyond the buffer: %d bytes err %v", len(grown), err)
	}
	got, err = fr.ReadFrame(0)
	if err != nil || !bytes.Equal(got, short) || &got[0] != &grown[0] {
		t.Fatalf("short frame after a long one: %q err %v", got, err)
	}
	if got, err = fr.ReadFrame(0); err != nil || len(got) != 0 {
		t.Fatalf("empty frame: %q err %v", got, err)
	}

	frames := stream.Bytes()
	if avg := testing.AllocsPerRun(100, func() {
		r.Reset(frames)
		for {
			if _, err := fr.ReadFrame(0); err != nil {
				return
			}
		}
	}); avg != 0 {
		t.Fatalf("reading into warmed storage allocates %.0f times per stream", avg)
	}
}

// cycleReader serves its pattern over and over, never ending.
type cycleReader struct {
	pattern []byte
	off     int
}

func (c *cycleReader) Read(p []byte) (int, error) {
	for n := 0; n < len(p); {
		m := copy(p[n:], c.pattern[c.off:])
		n += m
		c.off = (c.off + m) % len(c.pattern)
	}
	return len(p), nil
}

// TestReadFrameIntoGuardsBeforeGrowth: a hostile length prefix is refused
// before the storage grows to hold it — an endless run of either hostile
// header costs one error value per frame and nothing else.
func TestReadFrameIntoGuardsBeforeGrowth(t *testing.T) {
	for _, h := range hostileHeaders {
		// The overlong header is refused after MaxFrameHeader bytes, so the
		// stream repeats that much of it.
		fr := NewFrameReader(&cycleReader{pattern: h.hdr[:min(len(h.hdr), MaxFrameHeader)]})
		fr.Reuse(make([]byte, 8))
		var err error
		if avg := testing.AllocsPerRun(10, func() {
			_, err = fr.ReadFrame(64)
		}); avg > 1 { // the error value
			t.Fatalf("%s: refusing a hostile frame allocated %.0f times", h.name, avg)
		}
		var fse *FrameSizeError
		if !errors.As(err, &fse) || fse.Size != h.size || fse.Max != 64 {
			t.Fatalf("%s: err = %v, want *FrameSizeError{%d, 64}", h.name, err, h.size)
		}
		if cap(fr.buf) != 8 {
			t.Fatalf("%s: storage grew to %d bytes", h.name, cap(fr.buf))
		}
	}
}

// countingReader counts the Read calls that reach the stream.
type countingReader struct {
	r     io.Reader
	reads int
}

func (c *countingReader) Read(p []byte) (int, error) {
	c.reads++
	return c.r.Read(p)
}

// TestFrameReaderReadsAhead: a run of small frames costs one Read of the
// stream per buffer-full, plus the one that finds its end — not one for
// the header and one for the payload of every frame.
func TestFrameReaderReadsAhead(t *testing.T) {
	const frames = 100
	var stream bytes.Buffer
	for i := 0; i < frames; i++ {
		if _, err := WriteFrame(&stream, bytes.Repeat([]byte{byte(i)}, 40+i%20), 0); err != nil {
			t.Fatal(err)
		}
	}
	total := stream.Len()
	cr := &countingReader{r: &stream}
	fr := NewFrameReader(cr)
	for i := 0; i < frames; i++ {
		if p, err := fr.ReadFrame(0); err != nil || len(p) != 40+i%20 || p[0] != byte(i) {
			t.Fatalf("frame %d: %d bytes, err %v", i, len(p), err)
		}
	}
	if _, err := fr.ReadFrame(0); err != io.EOF {
		t.Fatalf("past the last frame: %v, want io.EOF", err)
	}
	size := fr.r.Size()
	if limit := (total+size-1)/size + 1; cr.reads > limit {
		t.Fatalf("%d frames (%d B) took %d reads of the stream, want ≤ %d with a %d B buffer", frames, total, cr.reads, limit, size)
	}
}

// refReadFrame is the framing read off a byte slice, for comparison: the
// next frame's payload and what follows it, or the error that ends the
// stream there.
func refReadFrame(data []byte, limit int) (payload, rest []byte, err error) {
	if len(data) == 0 {
		return nil, nil, io.EOF
	}
	size, h := binary.Uvarint(data[:min(len(data), MaxFrameHeader)])
	switch {
	case h == 0 && len(data) >= MaxFrameHeader:
		return nil, nil, &FrameSizeError{Size: math.MaxInt, Max: limit}
	case h == 0:
		return nil, nil, io.ErrUnexpectedEOF
	case size > uint64(limit):
		return nil, nil, &FrameSizeError{Size: int(size), Max: limit}
	case uint64(len(data)-h) < size:
		return nil, nil, io.ErrUnexpectedEOF
	}
	return data[h : h+int(size)], data[h+int(size):], nil
}

// FuzzReusedFrameBuffer reads an arbitrary byte stream frame after frame
// twice — through a FrameReader whose storage is reused from frame to frame
// and whose read-ahead buffer is as small as bufio allows, so frames
// straddle its refills, and through refReadFrame over the whole slice — and
// demands the same payloads and the same errors from both. The reused
// storage starts dirty, so a frame that showed bytes it did not carry (the
// tail of a longer predecessor) would differ from its reference twin.
func FuzzReusedFrameBuffer(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x05long!\x02hi\x00\x01x"))
	f.Add([]byte("\x02hi\xff\xff\xff\xff\x0fboom"))
	f.Add([]byte("\x03abc\x09short"))
	f.Add([]byte("\x01a\x80"))
	f.Fuzz(func(t *testing.T, data []byte) {
		const limit = 1 << 12
		fr := &FrameReader{r: bufio.NewReaderSize(bytes.NewReader(data), 16), buf: bytes.Repeat([]byte{0xEE}, 8)}
		rest := data
		for {
			var want []byte
			var wantErr error
			want, rest, wantErr = refReadFrame(rest, limit)
			before := fr.buf[:cap(fr.buf)]
			got, gotErr := fr.ReadFrame(limit)
			var wantFSE, gotFSE *FrameSizeError
			if errors.As(wantErr, &wantFSE) != errors.As(gotErr, &gotFSE) || (wantFSE != nil && *wantFSE != *gotFSE) {
				t.Fatalf("size errors differ: reference %v, reader %v", wantErr, gotErr)
			}
			if wantFSE == nil && wantErr != gotErr {
				t.Fatalf("errors differ: reference %v, reader %v", wantErr, gotErr)
			}
			if wantErr != nil {
				return
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("payloads differ: reference %q, reader %q", want, got)
			}
			if len(got) > limit {
				t.Fatalf("payload of %d bytes exceeds limit %d", len(got), limit)
			}
			if len(got) > 0 && len(got) <= len(before) && &got[0] != &before[0] {
				t.Fatalf("a %d-byte frame left %d bytes of storage", len(got), len(before))
			}
		}
	})
}

var frameSink []byte

// BenchmarkReadFrame reads an endless stream of small frames (the size of a
// client request or a short batch) through one FrameReader: ns and
// allocations per frame, the steady state of a connection's receive loop.
//
//	go test ./internal/wire -run '^$' -bench ReadFrame -benchmem
func BenchmarkReadFrame(b *testing.B) {
	var stream bytes.Buffer
	for i := 0; i < 64; i++ {
		if _, err := WriteFrame(&stream, bytes.Repeat([]byte{byte(i)}, 24+i), 0); err != nil {
			b.Fatal(err)
		}
	}
	fr := NewFrameReader(&cycleReader{pattern: stream.Bytes()})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := fr.ReadFrame(0)
		if err != nil {
			b.Fatal(err)
		}
		frameSink = p
	}
}
