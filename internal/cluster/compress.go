package cluster

import (
	"fmt"
	"net"
	"time"

	"repro/internal/wire"
)

// Per-frame compression for large transfers (DESIGN.md §5.13). A bulk
// frame whose payload clears the size floor travels wrapped in a
// tCompressed envelope:
//
//	tCompressed algo rawLen deflate-bytes
//
// The envelope is self-describing: the write side decides frame by frame,
// and every read path unwraps unconditionally via recvFrame/decompressFrame.

// tCompressed is the compression envelope frame type. It continues the
// numbering after proto_member.go's tRangeResp (23) and can wrap any other
// frame type; only the bulk-transfer frames — a tBatch that leaves backlog
// behind, tRangeResp and tHistoryResp — are ever offered to it.
const tCompressed = 24

// compressFloor is the smallest frame payload worth compressing. Below it
// the DEFLATE block overhead and the envelope header eat the savings, and
// the latency-sensitive small frames (hellos, hello acks, single updates) skip
// the compressor entirely.
const compressFloor = 512

// maybeCompressPayload wraps a frame payload in a tCompressed envelope
// when it clears the size floor and the envelope is an actual size win; it
// returns the envelope as one whole frame, header included, and the pooled
// writer it lives in — the caller must PutWriter it after sending — or nil,
// nil to send the payload raw. An incompressible payload (the envelope would
// be no smaller) ships raw, so compression never costs wire bytes. z is the
// sending connection's compressor.
func maybeCompressPayload(payload []byte, z *wire.Deflater) (*wire.Writer, []byte) {
	if len(payload) < compressFloor {
		return nil, nil
	}
	w := wire.GetWriter()
	w.BeginFrame()
	w.Uvarint(tCompressed)
	w.Uvarint(wire.CompFlate)
	w.Uvarint(uint64(len(payload)))
	z.DeflateTo(w, payload)
	// A limit one below the payload's length refuses exactly the envelopes
	// that would be no smaller, and no frame limit can refuse the rest: the
	// raw payload already fit.
	frame, err := w.EndFrame(len(payload) - 1)
	if err != nil {
		wire.PutWriter(w)
		return nil, nil
	}
	return w, frame
}

// decompressFrame unwraps a tCompressed envelope; any other frame passes
// through untouched. The inflated frame is appended behind the envelope in
// b's own storage (moving to a larger array when b has no room), so a
// compressed frame lands in the same reusable buffer a raw one does; buf is
// that storage as it now stands, for the caller to keep. The declared
// inflated size obeys the same frame limit as the connection's raw frames,
// so compression cannot smuggle an oversized frame past ReadFrame's guard.
func decompressFrame(b []byte, maxFrame int) (frame, buf []byte, err error) {
	var r wire.Reader
	r.Reset(b)
	if typ := r.Uvarint(); r.Err() != nil || typ != tCompressed {
		return b, b, nil
	}
	algo := r.Uvarint()
	rawLen := r.Uvarint()
	if err := r.Err(); err != nil {
		return nil, b, err
	}
	if algo != wire.CompFlate {
		return nil, b, fmt.Errorf("cluster: unknown compression algorithm %d in envelope", algo)
	}
	if rawLen > uint64(maxFrame) {
		return nil, b, &wire.FrameSizeError{Size: int(rawLen), Max: maxFrame}
	}
	buf, err = wire.InflateTo(b, r.Fixed(r.Remaining()), int(rawLen))
	if err != nil {
		return nil, b, err
	}
	return buf[len(b):], buf, nil
}

// recvFrame reads one length-prefixed frame and transparently unwraps the
// compression envelope: the single receive entrance of the package, for
// every connection that might carry compressed frames. fr is the
// connection's one frame reader, which its handler builds and passes to
// every read: the frame is read (and inflated) into fr's storage, so a
// steady stream of frames allocates nothing. The returned frame — and
// every payload decoded zero-copy from it — is valid only until the
// handler's next recvFrame on the same fr.
func recvFrame(fr *wire.FrameReader, maxFrame int) ([]byte, error) {
	b, err := fr.ReadFrame(maxFrame)
	if err != nil {
		return nil, err
	}
	b, buf, err := decompressFrame(b, maxFrame)
	fr.Reuse(buf)
	return b, err
}

// writeEnc seals the frame open in enc and writes it with a write
// deadline, counting wire bytes and frames. Every frame, raw or in its
// compression envelope, is built behind its header (BeginFrame) and leaves
// in one conn.Write. That is a premise, not only a saving: every frame a
// node writes is one conn.Write, and a fault transport (fault.Netem) shapes
// each Write as one frame (TestEveryFrameIsOneWrite pins it). A non-nil z
// marks a bulk-transfer frame, which is offered to the compression
// envelope through z — the compressor its connection's handler owns; the
// small latency-sensitive frames (hellos, hello acks, single updates, client
// replies) pass nil and never touch one. The error is
// returned rather than collapsed to a bool because a *wire.FrameSizeError
// from EndFrame is a terminal condition — the frame can never fit — which
// a sender must distinguish from ordinary connection death. It returns the
// bytes written, envelope included.
func (n *Node) writeEnc(conn net.Conn, enc *wire.Writer, maxFrame int, z *wire.Deflater) (int, error) {
	frame, err := enc.EndFrame(maxFrame)
	if err != nil {
		return 0, err
	}
	conn.SetWriteDeadline(time.Now().Add(writeTimeout))
	if z != nil {
		// The envelope lives in its own pooled writer; it is returned to
		// the pool only here, after the write, never inside
		// maybeCompressPayload — enc (which frame aliases) is still checked
		// out, and the same discipline keeps any future compressor from
		// recycling a buffer a caller still reads.
		if env, envFrame := maybeCompressPayload(wire.FramePayload(frame), z); env != nil {
			defer wire.PutWriter(env)
			frame = envFrame
		}
	}
	nBytes, err := conn.Write(frame)
	n.count[cBytesOut].Add(int64(nBytes))
	n.count[cFramesOut].Add(1)
	return nBytes, err
}

// sendFrame builds one small frame in a pooled writer and writes it raw.
func (n *Node) sendFrame(conn net.Conn, build func(*wire.Writer)) bool {
	w := wire.GetWriter()
	w.BeginFrame()
	build(w)
	_, err := n.writeEnc(conn, w, wire.DefaultMaxFrame, nil)
	wire.PutWriter(w)
	return err == nil
}
