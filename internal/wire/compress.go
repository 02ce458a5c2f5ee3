package wire

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"
	"slices"
	"sync"
)

// CompFlate identifies DEFLATE where a compression envelope names the
// algorithm its body was compressed with.
const CompFlate uint64 = 1

// Deflater is a DEFLATE encoder. flate.NewWriter allocates large match
// tables, far too heavy to mint per frame, and a pool that is visited once
// per frame is emptied by every collection and refilled by the next frame:
// a connection that sends bulk frames checks one out for its lifetime
// (GetDeflater), beside the Writer it builds frames in. The zero value is
// ready to use and allocates the encoder on the first call. It is not safe
// for concurrent use.
type Deflater struct {
	fw *flate.Writer
}

// DeflateTo compresses raw with DEFLATE at a fixed level (BestSpeed: the
// callers sit on transfer hot paths, and the tracked bench artifacts rely
// on the output being deterministic for a given input and toolchain) and
// appends the compressed stream to w. raw must not alias w's buffer.
// Returns the number of bytes appended.
func (d *Deflater) DeflateTo(w *Writer, raw []byte) int {
	before := w.Len()
	if d.fw == nil {
		d.fw, _ = flate.NewWriter(w, flate.BestSpeed) // the level is valid
	} else {
		d.fw.Reset(w)
	}
	d.fw.Write(raw) // Writer.Write never fails
	d.fw.Close()
	return w.Len() - before
}

var deflaters = sync.Pool{New: func() any { return new(Deflater) }}

// GetDeflater checks a Deflater out of the package pool — one a closed
// connection returned, tables and all, when there is one. Pair with
// PutDeflater.
func GetDeflater() *Deflater { return deflaters.Get().(*Deflater) }

// PutDeflater returns a Deflater to the pool.
func PutDeflater(d *Deflater) { deflaters.Put(d) }

// DeflateTo is Deflater.DeflateTo on a Deflater borrowed for the one call.
func DeflateTo(w *Writer, raw []byte) int {
	d := GetDeflater()
	defer PutDeflater(d)
	return d.DeflateTo(w, raw)
}

// inflater is a pooled DEFLATE decoder with the source it reads: src is
// reset onto each frame's compressed bytes, so a frame allocates no reader
// of its own (a bytes.Reader is an io.ByteReader, so the decoder reads it
// directly, without a bufio.Reader of its own either).
type inflater struct {
	src bytes.Reader
	fr  io.ReadCloser // from flate.NewReader: every one is a flate.Resetter
}

var inflaters = sync.Pool{New: func() any {
	f := new(inflater)
	f.fr = flate.NewReader(&f.src)
	return f
}}

// Inflate decompresses a DEFLATE stream produced by DeflateTo into a fresh
// buffer of exactly rawLen bytes: the allocate-per-call form of InflateTo.
func Inflate(comp []byte, rawLen int) ([]byte, error) {
	return InflateTo(nil, comp, rawLen)
}

// InflateTo decompresses a DEFLATE stream produced by DeflateTo, appends
// its rawLen bytes to dst and returns the extended slice. comp may alias
// dst[:len(dst)] — a receiver inflates a frame into the tail of the buffer
// the frame arrived in. A stream that inflates short, long, or corrupt is
// an error: the declared length is part of the envelope's contract, and
// enforcing it before and during decode caps the allocation a hostile
// frame can force.
func InflateTo(dst, comp []byte, rawLen int) ([]byte, error) {
	if rawLen < 0 {
		return nil, fmt.Errorf("wire: negative inflated length %d", rawLen)
	}
	f := inflaters.Get().(*inflater)
	defer func() {
		f.src.Reset(nil) // the pool must not pin the caller's frame
		inflaters.Put(f)
	}()
	f.src.Reset(comp)
	fr := f.fr
	if err := fr.(flate.Resetter).Reset(&f.src, nil); err != nil {
		return nil, err
	}
	off := len(dst)
	dst = slices.Grow(dst, rawLen)[:off+rawLen]
	if _, err := io.ReadFull(fr, dst[off:]); err != nil {
		return nil, fmt.Errorf("wire: inflate: %w", err)
	}
	// The stream must end exactly at rawLen: trailing decompressed data
	// means the envelope lied about the length.
	var tail [1]byte
	if n, _ := fr.Read(tail[:]); n != 0 {
		return nil, fmt.Errorf("wire: inflate: stream exceeds declared %d bytes", rawLen)
	}
	return dst, nil
}
