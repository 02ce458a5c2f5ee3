package cluster

import (
	"repro/internal/model"
	"repro/internal/wire"
)

// This file is the deterministic measurement surface behind cmd/loadgen
// -wirebench. The interesting numbers of the wire format — wire bytes per
// operation, frames per operation, allocations per operation — are pure
// functions of the encoded workload, so they are measured here on the
// encode paths alone, with no sockets or timers involved: the tracked
// BENCH_WIRE.json must be byte-identical across runs of the same flags and
// seed, which live TCP dynamics (redial timing, batching windows)
// can never promise. Throughput and latency are benchmark/'s to measure.

// BenchUpdates is a fixed sequence of synthetic updates for wire-path
// benchmarking.
type BenchUpdates []protoUpdate

// NewBenchUpdates wraps broadcast payloads as origin-0 updates with
// consecutive sequence numbers, the shape a node's own broadcasts have on
// its links.
func NewBenchUpdates(payloads [][]byte) BenchUpdates {
	us := make(BenchUpdates, len(payloads))
	for i, p := range payloads {
		us[i] = protoUpdate{
			Origin: model.ReplicaID(0), Seq: uint64(i + 1),
			Lamport: uint64(i + 1), Payload: p,
		}
	}
	return us
}

// EncodeBatched runs the replication send path: tBatch frames of one
// shard-0 section of up to batch updates each, encoded against the run state
// the frames before carried and coded through one LZ stream, as on one
// connection, and built in one pooled writer with the frame header patched
// in place — byte-for-byte what a link writes after its hello ack, before
// the compression envelope. Returns total wire bytes (headers included) and
// frames.
func (us BenchUpdates) EncodeBatched(batch int) (bytes, frames int64) {
	if batch < 1 {
		batch = 1
	}
	enc, raw := wire.GetWriter(), wire.GetWriter()
	defer wire.PutWriter(enc)
	defer wire.PutWriter(raw)
	var run runState
	var lz wire.StreamEncoder
	for off := 0; off < len(us); {
		end := min(off+batch, len(us))
		raw.Reset()
		raw.Uvarint(0)
		appendRun(raw, &run, us[off:end])
		enc.Reset()
		enc.BeginFrame()
		appendBatch(enc, &lz, raw.Bytes())
		frame, err := enc.EndFrame(historyMaxFrame)
		if err != nil {
			return bytes, frames // unreachable for sane payloads
		}
		bytes += int64(len(frame))
		frames++
		off = end
	}
	return bytes, frames
}

// EncodeRange runs the anti-entropy donor path: tRangeResp chunks of up to
// chunkMax updates cut by cutBatch, as serveRange cuts them, as encoded
// (compress false) or as sent, behind the tCompressed envelope (compress
// follows maybeCompressPayload's gates, so sub-floor or incompressible
// chunks ship raw there too). Returns total wire bytes (headers included)
// and frames.
func (us BenchUpdates) EncodeRange(chunkMax, maxFrame int, compress bool) (bytes, frames int64) {
	if chunkMax < 1 {
		chunkMax = 1
	}
	if maxFrame <= 0 {
		maxFrame = wire.DefaultMaxFrame
	}
	w := wire.GetWriter()
	defer wire.PutWriter(w)
	for rest := []protoUpdate(us); len(rest) > 0; {
		n := cutBatch(rest, chunkMax, 0, maxFrame-64)
		w.Reset()
		appendRange(w, 0, rest[0].Origin, rest[:n])
		bytes += wireLen(w, compress)
		frames++
		rest = rest[n:]
	}
	return bytes, frames
}

// EncodeHistoryFrame measures one history reply (tHistoryResp) holding the
// given events, as encoded or as sent — the client-download path's bulk
// frame, built the way a node builds it: the events recorded into a log, the
// log's blocks framed. Returns the frame's wire length, header included.
func EncodeHistoryFrame(events []Event, compress bool) (int64, error) {
	var log eventLog
	for _, ev := range events {
		if _, _, _, err := log.append(ev); err != nil {
			return 0, err
		}
	}
	w := wire.GetWriter()
	defer wire.PutWriter(w)
	w.Uvarint(tHistoryResp)
	log.snapshot(History{Node: 0, N: 1, Store: "bench"}).appendTo(w)
	return wireLen(w, compress), nil
}

// wireLen is the wire length, header included, of the bulk frame whose
// payload w holds: as encoded, or (compress) as writeEnc sends it, through
// a compressor borrowed for the frame.
func wireLen(w *wire.Writer, compress bool) int64 {
	if compress {
		z := wire.GetDeflater()
		defer wire.PutDeflater(z)
		if env, frame := maybeCompressPayload(w.Bytes(), z); env != nil {
			defer wire.PutWriter(env)
			return int64(len(frame))
		}
	}
	return int64(w.Len() + wire.FrameHeaderLen(w.Len()))
}
