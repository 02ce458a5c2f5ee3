package cluster

import (
	"repro/internal/membership"
	"repro/internal/model"
	"repro/internal/wire"
)

// This file is the deterministic measurement surface behind cmd/loadgen
// -syncbench, companion to benchwire.go: the cost of an anti-entropy
// catch-up is a pure function of the donor's log and the joiner's prefix,
// so it is computed on the encode paths alone — the same appenders
// serveRange and catchUp use and the same cutBatch — with no sockets or
// timers. The tracked BENCH_SYNC.json must be byte-identical across runs
// of the same flags and seed.

// SyncCostRow quantifies one catch-up scenario: a joiner holding the first
// Prefix of the donor's Updates origin-0 log.
type SyncCostRow struct {
	// Updates is the donor's log size, Prefix what the joiner already has.
	Updates int
	Prefix  int
	// DigestBytes is the membership handshake cost: the joiner's tDigest
	// frame plus the donor's tDigestResp (counts, roots, and the prefix
	// root that proves the joiner's log is a clean prefix).
	DigestBytes int64
	// Pulled/Chunks/PulledBytes are the range-transfer cost: missing
	// updates shipped, chunks used, and total wire bytes — the tRangeResp
	// frames the donor streams, and nothing back.
	Pulled      int64
	Chunks      int64
	PulledBytes int64
	// FullBytes is the same transfer without anti-entropy: the whole log
	// shipped through the identical chunking. The tracked ratio
	// PulledBytes/FullBytes is the paper-relevant saving — catch-up work
	// proportional to what was missed, not to history length.
	FullBytes int64
}

// SyncCost computes the catch-up cost table entry for a joiner holding the
// first prefix updates of a donor log made of the given payloads (origin
// 0, consecutive sequence numbers — the BenchUpdates shape), its range
// transfer cut as serveRange cuts it (EncodeRange).
func SyncCost(payloads [][]byte, prefix int) SyncCostRow {
	if prefix > len(payloads) {
		prefix = len(payloads)
	}
	us := NewBenchUpdates(payloads)

	donor := membership.NewForest(1)
	joiner := membership.NewForest(1)
	for i, u := range us {
		donor.Append(0, u.Seq, u.Payload)
		if i < prefix {
			joiner.Append(0, u.Seq, u.Payload)
		}
	}
	row := SyncCostRow{Updates: len(us), Prefix: prefix}
	jd := []originDigest{{Origin: model.ReplicaID(0), Count: joiner.Count(0), Root: joiner.Root(0)}}
	// The joiner holds exactly the donor's first prefix updates, so its root
	// is the prefix root the donor would prove them with.
	dd := []originDigest{{
		Origin: model.ReplicaID(0), Count: donor.Count(0), Root: donor.Root(0),
		PrefixRoot: joiner.Root(0),
	}}
	w := wire.GetWriter()
	defer wire.PutWriter(w)
	appendDigest(w, tDigest, 0, jd)
	row.DigestBytes = wireLen(w, false)
	w.Reset()
	appendDigest(w, tDigestResp, 0, dd)
	row.DigestBytes += wireLen(w, false)
	row.Pulled = int64(len(us) - prefix)
	row.PulledBytes, row.Chunks = us[prefix:].EncodeRange(false)
	row.FullBytes, _ = us.EncodeRange(false)
	return row
}
