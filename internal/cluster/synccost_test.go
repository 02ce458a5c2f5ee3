package cluster

import (
	"fmt"
	"testing"
)

// TestSyncCostModel pins the shape of the deterministic catch-up cost
// table: a full-prefix joiner pulls nothing, an empty joiner's pull costs
// what a full transfer costs, costs shrink monotonically as the prefix
// grows, and batching cuts the chunk count and the bytes.
func TestSyncCostModel(t *testing.T) {
	payloads := make([][]byte, 100)
	for i := range payloads {
		payloads[i] = []byte(fmt.Sprintf("payload-%04d", i))
	}

	full := SyncCost(payloads, 0)
	if full.Pulled != 100 || full.PulledBytes != full.FullBytes {
		t.Fatalf("empty joiner must pull everything: %+v", full)
	}
	if want := int64((100 + BatchMax - 1) / BatchMax); full.Chunks != want {
		t.Fatalf("BatchMax chunking: %d chunks for 100 updates, want %d", full.Chunks, want)
	}

	done := SyncCost(payloads, 100)
	if done.Pulled != 0 || done.Chunks != 0 || done.PulledBytes != 0 {
		t.Fatalf("full-prefix joiner must pull nothing: %+v", done)
	}
	if done.DigestBytes == 0 {
		t.Fatal("digest exchange is never free")
	}

	prev := full
	for _, p := range []int{25, 50, 90} {
		row := SyncCost(payloads, p)
		if row.Pulled != int64(100-p) {
			t.Fatalf("prefix %d: pulled %d, want %d", p, row.Pulled, 100-p)
		}
		if row.PulledBytes >= prev.PulledBytes {
			t.Fatalf("prefix %d: pull bytes %d did not shrink below %d", p, row.PulledBytes, prev.PulledBytes)
		}
		if row.FullBytes != full.FullBytes {
			t.Fatalf("prefix %d: full-transfer baseline moved: %d != %d", p, row.FullBytes, full.FullBytes)
		}
		prev = row
	}

	// Per-update framing: a chunk for each update, the sum of one-update rows.
	var unbatched int64
	for _, p := range payloads {
		row := SyncCost([][]byte{p}, 0)
		if row.Chunks != 1 {
			t.Fatalf("a one-update log pulled in %d chunks", row.Chunks)
		}
		unbatched += row.PulledBytes
	}
	if unbatched <= full.PulledBytes {
		t.Fatalf("per-update framing costs %d bytes, no more than BatchMax chunks' %d", unbatched, full.PulledBytes)
	}

	// Determinism: same inputs, same row.
	if a, b := SyncCost(payloads, 50), SyncCost(payloads, 50); a != b {
		t.Fatalf("SyncCost not deterministic: %+v vs %+v", a, b)
	}
}
