package cluster

import (
	"fmt"
	"testing"
)

// TestSyncCostModel pins the shape of the deterministic catch-up cost
// table: a full-prefix joiner pulls nothing, an empty joiner's pull costs
// what a full transfer costs, costs shrink monotonically as the prefix
// grows, and batching cuts the chunk count.
func TestSyncCostModel(t *testing.T) {
	payloads := make([][]byte, 100)
	for i := range payloads {
		payloads[i] = []byte(fmt.Sprintf("payload-%04d", i))
	}

	full := SyncCost(payloads, 0, 16, 0)
	if full.Pulled != 100 || full.PulledBytes != full.FullBytes {
		t.Fatalf("empty joiner must pull everything: %+v", full)
	}
	if full.Chunks != 100/16+1 {
		t.Fatalf("batch-16 chunking: %d chunks for 100 updates, want %d", full.Chunks, 100/16+1)
	}

	done := SyncCost(payloads, 100, 16, 0)
	if done.Pulled != 0 || done.Chunks != 0 || done.PulledBytes != 0 {
		t.Fatalf("full-prefix joiner must pull nothing: %+v", done)
	}
	if done.DigestBytes == 0 {
		t.Fatal("digest exchange is never free")
	}

	prev := full
	for _, p := range []int{25, 50, 90} {
		row := SyncCost(payloads, p, 16, 0)
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

	unbatched := SyncCost(payloads, 0, 1, 0)
	if unbatched.Chunks != 100 {
		t.Fatalf("JSON-floor chunking: %d chunks, want 100", unbatched.Chunks)
	}
	if unbatched.PulledBytes <= full.PulledBytes {
		t.Fatal("per-update framing should cost more bytes than batch-16")
	}

	// Determinism: same inputs, same row.
	if a, b := SyncCost(payloads, 50, 16, 0), SyncCost(payloads, 50, 16, 0); a != b {
		t.Fatalf("SyncCost not deterministic: %+v vs %+v", a, b)
	}
}
