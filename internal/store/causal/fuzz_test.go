package causal

import (
	"testing"

	"repro/internal/model"
	"repro/internal/spec"
)

// FuzzReceive feeds arbitrary bytes to a replica: Receive must never panic,
// and a payload that fails to decode must leave the state untouched.
func FuzzReceive(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	// A genuine payload as a seed.
	src := New(spec.MVRTypes()).NewReplica(0, 2)
	src.Do("x", model.Write("a"))
	f.Add(src.PendingMessage())
	// Counts the peer chose, as large as the payload's length lets them be.
	f.Add(hostileCount(4096, 4096-16))
	f.Add(hostileCount(4096, 4096/minUpdateBytes-1))
	f.Fuzz(func(t *testing.T, payload []byte) {
		r := New(spec.MVRTypes()).NewReplica(1, 2)
		r.Receive(payload)
		// State must remain serviceable.
		_ = r.Do("x", model.Read())
		_ = r.StateDigest()
	})
}
