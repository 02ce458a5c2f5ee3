package gsp

import (
	"testing"

	"repro/internal/model"
	"repro/internal/spec"
)

// FuzzReceive feeds arbitrary bytes to both the sequencer and a follower.
func FuzzReceive(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x02, 0x01})
	src := New(spec.MVRTypes()).NewReplica(1, 3)
	src.Do("x", model.Write("a"))
	f.Add(src.PendingMessage())
	// Counts the peer chose, as large as the payload's length lets them be.
	f.Add(hostileCount(4096, 4096-16))
	f.Add(hostileCount(4096, 4096/minRecBytes-1))
	f.Fuzz(func(t *testing.T, payload []byte) {
		for _, id := range []model.ReplicaID{0, 2} {
			r := New(spec.MVRTypes()).NewReplica(id, 3)
			r.Receive(payload)
			_ = r.Do("x", model.Read())
			_ = r.StateDigest()
			_ = r.PendingMessage()
		}
	})
}
