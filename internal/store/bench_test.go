package store_test

import (
	"fmt"
	"testing"

	"repro/internal/model"
	"repro/internal/spec"
	"repro/internal/store"
)

// The digest render is the O(keys) term every checked read pays. These
// track it per store and per state size, with allocations, so whoever
// attacks the remaining CPU cost has a before row.
//
//	go test ./internal/store -run '^$' -bench . -benchmem

var benchKeys = []int{64, 1024, 16384}

// populated returns replica 0 of a 3-replica population holding keys
// written objects, its outbox drained.
func populated(b *testing.B, name string, keys int) store.Replica {
	b.Helper()
	st, err := store.Open(name, spec.MVRTypes(), store.Options{})
	if err != nil {
		b.Fatal(err)
	}
	r := st.NewReplica(0, 3)
	for i := 0; i < keys; i++ {
		r.Do(model.ObjectID(fmt.Sprintf("k%06d", i)), model.Write("0123456789abcdef"))
	}
	for r.PendingMessage() != nil {
		r.OnSend()
	}
	return r
}

var digestSink []byte

func BenchmarkAppendStateDigest(b *testing.B) {
	for _, name := range store.Names() {
		for _, keys := range benchKeys {
			b.Run(fmt.Sprintf("%s/keys=%d", name, keys), func(b *testing.B) {
				r := populated(b, name, keys)
				buf := r.AppendStateDigest(nil)
				b.SetBytes(int64(len(buf)))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					buf = r.AppendStateDigest(buf[:0])
				}
				digestSink = buf
			})
		}
	}
}

// BenchmarkCheckDoRead is the serving path's read: PropertyChecker.CheckDo
// on back-to-back reads, so each costs one render (the previous read's
// "after" is this one's "before") plus the compare.
func BenchmarkCheckDoRead(b *testing.B) {
	for _, name := range store.Names() {
		for _, keys := range benchKeys {
			b.Run(fmt.Sprintf("%s/keys=%d", name, keys), func(b *testing.B) {
				r := populated(b, name, keys)
				c := store.NewPropertyChecker(r)
				c.CheckDo("k000000", model.Read())
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					c.CheckDo("k000000", model.Read())
				}
				b.StopTimer()
				if err := c.Err(); err != nil {
					b.Fatal(err)
				}
			})
		}
	}
}
