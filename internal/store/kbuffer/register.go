package kbuffer

import (
	"repro/internal/spec"
	"repro/internal/store"
)

func init() {
	store.Register("kbuffer", func(types spec.Types, opts store.Options) store.Store {
		k := opts.K
		if k == 0 {
			k = 2
		}
		return New(types, k)
	})
}

// Conformance implements store.ConformanceReporter: reads age the withheld
// queue (visible reads by design), a received update surfaces only after K
// local reads, so K+1 read rounds expose everything, and held payloads
// deduplicate only at exposure time.
func (s *Store) Conformance() store.Conformance {
	return store.Conformance{
		ViolatesInvisibleReads: true,
		ConvergenceReadRounds:  s.k + 1,
		TransientDeliveryState: true,
	}
}
