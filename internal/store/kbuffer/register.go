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

// Options implements store.OptionsReporter: the K the store was built with.
func (s *Store) Options() store.Options { return store.Options{K: s.k} }

// Conformance implements store.ConformanceReporter: reads age the withheld
// queue (visible reads by design), a received update surfaces only after K
// local reads, so K read rounds expose everything — a read ages the queue
// before it evaluates, so the K-th sees what it exposes — and held payloads
// deduplicate only at exposure time.
func (s *Store) Conformance() store.Conformance {
	return store.Conformance{
		ViolatesInvisibleReads: true,
		ConvergenceReadRounds:  s.k,
		TransientDeliveryState: true,
	}
}
