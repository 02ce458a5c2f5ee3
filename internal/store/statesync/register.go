package statesync

import (
	"repro/internal/spec"
	"repro/internal/store"
)

func init() {
	store.Register("statesync", func(types spec.Types, _ store.Options) store.Store {
		return New(types)
	})
}

// Conformance implements store.ConformanceReporter: every broadcast carries
// the replica's full state, so any post-loss mutation's message subsumes all
// previously dropped ones and convergence survives genuine message loss.
func (s *Store) Conformance() store.Conformance {
	return store.Conformance{ConvergesUnderLoss: true}
}
