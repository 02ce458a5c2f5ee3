package gsp

import (
	"repro/internal/spec"
	"repro/internal/store"
)

func init() {
	store.Register("gsp", func(types spec.Types, _ store.Options) store.Store {
		return New(types)
	})
}

// Conformance implements store.ConformanceReporter: the sequencer generates
// commit messages in response to received proposals, violating Definition
// 15 by design, and it assigns global positions in arrival order, so
// delivery order is semantically significant.
func (s *Store) Conformance() store.Conformance {
	return store.Conformance{
		ViolatesOpDrivenMessages: true,
		OrdersDeliveries:         true,
	}
}
