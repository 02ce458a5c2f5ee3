package causal

import (
	"repro/internal/spec"
	"repro/internal/store"
)

// The causal store registers itself so binaries address it by name instead
// of duplicating constructor switches. Its ablations (Options: sparse
// dependency clocks, per-update messages) are not registered stores: the
// experiments that measure them build them with NewWithOptions.
func init() {
	store.Register("causal", func(types spec.Types, _ store.Options) store.Store {
		return New(types)
	})
}
