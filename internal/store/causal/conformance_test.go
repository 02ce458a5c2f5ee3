package causal_test

import (
	"testing"

	"repro/internal/spec"
	"repro/internal/store"
	"repro/internal/store/causal"
	"repro/internal/store/storetest"
)

// TestSparseConformance runs the battery on the sparse-clock variant, which
// is not a registered store: the registered causal store runs it under
// TestRegisteredStoresConform with dense clocks, and this holds the other
// encoding to the same full contract. The per-update variant cannot pass
// it (a send relays one update, not the outbox); the Options loops of this
// package's tests cover it instead.
func TestSparseConformance(t *testing.T) {
	storetest.Run(t, func() store.Store {
		return causal.NewWithOptions(spec.MVRTypes(), causal.Options{SparseDeps: true})
	})
}
