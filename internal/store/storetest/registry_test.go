package storetest_test

import (
	"testing"

	"repro/internal/store"
	"repro/internal/store/storetest"

	// Populate the registry with every store of the repository, exactly as
	// internal/cli does for the binaries.
	_ "repro/internal/store/causal"
	_ "repro/internal/store/gsp"
	_ "repro/internal/store/kbuffer"
	_ "repro/internal/store/lww"
	_ "repro/internal/store/statesync"
)

// TestRegisteredStoresConform sweeps the registry: every registered name
// gets the full conformance battery, held to the store's own Conformance
// declaration.
func TestRegisteredStoresConform(t *testing.T) {
	storetest.RunRegistered(t, store.Options{})
}
