package kbuffer_test

import (
	"testing"

	"repro/internal/spec"
	"repro/internal/store"
	"repro/internal/store/kbuffer"
	"repro/internal/store/storetest"
)

// TestConformance runs the battery at K = 3. The registered store runs at its
// default K = 2 under TestRegisteredStoresConform, so this holds a second K
// to the claims it declares (K+1 = 4 read rounds to converge).
func TestConformance(t *testing.T) {
	storetest.Run(t, func() store.Store { return kbuffer.New(spec.MVRTypes(), 3) })
}
