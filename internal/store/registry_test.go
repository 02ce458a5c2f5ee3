package store_test

import (
	"strings"
	"testing"

	// The cli package's blank imports register every store; importing it here
	// keeps this test aligned with what the commands actually see.
	_ "repro/internal/cli"
	"repro/internal/spec"
	"repro/internal/store"
)

func TestRegistryHasEveryStore(t *testing.T) {
	want := []string{"causal", "causal-perupdate", "causal-sparse", "gsp", "kbuffer", "lww", "statesync"}
	got := store.Names()
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("registered names = %v, want %v", got, want)
	}
	for _, name := range want {
		st, err := store.Open(name, spec.MVRTypes(), store.Options{K: 2})
		if err != nil {
			t.Fatalf("Open(%s): %v", name, err)
		}
		if st == nil {
			t.Fatalf("Open(%s) returned a nil store", name)
		}
	}
}

func TestOpenUnknownStoreListsNames(t *testing.T) {
	_, err := store.Open("nope", spec.MVRTypes(), store.Options{})
	if err == nil {
		t.Fatal("expected an error for an unknown store")
	}
	if !strings.Contains(err.Error(), "causal") || !strings.Contains(err.Error(), "gsp") {
		t.Fatalf("error should list the registered stores: %v", err)
	}
}

func TestRegisterRejectsDuplicates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register should panic")
		}
	}()
	store.Register("causal", func(types spec.Types, opts store.Options) store.Store { return nil })
}

// TestStoreTraits pins what the drivers read off each store's Conformance:
// the K-buffer store makes reads visible, needs K read rounds (3 at
// K = 3) and holds redeliveries until exposure; gsp violates op-driven
// messages and orders its deliveries; the per-update causal store needs a
// send per update; statesync converges through loss; and the other stores
// declare none of it.
func TestStoreTraits(t *testing.T) {
	want := map[string]store.Conformance{
		"kbuffer":          {ViolatesInvisibleReads: true, ConvergenceReadRounds: 3, TransientDeliveryState: true},
		"gsp":              {ViolatesOpDrivenMessages: true, OrdersDeliveries: true},
		"causal-perupdate": {MaxSendsToDrain: 4},
		"statesync":        {ConvergesUnderLoss: true},
	}
	for _, name := range store.Names() {
		st, err := store.Open(name, spec.MVRTypes(), store.Options{K: 3})
		if err != nil {
			t.Fatal(err)
		}
		if got := store.ConformanceOf(st); got != want[name] {
			t.Errorf("%s declares %+v, want %+v", name, got, want[name])
		}
	}
	if store.ConformanceOf(nil) != (store.Conformance{}) {
		t.Error("a nil store declares something")
	}
}
