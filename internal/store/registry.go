package store

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/spec"
)

// Options carries the store-specific construction knobs a Factory may
// consult. Stores ignore fields that do not apply to them, so one Options
// value can be threaded through a generic CLI surface.
type Options struct {
	// K is the K-buffer read-aging depth (0 means the store default).
	K int `json:"k,omitempty"`
}

// OptionsReporter is implemented by a store built from Options it
// consults: Options returns them, so a driver that sees the store only
// through a remote node's stats can open the same store from the registry.
type OptionsReporter interface {
	Options() Options
}

// OptionsOf returns the Options s reports, or the zero Options for a store
// that consults none.
func OptionsOf(s Store) Options {
	if r, ok := s.(OptionsReporter); ok {
		return r.Options()
	}
	return Options{}
}

// Factory instantiates a registered store for the given object types.
type Factory func(types spec.Types, opts Options) Store

var (
	registryMu sync.RWMutex
	registry   = map[string]Factory{}
)

// Register adds a named store factory to the process-wide registry. Store
// packages call it from init, so importing a store package (directly or via
// internal/cli) makes it addressable by name everywhere — the single source
// of truth replacing per-binary store switch statements. Register panics on
// an empty name or a duplicate registration: both are programmer errors.
func Register(name string, f Factory) {
	if name == "" || f == nil {
		panic("store: Register needs a name and a factory")
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("store: duplicate registration of %q", name))
	}
	registry[name] = f
}

// Lookup returns the factory registered under name.
func Lookup(name string) (Factory, bool) {
	registryMu.RLock()
	defer registryMu.RUnlock()
	f, ok := registry[name]
	return f, ok
}

// Open instantiates the named store, or lists the registered names in its
// error so CLI surfaces get a helpful message for free.
func Open(name string, types spec.Types, opts Options) (Store, error) {
	f, ok := Lookup(name)
	if !ok {
		return nil, fmt.Errorf("store: unknown store %q (registered: %v)", name, Names())
	}
	return f(types, opts), nil
}

// Names returns the registered store names, sorted.
func Names() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Conformance declares how a store deviates from the default conformance
// contract. It is the one declaration every driver reads — the conformance
// battery (storetest.RunRegistered), the explorer, the simulator, the chaos
// search and the cluster's settle-and-audit pipeline — so none keys on a
// store's name. The zero value claims the full contract: invisible reads,
// op-driven messages, one read round exposes everything, one send drains
// the outbox, duplicate deliveries are digest-idempotent, independent
// deliveries commute, and a lost message is gone for good.
type Conformance struct {
	// ViolatesInvisibleReads: reads change replica state by design
	// (Definition 16 fails; the K-buffer store).
	ViolatesInvisibleReads bool
	// ViolatesOpDrivenMessages: receives create pending messages by design
	// (Definition 15 fails; the GSP sequencer).
	ViolatesOpDrivenMessages bool
	// ConvergenceReadRounds is how many read rounds expose withheld state
	// before convergence is asserted (0 means one round): a store whose
	// received updates surface only as local reads elapse (the K-buffer
	// store) needs more.
	ConvergenceReadRounds int
	// MaxSendsToDrain bounds consecutive sends needed to empty the outbox
	// (0 means one; per-update batching needs one send per update).
	MaxSendsToDrain int
	// TransientDeliveryState: redelivery is tolerated but not
	// digest-identical (the K-buffer holds duplicate payloads until
	// exposure).
	TransientDeliveryState bool
	// OrdersDeliveries: delivery order is semantically significant, so
	// independent deliveries need not commute (the GSP sequencer assigns
	// positions in arrival order).
	OrdersDeliveries bool
	// ConvergesUnderLoss: the store reconverges through genuine message loss
	// (the state-sync store: any later broadcast carries the full state,
	// subsuming every dropped message). For every other store a dropped
	// update is gone, since the model has no retransmission, and a lossy
	// run's convergence cannot be asserted.
	ConvergesUnderLoss bool
}

// ConformanceReporter is implemented by stores whose conformance deviates
// from the zero-value Conformance contract.
type ConformanceReporter interface {
	Conformance() Conformance
}

// ConformanceOf returns what st declares: its Conformance, or the zero
// value — the full contract — when it declares none or st is nil.
func ConformanceOf(st Store) Conformance {
	if cr, ok := st.(ConformanceReporter); ok {
		return cr.Conformance()
	}
	return Conformance{}
}
