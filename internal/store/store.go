// Package store defines the replica state-machine interface of the paper's
// §2 model — replicas handle client operations immediately (high
// availability), broadcast messages, and receive messages — together with
// checkable forms of the two write-propagating properties of §4:
// op-driven messages (Definition 15) and invisible reads (Definition 16).
//
// Concrete data stores live in the subpackages: store/causal (the flagship
// causally+eventually consistent store), store/lww (a store that totally
// orders concurrent writes, hiding concurrency), and store/kbuffer (the §5.3
// counterexample whose reads are not invisible).
package store

import (
	"bytes"
	"fmt"

	"repro/internal/model"
	"repro/internal/spec"
)

// Replica is the state machine R = (Σ, σ₀, E, Δ) of §2, exposed through its
// three event kinds. All methods are single-threaded: the simulator drives
// each replica from one goroutine, which models the paper's interleaving
// semantics directly.
type Replica interface {
	// ID returns the replica's identity.
	ID() model.ReplicaID

	// Do applies a client operation and immediately returns its response,
	// without communicating with other replicas (the high-availability
	// requirement of the model).
	Do(obj model.ObjectID, op model.Operation) model.Response

	// PendingMessage returns the broadcast payload the replica wants to
	// send, or nil if no message is pending. Only nil means none: an empty,
	// non-nil payload is a message, and is sent, recorded and delivered as
	// one. The result is lent, not given: it is valid until the replica's
	// next Do, Receive, OnSend or PendingMessage, after which the replica may
	// encode its next message over it. A caller that keeps it copies it
	// first (the simulator into its message table, a node into its history
	// before OnSend), so a replica encodes every message into one buffer it
	// owns. Receive keeps what it is handed (see there), so a lent message
	// is copied before it is delivered, to this replica or any other. Per
	// the model, the content is a deterministic function of the state, and
	// a single send relays everything the replica has to send.
	PendingMessage() []byte

	// OnSend transitions the replica past its send event; afterwards no
	// message is pending (the model's assumption that a send event relays
	// everything the replica has to send).
	OnSend()

	// Receive applies a received broadcast payload. Duplicate and reordered
	// deliveries must be tolerated (well-formed executions permit them).
	// The payload is given, not lent: it is immutable from the call on, and
	// the replica may keep views of it (the causal store's values are) for
	// as long as it lives. So a caller hands over a copy nothing writes
	// again — a node its history's receive record, the simulator its
	// message table's entry — never a connection's frame buffer or a
	// pending message still lent by its sender.
	Receive(payload []byte)

	// StateDigest returns a deterministic fingerprint of the full replica
	// state σ, used by convergence checks (Lemma 3) and as the explorer's
	// visited-set key. It is string(AppendStateDigest(nil)).
	StateDigest() string

	// AppendStateDigest appends the StateDigest bytes to dst and returns the
	// extended slice, rendering σ from scratch on every call. The
	// invisible-reads checker (Definition 16) renders through it into
	// buffers it reuses, so a warm render need not allocate.
	AppendStateDigest(dst []byte) []byte
}

// Store is a data store D: a named factory of replicas sharing a
// configuration.
type Store interface {
	// Name identifies the store in reports.
	Name() string
	// NewReplica creates the replica with the given identity in a population
	// of n replicas.
	NewReplica(id model.ReplicaID, n int) Replica
	// Types returns the object typing the store serves.
	Types() spec.Types
}

// PreferredWireCodec returns "binary", the one codec every store's payloads
// travel in. Nothing in this module calls it: it stays only because the
// frozen benchmark/trace.go does, and goes with the next benchmark change
// (ROADMAP item 1(c)).
func PreferredWireCodec(Store) string { return "binary" }

// DotReporter is implemented by replicas that can identify their latest
// local mutator with a dot, letting the simulator derive the visibility
// relation of the run.
type DotReporter interface {
	// LastDot returns the dot of the most recent local mutator, and whether
	// one exists.
	LastDot() (model.Dot, bool)
}

// VisReporter is implemented by replicas that can report which update dots
// are currently visible to their reads. The simulator snapshots this at each
// do event to derive the abstract execution the run complies with.
type VisReporter interface {
	// Sees reports whether the update identified by d is visible to client
	// operations at this replica in its current state.
	Sees(d model.Dot) bool
}

// PropertyViolation describes a detected violation of a §4 property.
type PropertyViolation struct {
	Property string
	Replica  model.ReplicaID
	Detail   string
}

// Error implements error.
func (v *PropertyViolation) Error() string {
	return fmt.Sprintf("store: %s violated at r%d: %s", v.Property, v.Replica, v.Detail)
}

// PropertyChecker drives a replica's three transitions and reports
// violations of the write-propagating store properties:
//
//   - invisible reads (Definition 16): a read leaves the state unchanged;
//   - op-driven messages (Definition 15): no message is pending initially,
//     and receiving a message never creates a pending message where none
//     existed.
//
// Every engine wires one checker around every replica it drives and makes
// every do, receive and send through it. Because the checker sees every
// transition, it knows when the state it rendered after one read is still
// the state before the next: a read directly following a checked read
// reuses that render as its "before" instead of rendering σ again. Any
// other transition invalidates the render. If the replica changed between
// the two reads anyway (a transition made behind the checker), the stale
// "before" differs from the fresh "after" and the read is reported — reuse
// can only flag more, never less.
type PropertyChecker struct {
	replica    Replica
	violations []*PropertyViolation

	// before and after are the two renders of the read being checked,
	// swapped rather than reallocated. afterCurrent means after holds σ as
	// rendered at the end of the previous transition, which was a read.
	before, after []byte
	afterCurrent  bool
}

// NewPropertyChecker wraps a freshly created replica and immediately checks
// Definition 15(1): no message pending in the initial state.
func NewPropertyChecker(r Replica) *PropertyChecker {
	c := &PropertyChecker{replica: r}
	if r.PendingMessage() != nil {
		c.report("op-driven messages", "message pending in initial state σ₀")
	}
	return c
}

func (c *PropertyChecker) report(property, detail string) {
	c.violations = append(c.violations, &PropertyViolation{
		Property: property,
		Replica:  c.replica.ID(),
		Detail:   detail,
	})
}

// CheckDo performs a do event on the replica; for reads it compares the
// full state rendered before and after (Definition 16).
func (c *PropertyChecker) CheckDo(obj model.ObjectID, op model.Operation) model.Response {
	if op.Kind != model.OpRead {
		c.afterCurrent = false
		return c.replica.Do(obj, op)
	}
	if c.afterCurrent {
		c.before, c.after = c.after, c.before
	} else {
		c.before = c.replica.AppendStateDigest(c.before[:0])
	}
	resp := c.replica.Do(obj, op)
	c.after = c.replica.AppendStateDigest(c.after[:0])
	c.afterCurrent = true
	if !bytes.Equal(c.before, c.after) {
		c.report("invisible reads", fmt.Sprintf("read of %s changed replica state", obj))
	}
	return resp
}

// CheckReceive performs a receive event on the replica, enforcing
// Definition 15(2): if no message was pending before the receive, none may
// be pending after.
func (c *PropertyChecker) CheckReceive(payload []byte) {
	c.afterCurrent = false
	pendingBefore := c.replica.PendingMessage() != nil
	c.replica.Receive(payload)
	if !pendingBefore && c.replica.PendingMessage() != nil {
		c.report("op-driven messages", "receive created a pending message")
	}
}

// OnSend moves the replica past its send event.
func (c *PropertyChecker) OnSend() {
	c.afterCurrent = false
	c.replica.OnSend()
}

// Violations returns all violations observed so far.
func (c *PropertyChecker) Violations() []*PropertyViolation { return c.violations }

// Err returns the first violation as an error, or nil.
func (c *PropertyChecker) Err() error {
	if len(c.violations) == 0 {
		return nil
	}
	return c.violations[0]
}
