// Package model defines the vocabulary of the PODC'15 replicated data store
// model (Attiya, Ellen, Morrison): replica and object identifiers, client
// operations and responses, the three kinds of events (do, send, receive),
// and broadcast messages.
//
// Everything else in this repository — concrete executions, abstract
// executions, object specifications, stores, and the theorem constructions —
// is phrased in terms of these types.
package model

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// ReplicaID identifies a replica. Replicas are numbered 0..n-1.
type ReplicaID int

// ObjectID names a replicated object (the paper's o).
type ObjectID string

// Value is the value written to, or read from, a replicated object. The
// paper assumes each write writes a distinct value so that a write event and
// its value can be identified; generators in this repository enforce that.
type Value string

// OpKind enumerates the client operations supported by the replicated object
// types of Figure 1 (read/write register, MVR, ORset) plus the PN-counter
// extension.
type OpKind int

// Operation kinds. OpRead applies to every object type.
const (
	OpRead OpKind = iota + 1
	OpWrite
	OpAdd
	OpRemove
	OpInc
)

// String returns the lower-case operation name.
func (k OpKind) String() string {
	switch k {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpAdd:
		return "add"
	case OpRemove:
		return "remove"
	case OpInc:
		return "inc"
	default:
		return fmt.Sprintf("opkind(%d)", int(k))
	}
}

// IsMutator reports whether the operation kind updates object state (i.e. is
// not a read).
func (k OpKind) IsMutator() bool { return k != OpRead }

// Operation is a client operation op invoked on a replicated object.
type Operation struct {
	Kind OpKind
	// Arg is the value written/added/removed. Unused for reads and counter
	// increments.
	Arg Value
	// Delta is the increment amount for OpInc (may be negative, giving a
	// PN-counter decrement).
	Delta int64
}

// Read returns a read operation.
func Read() Operation { return Operation{Kind: OpRead} }

// Write returns a write(v) operation.
func Write(v Value) Operation { return Operation{Kind: OpWrite, Arg: v} }

// Add returns an add(v) operation (ORset).
func Add(v Value) Operation { return Operation{Kind: OpAdd, Arg: v} }

// Remove returns a remove(v) operation (ORset).
func Remove(v Value) Operation { return Operation{Kind: OpRemove, Arg: v} }

// Inc returns an inc(delta) operation (PN-counter).
func Inc(delta int64) Operation { return Operation{Kind: OpInc, Delta: delta} }

// String renders the operation as, e.g., "write(a)" or "read".
func (op Operation) String() string {
	switch op.Kind {
	case OpRead:
		return "read"
	case OpInc:
		return fmt.Sprintf("inc(%d)", op.Delta)
	default:
		return fmt.Sprintf("%s(%s)", op.Kind, op.Arg)
	}
}

// Response is the value rval(e) returned by a do event. Mutators return OK;
// reads return a set of values (a singleton for registers, possibly several
// for MVRs and ORsets) or a counter total.
type Response struct {
	// OK is true for mutator acknowledgements.
	OK bool
	// Values is the sorted set of values returned by a read.
	Values []Value
	// Count is the total returned by a counter read.
	Count int64
}

// OKResponse is the acknowledgement returned by every mutator.
func OKResponse() Response { return Response{OK: true} }

// ReadResponse builds a read response from a set of values, sorting and
// deduplicating them so that responses compare canonically. The values stay
// the caller's: the response holds a copy. A read of nothing still returns
// a non-nil, empty Values — "the read returned no value", which the codecs
// tell apart from "no read".
func ReadResponse(values []Value) Response {
	vs := make([]Value, len(values))
	copy(vs, values)
	return ReadResponseOf(vs)
}

// ReadResponseOf is ReadResponse for a slice the caller hands over: it is
// sorted and deduplicated in place and becomes the response's Values, so a
// store that built the slice for this read allocates it once. The caller
// must not write to it again.
func ReadResponseOf(values []Value) Response {
	if values == nil {
		values = []Value{}
	}
	slices.Sort(values)
	return Response{Values: slices.Compact(values)}
}

// CountResponse builds a counter read response.
func CountResponse(total int64) Response { return Response{Count: total} }

// Equal reports whether two responses are identical.
func (r Response) Equal(other Response) bool {
	if r.OK != other.OK || r.Count != other.Count || len(r.Values) != len(other.Values) {
		return false
	}
	for i := range r.Values {
		if r.Values[i] != other.Values[i] {
			return false
		}
	}
	return true
}

// Contains reports whether a read response includes value v.
func (r Response) Contains(v Value) bool {
	for _, got := range r.Values {
		if got == v {
			return true
		}
	}
	return false
}

// String renders the response: "ok", "{a,b}", or a counter total.
func (r Response) String() string {
	if r.OK {
		return "ok"
	}
	if r.Values != nil {
		parts := make([]string, len(r.Values))
		for i, v := range r.Values {
			parts[i] = string(v)
		}
		return "{" + strings.Join(parts, ",") + "}"
	}
	return fmt.Sprintf("%d", r.Count)
}

// Action is the kind of an event: do, send, or receive (the paper's act(e)).
type Action int

// Event actions.
const (
	ActDo Action = iota + 1
	ActSend
	ActReceive
)

// String returns the action name.
func (a Action) String() string {
	switch a {
	case ActDo:
		return "do"
	case ActSend:
		return "send"
	case ActReceive:
		return "receive"
	default:
		return fmt.Sprintf("action(%d)", int(a))
	}
}

// Dot identifies a single update: the Seq-th mutator originating at replica
// Origin. Dots give updates identity across replicas (for deduplication,
// visibility tracking, and ORset observed-remove semantics).
type Dot struct {
	Origin ReplicaID
	Seq    uint64
}

// String renders the dot as "(r2,5)".
func (d Dot) String() string { return string(d.AppendTo(nil)) }

// AppendTo appends the String rendering to dst without allocating beyond
// dst's growth: the form the stores' state-digest renderers use.
func (d Dot) AppendTo(dst []byte) []byte {
	dst = append(dst, "(r"...)
	dst = strconv.AppendInt(dst, int64(d.Origin), 10)
	dst = append(dst, ',')
	dst = strconv.AppendUint(dst, d.Seq, 10)
	return append(dst, ')')
}

// AppendDots appends the fmt %v rendering of a dot slice, "[(r0,1) (r1,2)]".
func AppendDots(dst []byte, ds []Dot) []byte {
	dst = append(dst, '[')
	for i, d := range ds {
		if i > 0 {
			dst = append(dst, ' ')
		}
		dst = d.AppendTo(dst)
	}
	return append(dst, ']')
}

// Event is one event of a concrete execution (Definition 1). A do event
// carries the object, operation, and response; send and receive events carry
// the identifier of the message instance (an index into the execution's
// message table).
type Event struct {
	// Seq is the event's global index in the execution.
	Seq int
	// Replica is R(e), the replica at which the event occurs.
	Replica ReplicaID
	// Act is act(e).
	Act Action

	// Object, Op, Rval are set for do events (obj(e), op(e), rval(e)).
	Object ObjectID
	Op     Operation
	Rval   Response

	// MsgID is set for send and receive events: the identifier of the
	// message instance being sent or received.
	MsgID int
}

// IsDo reports whether the event is a do event.
func (e Event) IsDo() bool { return e.Act == ActDo }

// IsWrite reports whether the event is a do event invoking a mutator.
func (e Event) IsWrite() bool { return e.Act == ActDo && e.Op.Kind.IsMutator() }

// IsRead reports whether the event is a do event invoking a read.
func (e Event) IsRead() bool { return e.Act == ActDo && e.Op.Kind == OpRead }

// String renders the event compactly, e.g. "r1:do x.write(a)=ok" or
// "r0:send m3".
func (e Event) String() string {
	switch e.Act {
	case ActDo:
		return fmt.Sprintf("r%d:do %s.%s=%s", e.Replica, e.Object, e.Op, e.Rval)
	case ActSend:
		return fmt.Sprintf("r%d:send m%d", e.Replica, e.MsgID)
	case ActReceive:
		return fmt.Sprintf("r%d:receive m%d", e.Replica, e.MsgID)
	default:
		return fmt.Sprintf("r%d:%s", e.Replica, e.Act)
	}
}

// Message is one broadcast message: the sender and the opaque payload the
// sender's state machine produced. Payload size is what Theorem 12 bounds.
type Message struct {
	// ID is the message identifier referenced by send/receive events.
	ID int
	// From is the broadcasting replica.
	From ReplicaID
	// Payload is the wire encoding produced by the replica state machine.
	Payload []byte
}

// Bits returns the payload size in bits, the unit of Theorem 12.
func (m Message) Bits() int { return len(m.Payload) * 8 }

// DoEvent constructs a do event (without a global sequence number, which the
// recording execution assigns).
func DoEvent(r ReplicaID, obj ObjectID, op Operation, rval Response) Event {
	return Event{Replica: r, Act: ActDo, Object: obj, Op: op, Rval: rval}
}

// SendEvent constructs a send event.
func SendEvent(r ReplicaID, msgID int) Event {
	return Event{Replica: r, Act: ActSend, MsgID: msgID}
}

// ReceiveEvent constructs a receive event.
func ReceiveEvent(r ReplicaID, msgID int) Event {
	return Event{Replica: r, Act: ActReceive, MsgID: msgID}
}
