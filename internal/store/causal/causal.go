// Package causal implements the repository's flagship data store: a
// causally consistent and eventually consistent replicated store in the
// style of Ahamad et al.'s causal memory and of the practical systems the
// paper cites (Dynamo-style MVRs, COPS-style causal propagation).
//
// The store is write-propagating in the paper's sense: reads are invisible
// (Definition 16 — a read never changes replica state) and messages are
// op-driven (Definition 15 — only client mutators create pending messages;
// receives never do). It supports all four object types of internal/spec:
// multi-valued registers, last-writer-wins registers, observed-remove sets,
// and PN-counters.
//
// Mechanics: every mutator mints a dot (origin, seq) and records its causal
// dependencies as the replica's vector clock at invocation time. Local
// updates apply immediately (high availability) and accumulate in an outbox;
// the pending message relays the whole outbox. Remote updates are buffered
// until causally ready — all their dependencies applied — which yields
// causal consistency; eventual delivery of messages then yields eventual
// consistency. Concurrent MVR writes survive side by side as versions — a
// value and a dot each — until a write whose dependencies cover the dot
// applies, exactly the concurrency the MVR specification exposes.
package causal

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"

	"repro/internal/model"
	"repro/internal/seglog"
	"repro/internal/spec"
	"repro/internal/store"
	"repro/internal/vclock"
	"repro/internal/wire"
)

// Options tune representation choices called out for ablation in DESIGN.md.
type Options struct {
	// SparseDeps encodes dependency clocks sparsely (index/value pairs for
	// non-zero entries) instead of densely.
	SparseDeps bool
	// PerUpdateMessages caps each broadcast at a single update instead of
	// relaying the entire outbox, trading message count for size.
	PerUpdateMessages bool
}

// Store is the causal data store factory.
type Store struct {
	types spec.Types
	opts  Options
}

var _ store.Store = (*Store)(nil)

// New returns a causal store serving the given object types.
func New(types spec.Types) *Store { return &Store{types: types} }

// NewWithOptions returns a causal store with ablation options.
func NewWithOptions(types spec.Types, opts Options) *Store {
	return &Store{types: types, opts: opts}
}

// Name implements store.Store.
func (s *Store) Name() string {
	name := "causal"
	if s.opts.SparseDeps {
		name += "+sparse"
	}
	if s.opts.PerUpdateMessages {
		name += "+perupdate"
	}
	return name
}

// Types implements store.Store.
func (s *Store) Types() spec.Types { return s.types }

// NewReplica implements store.Store.
func (s *Store) NewReplica(id model.ReplicaID, n int) store.Replica {
	return &Replica{
		id:      id,
		n:       n,
		types:   s.types,
		opts:    s.opts,
		clock:   vclock.New(n),
		objects: make(map[model.ObjectID]*objState),
	}
}

// update is one replicated mutator: the unit of propagation.
type update struct {
	Dot model.Dot
	// Lamport is a register write's timestamp, the one arbitration the
	// store does; every other update carries 0.
	Lamport uint64
	Obj     model.ObjectID
	Kind    model.OpKind
	Value   model.Value
	Delta   int64
	// Deps is the originating replica's clock when the update was invoked:
	// its causal dependencies. Deps[origin] == Dot.Seq-1 by construction.
	// Nothing keeps it past the update's apply, so it is borrowed: from the
	// outbox's arena, or from the receive scratch unless the update waits.
	Deps vclock.VC
	// Removed lists the add-dots an ORset remove observed.
	Removed []model.Dot
}

// version is one surviving MVR write. A later write w overwrites it iff
// w.Deps sees its dot: apply reads nothing else of its causal past.
type version struct {
	Value model.Value
	Dot   model.Dot
}

// objState holds per-object replica state for whichever type the object has.
type objState struct {
	// id is the object's key, kept so that a received update for an object
	// the replica holds reuses this string instead of pinning its payload.
	id  model.ObjectID
	typ spec.ObjectType

	versions []version // MVR

	regValue  model.Value // register (LWW)
	regTS     uint64
	regOrigin model.ReplicaID
	regSet    bool

	adds map[model.Value]map[model.Dot]bool // ORset: live add-dots per value

	total int64 // counter
}

// Replica is one causal store replica.
type Replica struct {
	id      model.ReplicaID
	n       int
	types   spec.Types
	opts    Options
	clock   vclock.VC
	lamport uint64
	objects map[model.ObjectID]*objState
	// sorted lists the keys of objects in ascending order, maintained by
	// object() at insertion so the digest renderer need not sort per call.
	sorted []model.ObjectID
	buffer []update // remote updates awaiting causal readiness
	outbox []update // local updates not yet broadcast
	// outDeps holds the outbox's dependency clocks, n entries per queued
	// update, and is emptied with it. recvDeps holds those of the updates
	// the current Receive decoded ready to apply (bufferPayload); the next
	// Receive reuses it. waitDeps holds those of the buffered updates that
	// must wait, in buffer order: drain packs it behind the updates still
	// waiting, so it is empty whenever the buffer is.
	outDeps  []uint64
	recvDeps []uint64
	waitDeps []uint64

	// applyLog records the local application order of updates:
	// observational metadata (not part of the state digest) used by the
	// total-order comparison experiments — write-propagating replicas apply
	// concurrent updates in different orders, unlike a sequencer protocol.
	// It keeps each update's origin alone: a replica applies an origin's
	// updates in seq order (its own by construction, a remote one's because
	// ready demands Seq == clock+1), so the seqs are recovered by counting
	// (ApplyOrder). It grows for as long as the replica lives, so it is a
	// segment log, of four pointer-free bytes an update.
	applyLog seglog.Log[uint32]

	// list and dots are the digest renderer's scratch, deps the encoder's
	// (a dependency clock with its own entry zeroed), and msg holds the
	// encoding PendingMessage lends out: not state.
	list store.SortedList
	dots []model.Dot
	deps vclock.VC
	msg  wire.Writer
}

var (
	_ store.Replica     = (*Replica)(nil)
	_ store.VisReporter = (*Replica)(nil)
	_ store.DotReporter = (*Replica)(nil)
)

// ID implements store.Replica.
func (r *Replica) ID() model.ReplicaID { return r.id }

// Sees implements store.VisReporter: an update is visible once applied,
// i.e. once the clock covers its dot.
func (r *Replica) Sees(d model.Dot) bool { return r.clock.Sees(d) }

// LastDot implements store.DotReporter.
func (r *Replica) LastDot() (model.Dot, bool) {
	seq := r.clock.Get(r.id)
	if seq == 0 {
		return model.Dot{}, false
	}
	return model.Dot{Origin: r.id, Seq: seq}, true
}

func (r *Replica) object(id model.ObjectID) *objState {
	st, ok := r.objects[id]
	if !ok {
		st = &objState{id: id, typ: r.types.Of(id)}
		if st.typ == spec.TypeORSet {
			st.adds = make(map[model.Value]map[model.Dot]bool)
		}
		r.objects[id] = st
		i, _ := slices.BinarySearch(r.sorted, id)
		r.sorted = slices.Insert(r.sorted, i, id)
	}
	return st
}

// Do implements store.Replica: reads evaluate local state without modifying
// it; mutators mint an update, apply it locally, and enqueue it for
// broadcast.
func (r *Replica) Do(obj model.ObjectID, op model.Operation) model.Response {
	if op.Kind == model.OpRead {
		// Reads must not materialize object state: lazily creating the
		// entry would make reads visible (Definition 16).
		if st, ok := r.objects[obj]; ok {
			return r.read(st)
		}
		return r.read(&objState{typ: r.types.Of(obj)})
	}
	st := r.object(obj)
	if !spec.ForType(st.typ).Allows(op.Kind) {
		return model.Response{} // unsupported operation: empty response
	}
	r.outDeps = append(r.outDeps, r.clock...)
	end := len(r.outDeps)
	u := update{
		Obj:   obj,
		Kind:  op.Kind,
		Value: op.Arg,
		Delta: op.Delta,
		Deps:  r.outDeps[end-r.n : end : end],
	}
	if op.Kind == model.OpRemove {
		for dot := range st.adds[op.Arg] {
			u.Removed = append(u.Removed, dot)
		}
		sortDots(u.Removed)
	}
	// Only a register arbitrates by timestamp, so only its writes tick the
	// clock and carry a stamp. LWW needs ts(w1) < ts(w2) when w1 →hb w2, and
	// causal delivery applies w1, stamp and all, here before w2 is minted.
	if st.typ == spec.TypeRegister {
		r.lamport++
		u.Lamport = r.lamport
	}
	u.Dot = model.Dot{Origin: r.id, Seq: r.clock.Get(r.id) + 1}
	r.apply(u)
	r.outbox = append(r.outbox, u)
	return model.OKResponse()
}

func (r *Replica) read(st *objState) model.Response {
	switch st.typ {
	case spec.TypeMVR:
		values := make([]model.Value, 0, len(st.versions))
		for _, v := range st.versions {
			values = append(values, v.Value)
		}
		return model.ReadResponseOf(values)
	case spec.TypeRegister:
		if !st.regSet {
			return model.ReadResponse(nil)
		}
		return model.ReadResponse([]model.Value{st.regValue})
	case spec.TypeORSet:
		var values []model.Value
		for v, dots := range st.adds {
			if len(dots) > 0 {
				values = append(values, v)
			}
		}
		return model.ReadResponseOf(values)
	case spec.TypeCounter:
		return model.CountResponse(st.total)
	default:
		return model.Response{}
	}
}

// apply integrates a causally ready update into object state and advances
// the clock past its dot; a register write's stamp also advances lamport.
func (r *Replica) apply(u update) {
	if u.Lamport > r.lamport {
		r.lamport = u.Lamport
	}
	r.applyLog.Append(uint32(u.Dot.Origin))
	r.clock.Set(u.Dot.Origin, u.Dot.Seq)
	st := r.object(u.Obj)
	switch u.Kind {
	case model.OpWrite:
		switch st.typ {
		case spec.TypeMVR:
			// Keep only versions not in u's causal past; u itself cannot be
			// dominated by a surviving version because updates apply in
			// causal order.
			kept := st.versions[:0]
			for _, v := range st.versions {
				if !u.Deps.Sees(v.Dot) {
					kept = append(kept, v)
				}
			}
			st.versions = append(kept, version{Value: u.Value, Dot: u.Dot})
		case spec.TypeRegister:
			if !st.regSet || u.Lamport > st.regTS ||
				(u.Lamport == st.regTS && u.Dot.Origin > st.regOrigin) {
				st.regValue, st.regTS, st.regOrigin, st.regSet = u.Value, u.Lamport, u.Dot.Origin, true
			}
		}
	case model.OpAdd:
		dots := st.adds[u.Value]
		if dots == nil {
			dots = make(map[model.Dot]bool)
			st.adds[u.Value] = dots
		}
		dots[u.Dot] = true
	case model.OpRemove:
		dots := st.adds[u.Value]
		for _, d := range u.Removed {
			delete(dots, d)
		}
		if len(dots) == 0 {
			delete(st.adds, u.Value)
		}
	case model.OpInc:
		st.total += u.Delta
	}
}

// ready reports whether the update's full causal past is applied.
func (r *Replica) ready(u update) bool {
	return u.Dot.Seq == r.clock.Get(u.Dot.Origin)+1 && u.Deps.LessEq(r.clock)
}

// Receive implements store.Replica: decode, deduplicate, buffer, and drain
// everything that became causally ready. The values, and the key of an
// object first seen here, stay views of payload (see bufferPayload). A
// corrupt payload is ignored: well-formed executions never produce one, and
// dropping it is indistinguishable from a message drop. What it buffered
// before the damage is taken back out, so the state is as if it never
// arrived.
func (r *Replica) Receive(payload []byte) {
	r.recvDeps = r.recvDeps[:0]
	kept, keptDeps := len(r.buffer), len(r.waitDeps)
	if err := r.bufferPayload(payload); err != nil {
		clear(r.buffer[kept:])
		r.buffer = r.buffer[:kept]
		r.waitDeps = r.waitDeps[:keptDeps]
		return
	}
	r.drain()
}

func (r *Replica) buffered(d model.Dot) bool {
	for _, u := range r.buffer {
		if u.Dot == d {
			return true
		}
	}
	return false
}

// drain applies buffered updates until no more are causally ready, then
// packs the clocks of those still waiting at the front of waitDeps.
func (r *Replica) drain() {
	for {
		applied := false
		kept := r.buffer[:0]
		for _, u := range r.buffer {
			if r.ready(u) {
				r.apply(u)
				applied = true
			} else {
				kept = append(kept, u)
			}
		}
		r.buffer = kept
		if !applied {
			break
		}
	}
	// Each waiting clock lies in waitDeps at or past where it is packed to
	// (its predecessors in the buffer take n entries each, before it), or in
	// an array waitDeps outgrew, which nothing writes: no copy overwrites a
	// clock not yet moved.
	packed := r.waitDeps[:0]
	for i := range r.buffer {
		start := len(packed)
		packed = append(packed, r.buffer[i].Deps...)
		r.buffer[i].Deps = packed[start:len(packed):len(packed)]
	}
	r.waitDeps = packed
}

// PendingMessage implements store.Replica: the outbox encoding, or nil,
// lent from the replica's own buffer.
func (r *Replica) PendingMessage() []byte {
	if len(r.outbox) == 0 {
		return nil
	}
	batch := r.outbox
	if r.opts.PerUpdateMessages {
		batch = r.outbox[:1]
	}
	r.msg.Reset()
	r.encodePayload(&r.msg, batch)
	return r.msg.Bytes()
}

// OnSend implements store.Replica.
func (r *Replica) OnSend() {
	if r.opts.PerUpdateMessages && len(r.outbox) > 1 {
		r.outbox = r.outbox[1:]
		return
	}
	// Emptied, not dropped: the next write queues into the same arrays.
	clear(r.outbox)
	r.outbox = r.outbox[:0]
	r.outDeps = r.outDeps[:0]
}

// StateDigest implements store.Replica.
func (r *Replica) StateDigest() string { return string(r.AppendStateDigest(nil)) }

// AppendStateDigest implements store.Replica with a deterministic rendering
// of the full state σ. Object order comes from r.sorted; the length guard
// rebuilds it from the map so that an entry materialised behind object() —
// the classic visible-read bug — still shows in the render.
func (r *Replica) AppendStateDigest(dst []byte) []byte {
	dst = append(dst, "clock="...)
	dst = r.clock.AppendTo(dst)
	dst = append(dst, " lamport="...)
	dst = strconv.AppendUint(dst, r.lamport, 10)
	dst = append(dst, '\n')
	if len(r.sorted) != len(r.objects) {
		r.sorted = r.sorted[:0]
		for id := range r.objects {
			r.sorted = append(r.sorted, id)
		}
		slices.Sort(r.sorted)
	}
	for _, id := range r.sorted {
		st := r.objects[id]
		dst = append(dst, "obj "...)
		dst = append(dst, id...)
		dst = append(dst, " ("...)
		dst = append(dst, st.typ.String()...)
		dst = append(dst, "):"...)
		switch st.typ {
		case spec.TypeMVR:
			r.list.Reset()
			for _, v := range st.versions {
				b := append(r.list.Open(), v.Value...)
				b = append(b, '@')
				r.list.Close(v.Dot.AppendTo(b))
			}
			dst = append(dst, ' ')
			dst = r.list.AppendTo(dst)
		case spec.TypeRegister:
			dst = append(dst, ' ')
			dst = append(dst, st.regValue...)
			dst = append(dst, " ts="...)
			dst = strconv.AppendUint(dst, st.regTS, 10)
			dst = append(dst, " origin="...)
			dst = strconv.AppendInt(dst, int64(st.regOrigin), 10)
			dst = append(dst, " set="...)
			dst = strconv.AppendBool(dst, st.regSet)
		case spec.TypeORSet:
			r.list.Reset()
			for v, dots := range st.adds {
				r.dots = r.dots[:0]
				for d := range dots {
					r.dots = append(r.dots, d)
				}
				sortDots(r.dots)
				b := append(r.list.Open(), v...)
				b = append(b, ':')
				r.list.Close(model.AppendDots(b, r.dots))
			}
			dst = append(dst, ' ')
			dst = r.list.AppendTo(dst)
		case spec.TypeCounter:
			dst = append(dst, ' ')
			dst = strconv.AppendInt(dst, st.total, 10)
		}
		dst = append(dst, '\n')
	}
	dst = append(dst, "buffer="...)
	dst = r.appendUpdateDots(dst, r.buffer)
	dst = append(dst, "\noutbox="...)
	dst = r.appendUpdateDots(dst, r.outbox)
	return append(dst, '\n')
}

// BufferedUpdates returns the number of remote updates awaiting causal
// readiness (exposed for tests and diagnostics).
func (r *Replica) BufferedUpdates() int { return len(r.buffer) }

// ApplyOrder returns the order in which this replica applied updates.
// Concurrent updates generally apply in different orders at different
// replicas — the contrast with gsp.Replica.Log in the open-question
// experiment.
func (r *Replica) ApplyOrder() []model.Dot {
	dots := make([]model.Dot, r.applyLog.Len())
	var applied vclock.VC // per origin, how many of its updates so far
	for i := range dots {
		origin := model.ReplicaID(r.applyLog.At(i))
		seq := applied.Get(origin) + 1
		applied.Set(origin, seq)
		dots[i] = model.Dot{Origin: origin, Seq: seq}
	}
	return dots
}

// appendUpdateDots appends the updates' dots in model.AppendDots form.
func (r *Replica) appendUpdateDots(dst []byte, us []update) []byte {
	r.dots = r.dots[:0]
	for _, u := range us {
		r.dots = append(r.dots, u.Dot)
	}
	return model.AppendDots(dst, r.dots)
}

func sortDots(ds []model.Dot) {
	slices.SortFunc(ds, func(a, b model.Dot) int {
		if c := cmp.Compare(a.Origin, b.Origin); c != 0 {
			return c
		}
		return cmp.Compare(a.Seq, b.Seq)
	})
}

// encodePayload appends the encoding of a batch of updates to w: their
// count, then each update as exactly the fields its apply reads that the
// receiver cannot derive,
//
//	dot | key | [kind: ORset] | [lamport: register] | value, or delta for a counter | deps | [removed: remove]
//
// The object's type — both ends share spec.Types — implies the rest: the
// kind of an MVR or register update (write) and of a counter's (inc).
func (r *Replica) encodePayload(w *wire.Writer, batch []update) {
	w.Uvarint(uint64(len(batch)))
	for i := range batch {
		u := &batch[i]
		typ := r.types.Of(u.Obj)
		w.Dot(u.Dot)
		w.String(string(u.Obj))
		switch typ {
		case spec.TypeORSet:
			w.Uvarint(uint64(u.Kind))
		case spec.TypeRegister:
			w.Uvarint(u.Lamport)
		case spec.TypeCounter:
			w.Varint(u.Delta)
		}
		if typ != spec.TypeCounter {
			w.String(string(u.Value))
		}
		r.appendDeps(w, u)
		if u.Kind == model.OpRemove {
			w.Uvarint(uint64(len(u.Removed)))
			for _, d := range u.Removed {
				w.Dot(d)
			}
		}
	}
}

// appendDeps appends u's dependency clock less its own entry, which the
// receiver rebuilds as Dot.Seq−1: dense, the other n−1 entries with no
// length (both ends know n); sparse, the non-zero ones among them as
// wire.SparseVC pairs.
func (r *Replica) appendDeps(w *wire.Writer, u *update) {
	own := int(u.Dot.Origin)
	if r.opts.SparseDeps {
		r.deps = append(r.deps[:0], u.Deps...)
		r.deps[own] = 0
		w.SparseVC(r.deps)
		return
	}
	for i := 0; i < r.n; i++ {
		if i != own {
			w.Uvarint(u.Deps.Get(model.ReplicaID(i)))
		}
	}
}

// bufferPayload decodes a batch of updates and buffers each one the replica
// has neither applied nor buffered. At the first malformed update it stops
// and returns the error; what it buffered before is the caller's to take
// back out. Nothing is sized from a count or length the peer sent, so a
// payload allocates what it holds. Strings are views of the payload, which
// store.Replica.Receive gives the replica to keep: a value is never copied,
// and an update of an object the replica holds takes that object's key,
// so a payload is pinned only by what the replica keeps of it.
//
// An update ready as decoded keeps its clock in recvDeps: nothing applies
// before the caller's drain, which then finds it ready still, and the dot
// dedup leaves no other update its slot. One that must wait moves its clock
// to waitDeps, which drain keeps packed.
func (r *Replica) bufferPayload(payload []byte) error {
	var rd wire.Reader
	rd.Reset(payload)
	for count := rd.Uvarint(); count > 0 && rd.Err() == nil; count-- {
		u, err := r.decodeUpdate(&rd)
		if err != nil {
			return err
		}
		if r.clock.Sees(u.Dot) || r.buffered(u.Dot) {
			continue
		}
		if r.ready(u) {
			r.recvDeps = r.recvDeps[:len(r.recvDeps)+r.n]
		} else {
			start := len(r.waitDeps)
			r.waitDeps = append(r.waitDeps, u.Deps...)
			u.Deps = r.waitDeps[start:len(r.waitDeps):len(r.waitDeps)]
		}
		r.buffer = append(r.buffer, u)
	}
	return rd.End()
}

// decodeUpdate reads one update of encodePayload's layout. The origin is
// checked against the population and the seq against zero before either
// indexes anything. The value, and the key of an object first seen here, are
// views of rd's buffer: the payload Receive was given, which is the
// replica's to keep and nobody writes again (store.Replica.Receive).
func (r *Replica) decodeUpdate(rd *wire.Reader) (update, error) {
	var u update
	origin, seq := rd.Uvarint(), rd.Uvarint()
	if err := rd.Err(); err != nil {
		return u, err
	}
	if origin >= uint64(r.n) || seq == 0 {
		return u, fmt.Errorf("causal: update (r%d,%d) outside a population of %d", origin, seq, r.n)
	}
	u.Dot = model.Dot{Origin: model.ReplicaID(origin), Seq: seq}
	key := rd.StringView()
	var typ spec.ObjectType
	if st, ok := r.objects[model.ObjectID(key)]; ok {
		u.Obj, typ = st.id, st.typ
	} else {
		u.Obj = model.ObjectID(key)
		typ = r.types.Of(u.Obj)
	}
	switch typ {
	case spec.TypeORSet:
		u.Kind = model.OpKind(rd.Uvarint())
		if u.Kind != model.OpAdd && u.Kind != model.OpRemove {
			return u, fmt.Errorf("causal: %s on an ORset", u.Kind)
		}
	case spec.TypeRegister:
		u.Kind, u.Lamport = model.OpWrite, rd.Uvarint()
	case spec.TypeCounter:
		u.Kind, u.Delta = model.OpInc, rd.Varint()
	default:
		u.Kind = model.OpWrite
	}
	if typ != spec.TypeCounter {
		u.Value = model.Value(rd.StringView())
	}
	if err := r.readDeps(rd, &u); err != nil {
		return u, err
	}
	if u.Kind == model.OpRemove {
		removed := rd.Uvarint()
		if removed > uint64(rd.Remaining()/2) { // a dot is two bytes or more
			return u, fmt.Errorf("causal: implausible removed-dot count %d", removed)
		}
		for j := uint64(0); j < removed; j++ {
			u.Removed = append(u.Removed, rd.Dot())
		}
	}
	return u, rd.Err()
}

// readDeps reads appendDeps' encoding into the n entries past recvDeps'
// end, which bufferPayload takes or leaves, and rebuilds the own entry from
// the dot.
func (r *Replica) readDeps(rd *wire.Reader, u *update) error {
	own := int(u.Dot.Origin)
	r.recvDeps = slices.Grow(r.recvDeps, r.n)
	end := len(r.recvDeps) + r.n
	u.Deps = r.recvDeps[len(r.recvDeps):end:end]
	if r.opts.SparseDeps {
		rd.SparseVC(u.Deps) // refuses an index at or past n
		if err := rd.Err(); err != nil {
			return err
		}
		if u.Deps[own] != 0 {
			return fmt.Errorf("causal: update %v sends its own dependency entry", u.Dot)
		}
	} else {
		for i := range u.Deps {
			if i != own {
				u.Deps[i] = rd.Uvarint()
			}
		}
	}
	u.Deps[own] = u.Dot.Seq - 1
	return rd.Err()
}
