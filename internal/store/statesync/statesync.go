// Package statesync implements a state-based (convergent/CvRDT) replicated
// store: instead of shipping individual updates, every broadcast carries the
// replica's full object state, and receiving is a join in a semilattice —
// idempotent, commutative, and associative.
//
// The store is the propagation-strategy counterpoint to store/causal (which
// is op-based/CmRDT): both are write-propagating in the paper's sense
// (invisible reads, op-driven messages — a full-state message is still only
// pending after a client mutator), both are causally consistent (a joined
// state is causally closed: it carries its entire causal context), but they
// fail differently under message loss. A dropped op-based update is gone
// forever — the causal store never converges past it — while any LATER
// state-based message subsumes everything lost before it, so statesync
// reconverges after arbitrary drops. The price is message size: Θ(total
// state) per broadcast instead of Θ(delta), the trade-off the Theorem 12
// measurements quantify from the other side.
//
// Supported object types: MVRs (version sets pruned under dependency
// domination), LWW registers, ORsets (dot-context optimized, no tombstones),
// and PN-counters (per-origin positive/negative vectors).
package statesync

import (
	"fmt"
	"sort"
	"strconv"

	"repro/internal/model"
	"repro/internal/spec"
	"repro/internal/store"
	"repro/internal/vclock"
	"repro/internal/wire"
)

// Store is the state-based store factory.
type Store struct {
	types spec.Types
}

var _ store.Store = (*Store)(nil)

// New returns a state-based store serving the given object types.
func New(types spec.Types) *Store { return &Store{types: types} }

// Name implements store.Store.
func (s *Store) Name() string { return "statesync" }

// Types implements store.Store.
func (s *Store) Types() spec.Types { return s.types }

// NewReplica implements store.Store.
func (s *Store) NewReplica(id model.ReplicaID, n int) store.Replica {
	return &Replica{
		id:      id,
		n:       n,
		types:   s.types,
		clock:   vclock.New(n),
		objects: make(map[model.ObjectID]*objState),
	}
}

// version is one surviving MVR write.
type version struct {
	Value model.Value
	Dot   model.Dot
	Deps  vclock.VC
}

// objState is the lattice state of one object.
type objState struct {
	typ spec.ObjectType

	versions []version // MVR: concurrent writes

	regValue  model.Value // register: LWW by (lamport, origin)
	regTS     uint64
	regOrigin model.ReplicaID
	regSet    bool

	adds map[model.Value]map[model.Dot]bool // ORset: live add-dots

	pos, neg vclock.VC // counter: per-origin increment/decrement totals
}

// Replica is one state-based replica. Its whole state is a join-semilattice
// element: (clock, objects) with pointwise joins.
type Replica struct {
	id      model.ReplicaID
	n       int
	types   spec.Types
	lamport uint64
	// clock is the causal context: clock[i] counts replica i's mutators
	// reflected in this state. It doubles as the ORset dot context.
	clock   vclock.VC
	objects map[model.ObjectID]*objState
	dirty   bool   // a mutator occurred since the last broadcast
	msg     []byte // the encoding PendingMessage lends out
}

var (
	_ store.Replica     = (*Replica)(nil)
	_ store.VisReporter = (*Replica)(nil)
	_ store.DotReporter = (*Replica)(nil)
)

// ID implements store.Replica.
func (r *Replica) ID() model.ReplicaID { return r.id }

// Sees implements store.VisReporter. The state-based causal context is not
// always a contiguous prefix per origin? It is: local mutators are
// contiguous, and joins take pointwise max of contiguous contexts, which
// stays contiguous. So dot coverage is exact.
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
		st = newObjState(r.types.Of(id), r.n)
		r.objects[id] = st
	}
	return st
}

func newObjState(typ spec.ObjectType, n int) *objState {
	st := &objState{typ: typ}
	if typ == spec.TypeORSet {
		st.adds = make(map[model.Value]map[model.Dot]bool)
	}
	if typ == spec.TypeCounter {
		st.pos = vclock.New(n)
		st.neg = vclock.New(n)
	}
	return st
}

// Do implements store.Replica.
func (r *Replica) Do(obj model.ObjectID, op model.Operation) model.Response {
	if op.Kind == model.OpRead {
		if st, ok := r.objects[obj]; ok {
			return read(st)
		}
		return read(newObjState(r.types.Of(obj), r.n))
	}
	st := r.object(obj)
	if !spec.ForType(st.typ).Allows(op.Kind) {
		return model.Response{}
	}
	deps := r.clock.Clone()
	dot := model.Dot{Origin: r.id, Seq: r.clock.Inc(r.id)}
	r.lamport++
	r.dirty = true
	switch op.Kind {
	case model.OpWrite:
		switch st.typ {
		case spec.TypeMVR:
			kept := st.versions[:0]
			for _, v := range st.versions {
				if !deps.Sees(v.Dot) {
					kept = append(kept, v)
				}
			}
			st.versions = append(kept, version{Value: op.Arg, Dot: dot, Deps: deps})
		case spec.TypeRegister:
			st.regValue, st.regTS, st.regOrigin, st.regSet = op.Arg, r.lamport, r.id, true
		}
	case model.OpAdd:
		dots := st.adds[op.Arg]
		if dots == nil {
			dots = make(map[model.Dot]bool)
			st.adds[op.Arg] = dots
		}
		dots[dot] = true
	case model.OpRemove:
		// Observed remove: drop the locally visible add-dots. The dots stay
		// covered by the clock (the dot context), which is what makes the
		// removal stick across joins without tombstones.
		delete(st.adds, op.Arg)
	case model.OpInc:
		if op.Delta >= 0 {
			st.pos.Set(r.id, st.pos.Get(r.id)+uint64(op.Delta))
		} else {
			st.neg.Set(r.id, st.neg.Get(r.id)+uint64(-op.Delta))
		}
	}
	return model.OKResponse()
}

func read(st *objState) model.Response {
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
		return model.CountResponse(int64(st.pos.Sum()) - int64(st.neg.Sum()))
	default:
		return model.Response{}
	}
}

// PendingMessage implements store.Replica: the full state, pending iff a
// mutator occurred since the last broadcast (op-driven messages hold), lent
// from the replica's own buffer.
func (r *Replica) PendingMessage() []byte {
	if !r.dirty {
		return nil
	}
	r.msg = r.appendState(r.msg[:0])
	return r.msg
}

// OnSend implements store.Replica.
func (r *Replica) OnSend() { r.dirty = false }

// Receive implements store.Replica: decode the remote state and join it in.
func (r *Replica) Receive(payload []byte) {
	remote, err := decode(payload, r.n)
	if err != nil {
		return
	}
	r.join(remote)
}

// join merges a decoded remote state into the local lattice element.
func (r *Replica) join(remote *decoded) {
	if remote.lamport > r.lamport {
		r.lamport = remote.lamport
	}
	for id, rst := range remote.objects {
		lst := r.object(id)
		if lst.typ != rst.typ {
			continue // type confusion: ignore, as with corrupt payloads
		}
		switch lst.typ {
		case spec.TypeMVR:
			// A version survives iff it is not in the other side's causal
			// context, or it is still alive on the side that knows it.
			merged := make([]version, 0, len(lst.versions)+len(rst.versions))
			have := make(map[model.Dot]bool)
			for _, v := range lst.versions {
				have[v.Dot] = true
			}
			remoteHas := make(map[model.Dot]bool)
			for _, v := range rst.versions {
				remoteHas[v.Dot] = true
			}
			for _, v := range lst.versions {
				if remoteHas[v.Dot] || !remote.clock.Sees(v.Dot) {
					merged = append(merged, v)
				}
			}
			for _, v := range rst.versions {
				if !have[v.Dot] && !r.clock.Sees(v.Dot) {
					merged = append(merged, v)
				}
			}
			// Prune versions dominated by other surviving versions.
			lst.versions = pruneDominated(merged)
		case spec.TypeRegister:
			if rst.regSet && (!lst.regSet || rst.regTS > lst.regTS ||
				(rst.regTS == lst.regTS && rst.regOrigin > lst.regOrigin)) {
				lst.regValue, lst.regTS, lst.regOrigin, lst.regSet = rst.regValue, rst.regTS, rst.regOrigin, true
			}
		case spec.TypeORSet:
			// Optimized ORset join with dot contexts: an add-dot survives iff
			// both sides have it, or one side has it and the other has not
			// yet observed it.
			for v, rdots := range rst.adds {
				ldots := lst.adds[v]
				for d := range rdots {
					if (ldots != nil && ldots[d]) || !r.clock.Sees(d) {
						if ldots == nil {
							ldots = make(map[model.Dot]bool)
							lst.adds[v] = ldots
						}
						ldots[d] = true
					}
				}
			}
			for v, ldots := range lst.adds {
				rdots := rst.adds[v]
				for d := range ldots {
					if (rdots == nil || !rdots[d]) && remote.clock.Sees(d) {
						delete(ldots, d)
					}
				}
				if len(ldots) == 0 {
					delete(lst.adds, v)
				}
			}
		case spec.TypeCounter:
			lst.pos.Merge(rst.pos)
			lst.neg.Merge(rst.neg)
		}
	}
	r.clock.Merge(remote.clock)
}

// pruneDominated removes versions whose dot is covered by another surviving
// version's dependencies.
func pruneDominated(versions []version) []version {
	kept := versions[:0]
	for i, v := range versions {
		dominated := false
		for j, w := range versions {
			if i != j && w.Deps.Sees(v.Dot) {
				dominated = true
				break
			}
		}
		if !dominated {
			kept = append(kept, v)
		}
	}
	return kept
}

// decoded is a parsed remote state.
type decoded struct {
	lamport uint64
	clock   vclock.VC
	objects map[model.ObjectID]*objState
}

// appendState appends the serialized full replica state to dst.
func (r *Replica) appendState(dst []byte) []byte {
	w := wire.NewWriterTo(dst)
	w.Uvarint(r.lamport)
	w.VC(r.clock)
	ids := make([]string, 0, len(r.objects))
	for id := range r.objects {
		ids = append(ids, string(id))
	}
	sort.Strings(ids)
	w.Uvarint(uint64(len(ids)))
	for _, id := range ids {
		st := r.objects[model.ObjectID(id)]
		w.String(id)
		w.Uvarint(uint64(st.typ))
		switch st.typ {
		case spec.TypeMVR:
			w.Uvarint(uint64(len(st.versions)))
			for _, v := range st.versions {
				w.String(string(v.Value))
				w.Dot(v.Dot)
				w.VC(v.Deps)
			}
		case spec.TypeRegister:
			w.String(string(st.regValue))
			w.Uvarint(st.regTS)
			w.Uvarint(uint64(st.regOrigin))
			if st.regSet {
				w.Uvarint(1)
			} else {
				w.Uvarint(0)
			}
		case spec.TypeORSet:
			values := make([]string, 0, len(st.adds))
			for v := range st.adds {
				values = append(values, string(v))
			}
			sort.Strings(values)
			w.Uvarint(uint64(len(values)))
			for _, v := range values {
				w.String(v)
				dots := make([]model.Dot, 0, len(st.adds[model.Value(v)]))
				for d := range st.adds[model.Value(v)] {
					dots = append(dots, d)
				}
				sortDots(dots)
				w.Uvarint(uint64(len(dots)))
				for _, d := range dots {
					w.Dot(d)
				}
			}
		case spec.TypeCounter:
			w.VC(st.pos)
			w.VC(st.neg)
		}
	}
	return w.Bytes()
}

func decode(payload []byte, n int) (*decoded, error) {
	rd := wire.NewReader(payload)
	out := &decoded{objects: make(map[model.ObjectID]*objState)}
	out.lamport = rd.Uvarint()
	out.clock = rd.VC()
	count := rd.Uvarint()
	if count > uint64(len(payload)) {
		return nil, fmt.Errorf("statesync: implausible object count %d", count)
	}
	for i := uint64(0); i < count; i++ {
		id := model.ObjectID(rd.String())
		typ := spec.ObjectType(rd.Uvarint())
		if rd.Err() != nil {
			return nil, rd.Err()
		}
		st := newObjState(typ, n)
		switch typ {
		case spec.TypeMVR:
			versions := rd.Uvarint()
			if versions > uint64(len(payload)) {
				return nil, fmt.Errorf("statesync: implausible version count %d", versions)
			}
			for j := uint64(0); j < versions; j++ {
				var v version
				v.Value = model.Value(rd.String())
				v.Dot = rd.Dot()
				v.Deps = rd.VC()
				st.versions = append(st.versions, v)
			}
		case spec.TypeRegister:
			st.regValue = model.Value(rd.String())
			st.regTS = rd.Uvarint()
			st.regOrigin = model.ReplicaID(rd.Uvarint())
			st.regSet = rd.Uvarint() == 1
		case spec.TypeORSet:
			values := rd.Uvarint()
			if values > uint64(len(payload)) {
				return nil, fmt.Errorf("statesync: implausible value count %d", values)
			}
			for j := uint64(0); j < values; j++ {
				v := model.Value(rd.String())
				dotCount := rd.Uvarint()
				if dotCount > uint64(len(payload)) {
					return nil, fmt.Errorf("statesync: implausible dot count %d", dotCount)
				}
				dots := make(map[model.Dot]bool, dotCount)
				for k := uint64(0); k < dotCount; k++ {
					dots[rd.Dot()] = true
				}
				st.adds[v] = dots
			}
		case spec.TypeCounter:
			st.pos = rd.VC()
			st.neg = rd.VC()
		default:
			return nil, fmt.Errorf("statesync: unknown object type %d", typ)
		}
		if rd.Err() != nil {
			return nil, rd.Err()
		}
		out.objects[id] = st
	}
	return out, rd.Err()
}

func sortDots(ds []model.Dot) {
	sort.Slice(ds, func(i, j int) bool {
		if ds[i].Origin != ds[j].Origin {
			return ds[i].Origin < ds[j].Origin
		}
		return ds[i].Seq < ds[j].Seq
	})
}

// StateDigest implements store.Replica.
func (r *Replica) StateDigest() string { return string(r.AppendStateDigest(nil)) }

// AppendStateDigest implements store.Replica: the dirty flag (broadcast
// obligations are replica state too) plus the canonical encoding.
func (r *Replica) AppendStateDigest(dst []byte) []byte {
	dst = append(dst, "dirty="...)
	dst = strconv.AppendBool(dst, r.dirty)
	dst = append(dst, '\n')
	return r.appendState(dst)
}
