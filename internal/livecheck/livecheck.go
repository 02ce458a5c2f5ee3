// Package livecheck is an incremental causal/session-guarantee checker: it
// consumes the do/send/receive event stream of a running cluster — simulated
// (internal/sim) or TCP (internal/cluster), both engines tap the same Event —
// and flags a violation the moment a read's rval or frontier contradicts
// happens-before, instead of waiting for quiescence. The post-run audit
// (cluster.AuditShards) is this checker fed the merged histories, so a run
// has one causal verdict; the tests hold it to BuildAudit + CheckCausal.
//
// The checker's state is bounded by the active window, not the history: it
// keeps per-node delivered frontiers, the dependency records of dots not yet
// covered by every node (retired as soon as the minimum frontier passes
// them), the out-of-order observations awaiting their mint record, and the
// per-node maximal visible write sets (bounded by write concurrency). That
// is the per-object tractability of "On Verifying Causal Consistency"
// (Bouajjani, Enea, Guerraoui, Hamza) applied to our prefix-closed
// per-origin frontiers: where a node's visibility is a per-origin prefix,
// happens-before coverage reduces to coordinate-wise frontier comparisons
// and never needs the full vis graph. That premise holds for every
// registered store on FIFO links — the TCP engine's, and the simulator's
// until it reorders. It is false for gsp and lww in the reordering
// simulator: they apply an update the moment it arrives, so they see past a
// gap the frontier cannot express, and there the checker (like BuildAudit
// over the same stream) rules on the prefix, not on everything the replica
// saw. TestDerivationsAgree is the differential test that draws the line;
// the simulator's own derivation keeps the exact record (sim's past).
//
// The streamed checks correspond to the post-run verdict as follows:
//
//   - frontier monotonicity per node ⇔ the session-order closure that
//     abstract.Validate demands of the derived execution (monotonic reads);
//   - own-dot coverage at every do event ⇔ read-your-writes (a session
//     edge from an own write the frontier does not cover is exactly the
//     Validate closure failure for that pair);
//   - causal dependency coverage — when a node's frontier first covers dot
//     (o,k), the frontier recorded at (o,k)'s mint must already be covered
//     too ⇔ the write-write transitivity violations TransitiveViolation
//     finds (read-middle triangles are auto-transitive under containment
//     edges, see DESIGN.md §5.12);
//   - the MVR rval check — a read must return exactly the values of the
//     maximal visible writes ⇔ spec.CheckCorrect under MVR typing, since
//     both evaluate the same frontier-derived visibility.
package livecheck

import (
	"fmt"
	"sync"

	"repro/internal/model"
	"repro/internal/spec"
)

// Event is one tapped do/send/receive event, stamped with the node that
// recorded it. It is cluster.Event minus the payload (the checker never
// inspects store state) plus the recording node; Lamport is carried so a
// recorded stream can be converted back into per-node histories for the
// post-run equivalence check. The Frontier slice must not be mutated after
// the call — both engines pass the same immutable copy their histories keep.
type Event struct {
	Node    model.ReplicaID
	Kind    model.Action
	Lamport uint64

	// Do events.
	Object model.ObjectID
	Op     model.Operation
	Rval   model.Response
	Dot    model.Dot
	// Frontier is the per-origin visible-update prefix right after the do
	// event; nil when the store does not report visibility (such events are
	// counted but not frontier-checked).
	Frontier []uint64

	// Send and receive events (broadcast identity, in send-seq units —
	// distinct from store-dot units, which count mutators).
	Origin model.ReplicaID
	Seq    uint64
}

// ViolationKind names the invariant a violation broke.
type ViolationKind string

// Violation kinds.
const (
	// FrontierRegression: a node's reported frontier moved backwards — a
	// later read saw less than an earlier one (monotonic-reads failure).
	FrontierRegression ViolationKind = "frontier-regression"
	// ReadYourWrites: a node's frontier does not cover its own minted dots.
	ReadYourWrites ViolationKind = "read-your-writes"
	// CausalDependency: a node's frontier covers a dot but not the
	// dependencies recorded at that dot's mint (transitivity failure — the
	// classic "reply visible before the message" anomaly).
	CausalDependency ViolationKind = "causal-dependency"
	// RvalMismatch: an MVR read returned something other than the values of
	// the maximal visible writes (Definition 8 correctness failure).
	RvalMismatch ViolationKind = "rval-mismatch"
	// DuplicateDot: an origin minted the same dot twice (corrupted stream).
	DuplicateDot ViolationKind = "duplicate-dot"
	// ForeignDot: a do event minted a dot naming another origin (corrupted
	// stream).
	ForeignDot ViolationKind = "foreign-dot"
)

// Violation is one flagged contradiction, reported at the earliest event
// where the checker could prove it.
type Violation struct {
	Kind  ViolationKind   `json:"kind"`
	Node  model.ReplicaID `json:"node"`
	Event int64           `json:"event"` // 1-based index in the observed stream
	Dot   model.Dot       `json:"dot"`
	// Dep is the uncovered dependency for CausalDependency violations.
	Dep    model.Dot      `json:"dep,omitempty"`
	Object model.ObjectID `json:"object,omitempty"`
	Detail string         `json:"detail"`
}

// Error renders the violation as a one-line diagnosis.
func (v Violation) Error() string {
	return fmt.Sprintf("livecheck: %s at r%d event %d: %s", v.Kind, v.Node, v.Event, v.Detail)
}

// Options configures a Checker.
type Options struct {
	// Observed lists the node streams feeding this checker; nil means all n.
	// A partial view (e.g. a served node checking only its own stream)
	// disables the checks that need every origin's mint records — dots of
	// unobserved origins are tracked as watermarks only, rval checking is
	// off, and state retirement floors over the observed nodes alone.
	Observed []model.ReplicaID
	// Types assigns object types for the rval check; the zero value types
	// every object as MVR, matching the engines' default workloads.
	Types spec.Types
}

// maxViolationsKept caps how many violations a Checker retains in full; the
// total count is always exact.
const maxViolationsKept = 16

// Verdict is a point-in-time snapshot of the checker: counters, the flagged
// violations, and the bounded-state accounting that BENCH_LIVECHECK tracks.
type Verdict struct {
	Events   int64 `json:"events"`
	Dos      int64 `json:"dos"`
	Sends    int64 `json:"sends"`
	Receives int64 `json:"receives"`

	Violations int         `json:"violations"`
	First      []Violation `json:"first,omitempty"` // up to maxViolationsKept, in detection order

	// TrackedDots is the current bounded state: live mint records + pending
	// out-of-order observations + maximal-set entries. PeakTracked is its
	// high-water mark — the o(history) claim is Peak ≪ Events on runs whose
	// delivery keeps up.
	TrackedDots int `json:"tracked_dots"`
	PeakTracked int `json:"peak_tracked"`
	PendingDots int `json:"pending_dots"`
	// UndeliveredDots sums, over observed receivers, the broadcasts sent but
	// not yet received — the delivery lag the tracked state is bounded by.
	UndeliveredDots int64 `json:"undelivered_dots"`
	// RvalSkipped counts reads the rval check could not rule on (partial
	// view, unresolved out-of-order coverage, or a pre-attach gap).
	RvalSkipped int64 `json:"rval_skipped,omitempty"`
	Clean       bool  `json:"clean"`
}

// mintRec is the dependency record of one minted dot: the minting event's
// reported frontier (its causal past) and, for writes, what it wrote.
type mintRec struct {
	dep []uint64
	obj model.ObjectID
	op  model.Operation
	ok  bool // false for gap placeholders (dot never streamed)
}

// mintQueue holds an origin's live mint records contiguously: recs[i]
// describes dot (origin, base+1+i). Records below base are retired (covered
// by every floored node) or pre-attach.
type mintQueue struct {
	base uint64
	recs []mintRec
}

// obsRef is a coverage observation waiting for its mint record: node's
// reported frontier first covered the dot at stream index event, before the
// minting event itself was observed (cross-stream skew).
type obsRef struct {
	node     model.ReplicaID
	frontier []uint64
	event    int64
}

// maxEntry is one maximal visible write at a node: not dominated by any
// other visible write of the same object. dep is the write's mint frontier,
// used for the pairwise domination test; entries are bounded by write
// concurrency, independent of history length.
type maxEntry struct {
	dot   model.Dot
	value model.Value
	dep   []uint64
}

// Checker incrementally verifies a tapped event stream. Observe is safe for
// concurrent use (both engines call it from per-node loops); Verdict may be
// read at any time, including mid-run — that is the point.
type Checker struct {
	mu       sync.Mutex
	n        int
	types    spec.Types
	observed []bool
	full     bool

	events, dos, sends, receives int64

	frontier [][]uint64 // last adopted frontier per node (nil until reported)
	covered  [][]uint64 // per node, per origin: highest dot seq coverage-processed
	minted   []uint64   // per origin: highest dot seq minted (or skipped) in its stream
	pre      []uint64   // per origin: dots 1..pre[o] predate the tap attach, unchecked
	mints    []mintQueue
	pending  map[model.Dot][]obsRef
	pendingN int
	// nodePending counts a node's coverage observations still awaiting mint
	// records; its reads cannot be rval-checked until they resolve.
	nodePending []int
	maximal     []map[model.ObjectID][]maxEntry
	maximalN    int
	rvalOff     bool
	rvalSkipped int64

	sendHigh []uint64   // per origin: highest broadcast seq sent
	recvHigh [][]uint64 // per node, per origin: highest broadcast seq received

	peakTracked int
	violations  int
	kept        []Violation
}

// New creates a checker for a cluster of n nodes.
func New(n int, opts Options) *Checker {
	c := &Checker{
		n:           n,
		types:       opts.Types,
		observed:    make([]bool, n),
		frontier:    make([][]uint64, n),
		covered:     make([][]uint64, n),
		minted:      make([]uint64, n),
		pre:         make([]uint64, n),
		mints:       make([]mintQueue, n),
		pending:     make(map[model.Dot][]obsRef),
		nodePending: make([]int, n),
		maximal:     make([]map[model.ObjectID][]maxEntry, n),
		sendHigh:    make([]uint64, n),
		recvHigh:    make([][]uint64, n),
	}
	if opts.Observed == nil {
		for i := range c.observed {
			c.observed[i] = true
		}
	} else {
		for _, r := range opts.Observed {
			if 0 <= int(r) && int(r) < n {
				c.observed[r] = true
			}
		}
	}
	c.full = true
	for _, ok := range c.observed {
		c.full = c.full && ok
	}
	for i := 0; i < n; i++ {
		c.covered[i] = make([]uint64, n)
		c.recvHigh[i] = make([]uint64, n)
		c.maximal[i] = make(map[model.ObjectID][]maxEntry)
	}
	return c
}

// Observe feeds one tapped event through the checker.
func (c *Checker) Observe(ev Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.events++
	if int(ev.Node) < 0 || int(ev.Node) >= c.n {
		return
	}
	switch ev.Kind {
	case model.ActDo:
		c.dos++
		c.observeDo(ev, c.events)
		c.retire()
	case model.ActSend:
		c.sends++
		if int(ev.Origin) >= 0 && int(ev.Origin) < c.n && ev.Seq > c.sendHigh[ev.Origin] {
			c.sendHigh[ev.Origin] = ev.Seq
		}
	case model.ActReceive:
		c.receives++
		if int(ev.Origin) >= 0 && int(ev.Origin) < c.n && ev.Seq > c.recvHigh[ev.Node][ev.Origin] {
			c.recvHigh[ev.Node][ev.Origin] = ev.Seq
		}
	}
	if t := c.tracked(); t > c.peakTracked {
		c.peakTracked = t
	}
}

// Verdict snapshots the checker. Safe at any time, including mid-run.
func (c *Checker) Verdict() Verdict {
	c.mu.Lock()
	defer c.mu.Unlock()
	v := Verdict{
		Events: c.events, Dos: c.dos, Sends: c.sends, Receives: c.receives,
		Violations:  c.violations,
		First:       append([]Violation(nil), c.kept...),
		TrackedDots: c.tracked(),
		PeakTracked: c.peakTracked,
		PendingDots: c.pendingN,
		RvalSkipped: c.rvalSkipped,
		Clean:       c.violations == 0,
	}
	for o := 0; o < c.n; o++ {
		for m := 0; m < c.n; m++ {
			if m == o || !c.observed[m] {
				continue
			}
			if c.sendHigh[o] > c.recvHigh[m][o] {
				v.UndeliveredDots += int64(c.sendHigh[o] - c.recvHigh[m][o])
			}
		}
	}
	return v
}

// Err returns the first flagged violation as an error, or nil when clean —
// the streaming counterpart of consistency.CheckCausal's verdict.
func (c *Checker) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.kept) == 0 {
		return nil
	}
	return c.kept[0]
}

func (c *Checker) flag(v Violation) {
	c.violations++
	if len(c.kept) < maxViolationsKept {
		c.kept = append(c.kept, v)
	}
}

// tracked is the current bounded-state size in entries.
func (c *Checker) tracked() int {
	t := c.pendingN + c.maximalN
	for o := range c.mints {
		t += len(c.mints[o].recs)
	}
	return t
}

func (c *Checker) observeDo(ev Event, idx int64) {
	node := int(ev.Node)
	if ev.Op.Kind.IsMutator() && ev.Dot.Seq != 0 {
		c.observeMint(ev, idx)
	}
	f := ev.Frontier
	if f == nil {
		// No visibility report: the store cannot be frontier-checked; rval
		// checking would be guessing.
		c.rvalOff = true
		return
	}
	// Frontier monotonicity (monotonic reads / session closure).
	regressed := false
	if old := c.frontier[node]; old != nil {
		for o := 0; o < c.n && o < len(f) && o < len(old); o++ {
			if f[o] < old[o] {
				regressed = true
				c.flag(Violation{
					Kind: FrontierRegression, Node: ev.Node, Event: idx,
					Dot: model.Dot{Origin: model.ReplicaID(o), Seq: old[o]},
					Detail: fmt.Sprintf("frontier[r%d] fell from %d to %d — an earlier event at r%d had seen more",
						o, old[o], f[o], node),
				})
			}
		}
	}
	c.adoptFrontier(node, f)
	// Read-your-writes: the node's own minted dots must stay visible to it.
	if c.observed[node] && int(ev.Node) < len(f) && f[ev.Node] < c.minted[node] {
		c.flag(Violation{
			Kind: ReadYourWrites, Node: ev.Node, Event: idx,
			Dot: model.Dot{Origin: ev.Node, Seq: c.minted[node]},
			Detail: fmt.Sprintf("r%d's frontier covers only %d of its own %d writes",
				node, f[ev.Node], c.minted[node]),
		})
	}
	// Coverage: process each dot the frontier newly covers, per origin.
	for o := 0; o < c.n && o < len(f); o++ {
		for k := c.covered[node][o] + 1; k <= f[o]; k++ {
			c.cover(model.ReplicaID(o), k, ev.Node, f, idx)
		}
		if f[o] > c.covered[node][o] {
			c.covered[node][o] = f[o]
		}
	}
	// MVR rval check: the read must return exactly the values of the
	// maximal visible writes. A regressed frontier is already contradictory
	// (and flagged above) — judging the rval against the adopted max would
	// pile a second charge on the same root cause, so abstain.
	if ev.Op.Kind == model.OpRead {
		if regressed {
			c.rvalSkipped++
		} else {
			c.checkRval(ev, idx)
		}
	}
}

// adoptFrontier stores the element-wise max of the node's reported
// frontiers, so one regression (already flagged) cannot cascade into
// spurious downstream findings.
func (c *Checker) adoptFrontier(node int, f []uint64) {
	cur := c.frontier[node]
	if cur == nil {
		cur = make([]uint64, c.n)
		c.frontier[node] = cur
	}
	for o := 0; o < c.n && o < len(f); o++ {
		if f[o] > cur[o] {
			cur[o] = f[o]
		}
	}
}

// observeMint registers a dot's dependency record and resolves any
// observations that covered the dot before its mint was observed.
func (c *Checker) observeMint(ev Event, idx int64) {
	if ev.Dot.Origin != ev.Node {
		c.flag(Violation{
			Kind: ForeignDot, Node: ev.Node, Event: idx, Dot: ev.Dot,
			Detail: fmt.Sprintf("r%d minted dot %s naming another origin", ev.Node, ev.Dot),
		})
		return
	}
	o := int(ev.Node)
	q := &c.mints[o]
	switch {
	case ev.Dot.Seq <= c.minted[o]:
		c.flag(Violation{
			Kind: DuplicateDot, Node: ev.Node, Event: idx, Dot: ev.Dot,
			Detail: fmt.Sprintf("dot %s minted again (stream already at %d)", ev.Dot, c.minted[o]),
		})
		return
	case ev.Dot.Seq > c.minted[o]+1:
		// A gap: dots minted before the tap attached (a restored store whose
		// first observed write continues an on-disk dot sequence). With no
		// live records yet, slide past the gap and leave those dots
		// unchecked; mid-stream the gap dots get explicit unchecked
		// placeholders so the queue stays contiguous.
		if len(q.recs) == 0 {
			q.base = ev.Dot.Seq - 1
			c.pre[o] = ev.Dot.Seq - 1
		} else {
			for k := c.minted[o] + 1; k < ev.Dot.Seq; k++ {
				q.recs = append(q.recs, mintRec{})
			}
		}
		c.rvalOff = true
		// Observations parked on pre-attach dots can never resolve; drop them.
		for k := c.minted[o] + 1; k < ev.Dot.Seq; k++ {
			d := model.Dot{Origin: ev.Dot.Origin, Seq: k}
			if refs, ok := c.pending[d]; ok {
				c.pendingN -= len(refs)
				for _, ref := range refs {
					c.nodePending[ref.node]--
				}
				delete(c.pending, d)
			}
		}
	}
	rec := mintRec{obj: ev.Object, op: ev.Op, ok: true}
	if ev.Frontier != nil {
		rec.dep = append([]uint64(nil), ev.Frontier...)
	}
	q.recs = append(q.recs, rec)
	c.minted[o] = ev.Dot.Seq
	if refs, ok := c.pending[ev.Dot]; ok {
		for _, ref := range refs {
			c.checkDep(ev.Dot, rec, ref.node, ref.frontier, ref.event)
			c.addMaximal(int(ref.node), ev.Dot, rec)
			c.nodePending[ref.node]--
		}
		c.pendingN -= len(refs)
		delete(c.pending, ev.Dot)
	}
}

// cover processes node's first coverage of dot (o,k) under reported
// frontier f: dependency check plus maximal-set maintenance, deferred to
// the pending queue when the mint record has not been observed yet.
func (c *Checker) cover(o model.ReplicaID, k uint64, node model.ReplicaID, f []uint64, idx int64) {
	if !c.observed[o] {
		return // watermark only: an unobserved origin never streams a mint
	}
	if k <= c.pre[o] {
		c.rvalOff = true
		return
	}
	q := &c.mints[o]
	if k <= q.base {
		// Already retired: possible only when an event arrives from a node
		// outside the configured floor set (not normally tapped); there is
		// nothing left to re-check against.
		c.rvalOff = true
		return
	}
	if k <= c.minted[o] {
		rec := q.recs[k-q.base-1]
		if !rec.ok {
			c.rvalOff = true
			return
		}
		c.checkDep(model.Dot{Origin: o, Seq: k}, rec, node, f, idx)
		c.addMaximal(int(node), model.Dot{Origin: o, Seq: k}, rec)
		return
	}
	d := model.Dot{Origin: o, Seq: k}
	c.pending[d] = append(c.pending[d], obsRef{node: node, frontier: f, event: idx})
	c.pendingN++
	c.nodePending[node]++
}

// checkDep verifies transitivity at the moment of coverage: everything the
// minting event had seen must be inside the covering frontier too.
func (c *Checker) checkDep(d model.Dot, rec mintRec, node model.ReplicaID, f []uint64, idx int64) {
	for p := 0; p < len(rec.dep) && p < c.n; p++ {
		fp := uint64(0)
		if p < len(f) {
			fp = f[p]
		}
		if rec.dep[p] > fp {
			c.flag(Violation{
				Kind: CausalDependency, Node: node, Event: idx, Dot: d,
				Dep:    model.Dot{Origin: model.ReplicaID(p), Seq: rec.dep[p]},
				Object: rec.obj,
				Detail: fmt.Sprintf("r%d sees %s but not its dependency (r%d,%d) — causal order inverted",
					node, d, p, rec.dep[p]),
			})
			return
		}
	}
}

// addMaximal folds a newly visible write into node's maximal set for its
// object: dropped if an existing visible write dominates it, and dominating
// entries it covers are removed. Insertion order across origins does not
// matter — both domination directions are tested — so deferred (pending)
// resolutions land in the same set.
func (c *Checker) addMaximal(node int, d model.Dot, rec mintRec) {
	if rec.op.Kind != model.OpWrite {
		if rec.op.Kind.IsMutator() && c.types.Of(rec.obj) == spec.TypeMVR {
			c.rvalOff = true // an MVR object mutated by a non-write: not checkable
		}
		return
	}
	if c.types.Of(rec.obj) != spec.TypeMVR {
		return
	}
	covers := func(dep []uint64, d model.Dot) bool {
		return int(d.Origin) < len(dep) && dep[d.Origin] >= d.Seq
	}
	entries := c.maximal[node][rec.obj]
	kept := entries[:0]
	dominated := false
	for _, e := range entries {
		if covers(e.dep, d) {
			dominated = true
		}
		if covers(rec.dep, e.dot) {
			c.maximalN--
			continue // the new write causally follows e: e is no longer maximal
		}
		kept = append(kept, e)
	}
	if !dominated {
		kept = append(kept, maxEntry{dot: d, value: rec.op.Arg, dep: rec.dep})
		c.maximalN++
	}
	c.maximal[node][rec.obj] = kept
}

// checkRval rules on an MVR read against the node's maximal visible writes.
// It abstains (counting RvalSkipped) whenever the expected set is not fully
// known: partial view, a pre-attach gap, no frontier, an unsupported object
// type, or coverage still parked in the pending queue.
func (c *Checker) checkRval(ev Event, idx int64) {
	if c.types.Of(ev.Object) != spec.TypeMVR {
		return
	}
	node := int(ev.Node)
	if !c.full || c.rvalOff || c.nodePending[node] > 0 || ev.Frontier == nil {
		c.rvalSkipped++
		return
	}
	entries := c.maximal[node][ev.Object]
	values := make([]model.Value, 0, len(entries))
	for _, e := range entries {
		values = append(values, e.value)
	}
	want := model.ReadResponse(values)
	if !ev.Rval.Equal(want) {
		c.flag(Violation{
			Kind: RvalMismatch, Node: ev.Node, Event: idx, Object: ev.Object,
			Detail: fmt.Sprintf("read of %s returned %s, maximal visible writes say %s",
				ev.Object, ev.Rval, want),
		})
	}
}

// retire drops mint records every floored node has covered: once the
// minimum observed frontier passes a dot, no first-coverage of it can ever
// happen again, so its dependency record is dead weight. This is what keeps
// tracked state at o(history) — records live only as long as the slowest
// node's delivery lag.
func (c *Checker) retire() {
	for o := 0; o < c.n; o++ {
		floor := ^uint64(0)
		for m := 0; m < c.n; m++ {
			if !c.observed[m] {
				continue
			}
			if c.covered[m][o] < floor {
				floor = c.covered[m][o]
			}
		}
		q := &c.mints[o]
		for len(q.recs) > 0 && q.base < floor {
			q.recs[0] = mintRec{} // release the dep slice before sliding
			q.recs = q.recs[1:]
			q.base++
		}
	}
}

// Tee fans one tap out to several consumers (e.g. a live checker plus a
// Recorder feeding the post-run equivalence audit).
func Tee(fns ...func(Event)) func(Event) {
	return func(ev Event) {
		for _, fn := range fns {
			if fn != nil {
				fn(ev)
			}
		}
	}
}

// Recorder accumulates tapped events per node, preserving arrival order —
// enough to rebuild per-node histories and replay the post-run audit the
// streaming verdict is checked against.
type Recorder struct {
	mu     sync.Mutex
	events map[model.ReplicaID][]Event
}

// NewRecorder creates an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{events: make(map[model.ReplicaID][]Event)}
}

// Observe appends one event to its node's stream.
func (r *Recorder) Observe(ev Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events[ev.Node] = append(r.events[ev.Node], ev)
}

// PerNode returns each node's recorded stream (shared slices; callers must
// not mutate).
func (r *Recorder) PerNode() map[model.ReplicaID][]Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[model.ReplicaID][]Event, len(r.events))
	for k, v := range r.events {
		out[k] = v
	}
	return out
}
