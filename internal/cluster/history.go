package cluster

import (
	"fmt"
	"sort"

	"repro/internal/abstract"
	"repro/internal/execution"
	"repro/internal/model"
)

// OrderError reports per-node histories that cannot merge into a
// well-formed execution: a receive whose (Origin, Seq) matches no send,
// one whose Lamport time sorts it before the send it claims to follow, or
// two send events claiming the same (Origin, Seq). All mean a corrupted or
// truncated history — merging on anyway would fabricate an execution the
// cluster never ran.
type OrderError struct {
	Node   model.ReplicaID // node whose history holds the offending event
	Origin model.ReplicaID // claimed message origin
	Seq    uint64          // claimed broadcast sequence number
	// BeforeSend distinguishes a receive that sorts before its send (clock
	// corruption) from one with no send event anywhere (truncated log).
	BeforeSend bool
	// DuplicateSend marks a second send event claiming an already-seen
	// (Origin, Seq): message identity is that pair, so two sends minting it
	// would silently attribute every receive to whichever send merged last.
	DuplicateSend bool
}

// Error implements error.
func (e *OrderError) Error() string {
	switch {
	case e.DuplicateSend:
		return fmt.Sprintf("cluster: r%d's history holds a second send event for (r%d,%d) — duplicate broadcast identity",
			e.Node, e.Origin, e.Seq)
	case e.BeforeSend:
		return fmt.Sprintf("cluster: r%d's receive of (r%d,%d) sorts before its send (corrupted Lamport clocks)",
			e.Node, e.Origin, e.Seq)
	default:
		return fmt.Sprintf("cluster: r%d received (r%d,%d) but no history holds its send event",
			e.Node, e.Origin, e.Seq)
	}
}

// Event is one locally recorded do/send/receive event of a node, stamped
// with a Lamport time so per-node histories can be merged into one concrete
// execution after the run. Message identity is the pair (Origin, Seq): the
// Seq-th broadcast minted at Origin — a global name that needs no
// coordination.
type Event struct {
	Kind    model.Action `json:"kind"`
	Lamport uint64       `json:"lamport"`

	// Do events.
	Object model.ObjectID  `json:"obj,omitempty"`
	Op     model.Operation `json:"op,omitempty"`
	Rval   model.Response  `json:"rval,omitempty"`
	// Dot identifies the mutator the do event minted (zero Seq for reads
	// and for stores without dot reporting).
	Dot model.Dot `json:"dot,omitempty"`
	// Frontier is the per-origin visible-update prefix right after the do
	// event: Frontier[i] = s means every update (i,1)..(i,s) is visible.
	// It is the networked stand-in for the simulator's per-event visibility
	// snapshot, exact for stores whose visibility is per-origin
	// prefix-closed (all registered stores under this FIFO transport).
	// A consumer must not write through it: in what History hands out and
	// in what Config.Tap streams, consecutive do events that saw the same
	// frontier share one slice; what a per-event journal is handed is the
	// shard's live frontier, valid only for the call (see NodeStorage).
	Frontier []uint64 `json:"frontier,omitempty"`

	// Send and receive events.
	Origin model.ReplicaID `json:"origin,omitempty"`
	Seq    uint64          `json:"seq,omitempty"`
	// Payload is recorded at send events (message-size accounting and the
	// execution's message table) and at receive events (so a restarted
	// node can rebuild its replica state from its own history alone —
	// Config.Storage).
	Payload []byte `json:"payload,omitempty"`
}

// History is one node's recorded local history, self-describing enough to
// be merged and audited by a process that never saw the node.
type History struct {
	Node   model.ReplicaID `json:"node"`
	N      int             `json:"n"`
	Store  string          `json:"store"`
	Events []Event         `json:"events"`
	// Shard/Shards identify which shard's projection this history is when
	// the recording node was sharded (zero-valued on unsharded nodes).
	// Histories from different shards have independent
	// (Origin, Seq) domains and must never be merged together — each
	// shard's histories merge and audit with their cross-node counterparts
	// only. That is sound for per-object properties, since no object spans
	// two shards; it says nothing about causal consistency across shards,
	// whose happens-before runs through session order across objects.
	Shard  int `json:"shard,omitempty"`
	Shards int `json:"shards,omitempty"`
}

// Audit is the merged view of a cluster run BuildAudit derives: the global
// concrete execution and the abstract execution the run complies with, built
// exactly as the simulator builds them for in-process runs.
type Audit struct {
	Exec     *execution.Execution
	Abstract *abstract.Execution
}

// mergedEvent pairs an event with its owning node for the global sort.
type mergedEvent struct {
	node model.ReplicaID
	idx  int    // index in the node's local history
	ev   *Event // in the node's history, not a copy: the sort moves 24 bytes
}

// merge interleaves per-node histories into one global order and lays that
// out as a concrete execution. Events sort by (Lamport, node, local index):
// Lamport times are strictly increasing per node and strictly ordered across
// a message (receive > send), so the merge is a linearization of the
// happens-before relation — in particular every receive lands after its
// send, which is what CheckWellFormed demands of a Definition 1 execution.
// It refuses with a typed *OrderError what no honest run records (see
// OrderError) instead of producing an execution CheckWellFormed would reject
// later — or worse, one it wouldn't.
func merge(hists []History) ([]mergedEvent, *execution.Execution, error) {
	var merged []mergedEvent
	seen := make(map[model.ReplicaID]bool)
	allSends := make(map[[2]uint64]bool)
	for _, h := range hists {
		if seen[h.Node] {
			return nil, nil, fmt.Errorf("cluster: two histories claim node r%d", h.Node)
		}
		seen[h.Node] = true
		for i := range h.Events {
			ev := &h.Events[i]
			if ev.Kind == model.ActSend {
				key := [2]uint64{uint64(ev.Origin), ev.Seq}
				if allSends[key] {
					// A second send of the same identity (e.g. a restart
					// re-recording a re-offered broadcast) would attribute
					// every receive to whichever send merged last; reject
					// instead of merging a lie.
					return nil, nil, &OrderError{Node: h.Node, Origin: ev.Origin, Seq: ev.Seq, DuplicateSend: true}
				}
				allSends[key] = true
			}
			merged = append(merged, mergedEvent{node: h.Node, idx: i, ev: ev})
		}
	}
	sort.SliceStable(merged, func(i, j int) bool {
		a, b := merged[i], merged[j]
		if a.ev.Lamport != b.ev.Lamport {
			return a.ev.Lamport < b.ev.Lamport
		}
		if a.node != b.node {
			return a.node < b.node
		}
		return a.idx < b.idx
	})
	x := execution.New()
	msgID := make(map[[2]uint64]int) // (origin, seq) -> execution message ID
	for _, m := range merged {
		key := [2]uint64{uint64(m.ev.Origin), m.ev.Seq}
		switch m.ev.Kind {
		case model.ActDo:
			x.AppendDo(m.node, m.ev.Object, m.ev.Op, m.ev.Rval)
		case model.ActSend:
			msgID[key] = x.AppendSend(m.node, m.ev.Payload).MsgID
		case model.ActReceive:
			// Lamport stamping puts a send ahead of each of its receives in
			// an honest merge; one that is not there means corruption.
			id, ok := msgID[key]
			if !ok {
				return nil, nil, &OrderError{Node: m.node, Origin: m.ev.Origin, Seq: m.ev.Seq, BeforeSend: allSends[key]}
			}
			x.AppendReceive(m.node, id)
		default:
			return nil, nil, fmt.Errorf("cluster: unknown event kind %v in r%d's history", m.ev.Kind, m.node)
		}
	}
	return merged, x, nil
}

// BuildAudit merges the histories (once, for both views) and derives the
// abstract execution the run complies with (abstract.Derive) from the
// frontier each do event recorded: a mutator's dot is inside e_j's past when
// e_j's frontier covers it, and a read's past is contained in e_j's when its
// frontier is, coordinate by coordinate — exact because a link is FIFO, so a
// node's visibility is a per-origin prefix. A store without visibility
// reporting records no frontier, and such an event gets session edges only.
// It is O(|do|²), and CheckCausal over it cubic: the tests' reference, which
// AuditShards is held to, and the benchmark's audit layer — no driver's.
func BuildAudit(hists []History) (*Audit, error) {
	merged, exec, err := merge(hists)
	if err != nil {
		return nil, err
	}

	var dots []model.Dot // per do event of exec, as recorded
	var frontiers [][]uint64
	var mutator []bool
	for _, m := range merged {
		if m.ev.Kind == model.ActDo {
			dots = append(dots, m.ev.Dot)
			frontiers = append(frontiers, m.ev.Frontier)
			mutator = append(mutator, m.ev.Dot.Seq != 0)
		}
	}
	covers := func(i, j int) bool {
		d, f := dots[i], frontiers[j]
		return int(d.Origin) < len(f) && f[d.Origin] >= d.Seq
	}
	contained := func(i, j int) bool {
		fi, fj := frontiers[i], frontiers[j]
		if len(fi) == 0 || len(fj) == 0 {
			return false
		}
		for o, s := range fi {
			if s > 0 && (o >= len(fj) || fj[o] < s) {
				return false
			}
		}
		return true
	}
	return &Audit{Exec: exec, Abstract: abstract.Derive(exec.DoEvents(), mutator, covers, contained)}, nil
}
