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
	// Recorded frontiers are immutable, and a node relies on it: consecutive
	// do events that saw the same frontier share one slice (as do the
	// copies History hands out), so a consumer must not write through it.
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
	// only, which Proposition 1's per-object projections make sound.
	Shard  int `json:"shard,omitempty"`
	Shards int `json:"shards,omitempty"`
}

// Audit is the merged, checkable view of a cluster run: the global concrete
// execution (for CheckWellFormed and message accounting) and the derived
// abstract execution (for the consistency checkers), built exactly as the
// simulator builds them for in-process runs.
type Audit struct {
	Exec     *execution.Execution
	Abstract *abstract.Execution
}

// mergedEvent pairs an event with its owning node for the global sort.
type mergedEvent struct {
	node model.ReplicaID
	idx  int // index in the node's local history
	ev   Event
}

// MergeHistories interleaves per-node histories into one concrete
// execution. Events sort by (Lamport, node, local index): Lamport times are
// strictly increasing per node and strictly ordered across a message
// (receive > send), so the merge is a linearization of the happens-before
// relation — in particular every receive lands after its send, which is
// what CheckWellFormed demands of a Definition 1 execution.
func MergeHistories(hists []History) (*execution.Execution, error) {
	merged, err := mergeOrder(hists)
	if err != nil {
		return nil, err
	}
	return buildExec(merged)
}

// buildExec lays the merged order out as a concrete execution.
func buildExec(merged []mergedEvent) (*execution.Execution, error) {
	x := execution.New()
	msgID := make(map[[2]uint64]int) // (origin, seq) -> execution message ID
	for _, m := range merged {
		switch m.ev.Kind {
		case model.ActDo:
			x.AppendDo(m.node, m.ev.Object, m.ev.Op, m.ev.Rval)
		case model.ActSend:
			e := x.AppendSend(m.node, m.ev.Payload)
			msgID[[2]uint64{uint64(m.ev.Origin), m.ev.Seq}] = e.MsgID
		case model.ActReceive:
			id, ok := msgID[[2]uint64{uint64(m.ev.Origin), m.ev.Seq}]
			if !ok {
				return nil, fmt.Errorf("cluster: r%d received update (r%d,%d) with no merged send event",
					m.node, m.ev.Origin, m.ev.Seq)
			}
			x.AppendReceive(m.node, id)
		default:
			return nil, fmt.Errorf("cluster: unknown event kind %v in r%d's history", m.ev.Kind, m.node)
		}
	}
	return x, nil
}

func mergeOrder(hists []History) ([]mergedEvent, error) {
	var merged []mergedEvent
	seen := make(map[model.ReplicaID]bool)
	allSends := make(map[[2]uint64]bool)
	for _, h := range hists {
		if seen[h.Node] {
			return nil, fmt.Errorf("cluster: two histories claim node r%d", h.Node)
		}
		seen[h.Node] = true
		for i, ev := range h.Events {
			if ev.Kind == model.ActSend {
				key := [2]uint64{uint64(ev.Origin), ev.Seq}
				if allSends[key] {
					// A second send of the same identity (e.g. a restart
					// re-recording a re-offered broadcast) would let
					// MergeHistories attribute every receive to whichever
					// send merged last; reject instead of merging a lie.
					return nil, &OrderError{
						Node: h.Node, Origin: ev.Origin, Seq: ev.Seq,
						DuplicateSend: true,
					}
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
	// Send-before-receive validation: in the merged order, every receive's
	// (Origin, Seq) must already have a send behind it. Lamport stamping
	// guarantees this for honest histories (receive > send); a violation
	// means corruption, reported as a typed *OrderError rather than
	// silently producing an execution CheckWellFormed would reject later
	// (or worse, one it wouldn't).
	sent := make(map[[2]uint64]bool)
	for _, m := range merged {
		key := [2]uint64{uint64(m.ev.Origin), m.ev.Seq}
		switch m.ev.Kind {
		case model.ActSend:
			sent[key] = true
		case model.ActReceive:
			if !sent[key] {
				return nil, &OrderError{
					Node: m.node, Origin: m.ev.Origin, Seq: m.ev.Seq,
					BeforeSend: allSends[key],
				}
			}
		}
	}
	return merged, nil
}

// BuildAudit merges the histories (once, for both views) and derives the
// abstract execution the run complies with, mirroring
// sim.Cluster.DerivedAbstract: H is the merged do order, and e_i -vis-> e_j
// iff session order holds, e_i is a mutator whose dot is inside e_j's
// frontier, or e_i is a read whose frontier is contained in e_j's (the
// strongest visibility a complying execution can claim for a read).
func BuildAudit(hists []History) (*Audit, error) {
	merged, err := mergeOrder(hists)
	if err != nil {
		return nil, err
	}
	exec, err := buildExec(merged)
	if err != nil {
		return nil, err
	}

	a := abstract.New()
	var dots []model.Dot
	var frontiers [][]uint64
	var replicas []model.ReplicaID
	for _, m := range merged {
		if m.ev.Kind != model.ActDo {
			continue
		}
		a.Append(model.DoEvent(m.node, m.ev.Object, m.ev.Op, m.ev.Rval))
		dots = append(dots, m.ev.Dot)
		frontiers = append(frontiers, m.ev.Frontier)
		replicas = append(replicas, m.node)
	}
	covers := func(f []uint64, d model.Dot) bool {
		return int(d.Origin) < len(f) && f[d.Origin] >= d.Seq
	}
	contained := func(fi, fj []uint64) bool {
		for o, s := range fi {
			if s > 0 && (o >= len(fj) || fj[o] < s) {
				return false
			}
		}
		return true
	}
	for j := range dots {
		for i := 0; i < j; i++ {
			switch {
			case replicas[i] == replicas[j]:
				a.AddVis(i, j)
			case dots[i].Seq != 0: // mutator: dot inside j's frontier
				if covers(frontiers[j], dots[i]) {
					a.AddVis(i, j)
				}
			default: // read: frontier containment
				// Only when both events actually reported a frontier: a
				// store without visibility reporting records none (nil),
				// and deriving "saw nothing ⊆ anything" edges from that
				// absence would fabricate visibility the store never
				// claimed — enough to mask a real violation behind a
				// well-connected read.
				if len(frontiers[i]) > 0 && len(frontiers[j]) > 0 && contained(frontiers[i], frontiers[j]) {
					a.AddVis(i, j)
				}
			}
		}
	}
	return &Audit{Exec: exec, Abstract: a}, nil
}

// Doer performs one client operation at a replica — implemented by *Node
// (in-process) and *Client (over the wire), so convergence checks run
// identically in tests and in cmd/loadgen.
type Doer interface {
	Do(obj model.ObjectID, op model.Operation) (model.Response, error)
}

// CheckConverged verifies Lemma 3's conclusion on a quiescent cluster:
// reads of every listed object return the same response at every replica.
// Unlike the simulator's lossy runs, the transport's retransmission makes
// delivery genuinely eventual (Definition 3), so convergence is owed after
// quiescence even on a network that dropped connections. The reads go
// through the replicas' ordinary client path and are recorded like any
// other operations.
func CheckConverged(replicas []Doer, objects []model.ObjectID) error {
	for _, obj := range objects {
		var first model.Response
		for i, r := range replicas {
			resp, err := r.Do(obj, model.Read())
			if err != nil {
				return fmt.Errorf("cluster: convergence read of %s at replica %d: %w", obj, i, err)
			}
			if i == 0 {
				first = resp
			} else if !resp.Equal(first) {
				return fmt.Errorf("cluster: %s diverged after quiescence: replica 0 reads %s, replica %d reads %s",
					obj, first, i, resp)
			}
		}
	}
	return nil
}
