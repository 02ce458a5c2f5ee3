package fault

import "sync"

// Metrics is the structured record of how much failure one run absorbed:
// what the schedule did to the cluster (downtime, partition and link-fault
// spans, measured in logical steps so the record is a pure function of the
// run) and what the engines did to survive it (suppressed deliveries,
// duplicated copies, retransmissions, reconnects, dup/gap frames, and the
// work left to reach quiescence). The simulator fills the logical
// counters through an Observer; the TCP cluster's Supervisor reports its
// directives through one too and fills the transport counters from its
// nodes' own Stats (supervisor.Supervisor.Metrics) — so a schedule's
// footprint is comparable across engines.
type Metrics struct {
	// Downtime is the per-node crashed duration in schedule steps.
	Downtime []int64 `json:"downtime"`
	// PartitionSpan is the total number of steps during which at least one
	// partition directive was in force.
	PartitionSpan int64 `json:"partition_span"`
	// LinkFaultSpan is the summed duration (steps) of link cut and shaping
	// windows, over all directed links.
	LinkFaultSpan int64 `json:"link_fault_span"`
	// Blocked counts delivery attempts suppressed by a cut, stall, or
	// crashed destination (the simulator's retransmit-pressure proxy).
	Blocked int64 `json:"blocked"`
	// DupCopies counts extra broadcast copies enqueued by dup windows.
	DupCopies int64 `json:"dup_copies"`
	// Retransmits and Reconnects are the TCP transport's recovery work.
	Retransmits int64 `json:"retransmits"`
	Reconnects  int64 `json:"reconnects"`
	// DupFrames and GapFrames count redelivered and out-of-order frames
	// observed by receivers (cumulative-seq dedup).
	DupFrames int64 `json:"dup_frames"`
	GapFrames int64 `json:"gap_frames"`
	// QuiesceRounds and QuiesceDeliveries measure convergence latency: how
	// many send/deliver rounds and message deliveries quiescence
	// (Definition 17) still required after the schedule ended.
	QuiesceRounds     int64 `json:"quiesce_rounds"`
	QuiesceDeliveries int64 `json:"quiesce_deliveries"`
	// Violations counts §4 property violations observed by the checkers.
	Violations int64 `json:"violations"`
	// Leaves and Joins count membership churn directives applied, and
	// SyncUpdates counts updates moved by anti-entropy catch-up after
	// joins — the churn cost the schedule imposed, comparable across the
	// simulator and the TCP cluster.
	Leaves      int64 `json:"leaves,omitempty"`
	Joins       int64 `json:"joins,omitempty"`
	SyncUpdates int64 `json:"sync_updates,omitempty"`
}

// TotalDowntime sums the per-node downtime.
func (m Metrics) TotalDowntime() int64 {
	var t int64
	for _, d := range m.Downtime {
		t += d
	}
	return t
}

// Observer collects Metrics for one run. Directives report through
// Directive (window spans are computed from directive steps, so the
// schedule-shaped metrics are deterministic), the simulator reports through
// the Add/Observe counters. All methods are safe for concurrent use and are
// no-ops on a nil observer, so engines thread an optional *Observer
// without guarding every call site.
type Observer struct {
	mu sync.Mutex
	n  int

	crashedAt []int          // step a node went down, -1 while up
	partOpen  int            // open partition windows
	partAt    int            // step the current partition span opened
	cutOpen   map[[2]int]int // open cut windows per directed link
	cutAt     map[[2]int]int
	shapeOpen map[[2]int]int // open shaping windows per directed link
	shapeAt   map[[2]int]int

	m Metrics
}

// NewObserver creates an observer for an n-node run.
func NewObserver(n int) *Observer {
	o := &Observer{
		n:         n,
		crashedAt: make([]int, n),
		partAt:    -1,
		cutOpen:   make(map[[2]int]int),
		cutAt:     make(map[[2]int]int),
		shapeOpen: make(map[[2]int]int),
		shapeAt:   make(map[[2]int]int),
	}
	for i := range o.crashedAt {
		o.crashedAt[i] = -1
	}
	o.m.Downtime = make([]int64, n)
	return o
}

// Directive accounts one applied directive. Mirrors enforcement semantics:
// heal ends every partition and every cut window (Netem and the sim
// overlay clear the whole cut matrix on heal), link-restore ends one cut
// window, link-clear ends one shaping window.
func (o *Observer) Directive(d Directive) {
	if o == nil {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	link := [2]int{d.From, d.To}
	switch d.Kind {
	case KindCrash:
		if d.Node >= 0 && d.Node < o.n && o.crashedAt[d.Node] < 0 {
			o.crashedAt[d.Node] = d.Step
		}
	case KindRestart:
		if d.Node >= 0 && d.Node < o.n && o.crashedAt[d.Node] >= 0 {
			o.m.Downtime[d.Node] += int64(d.Step - o.crashedAt[d.Node])
			o.crashedAt[d.Node] = -1
		}
	case KindLeave:
		o.m.Leaves++
	case KindJoin:
		o.m.Joins++
	case KindPartition:
		if o.partOpen == 0 {
			o.partAt = d.Step
		}
		o.partOpen++
	case KindHeal:
		if o.partOpen > 0 {
			o.m.PartitionSpan += int64(d.Step - o.partAt)
			o.partOpen = 0
		}
		for k, at := range o.cutAt {
			o.m.LinkFaultSpan += int64(d.Step - at)
			delete(o.cutAt, k)
			delete(o.cutOpen, k)
		}
	case KindLinkCut:
		if o.cutOpen[link] == 0 {
			o.cutAt[link] = d.Step
		}
		o.cutOpen[link]++
	case KindLinkRestore:
		if o.cutOpen[link] > 0 {
			o.cutOpen[link]--
			if o.cutOpen[link] == 0 {
				o.m.LinkFaultSpan += int64(d.Step - o.cutAt[link])
				delete(o.cutAt, link)
				delete(o.cutOpen, link)
			}
		}
	case KindLinkDelay, KindLinkDup, KindLinkReorder, KindLinkRate:
		if o.shapeOpen[link] == 0 {
			o.shapeAt[link] = d.Step
		}
		o.shapeOpen[link]++
	case KindLinkClear:
		if o.shapeOpen[link] > 0 {
			o.m.LinkFaultSpan += int64(d.Step - o.shapeAt[link])
			delete(o.shapeAt, link)
			delete(o.shapeOpen, link)
		}
	}
}

// Finish closes any window still open at the end of the timeline. Balanced
// schedules close their own windows; Finish makes the metrics robust to
// truncated or hand-written ones.
func (o *Observer) Finish(steps int) {
	if o == nil {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	for i, at := range o.crashedAt {
		if at >= 0 {
			o.m.Downtime[i] += int64(steps - at)
			o.crashedAt[i] = -1
		}
	}
	if o.partOpen > 0 {
		o.m.PartitionSpan += int64(steps - o.partAt)
		o.partOpen = 0
	}
	for k, at := range o.cutAt {
		o.m.LinkFaultSpan += int64(steps - at)
		delete(o.cutAt, k)
		delete(o.cutOpen, k)
	}
	for k, at := range o.shapeAt {
		o.m.LinkFaultSpan += int64(steps - at)
		delete(o.shapeAt, k)
		delete(o.shapeOpen, k)
	}
}

// AddBlocked counts deliveries suppressed by cuts, stalls, or a crashed
// destination.
func (o *Observer) AddBlocked(n int64) { o.add(func(m *Metrics) { m.Blocked += n }) }

// AddDupCopies counts extra broadcast copies created by dup windows.
func (o *Observer) AddDupCopies(n int64) { o.add(func(m *Metrics) { m.DupCopies += n }) }

// AddSyncUpdates counts the backlog the simulator requeues for a joiner
// (the TCP cluster's counterpart is its nodes' range-pulled updates).
func (o *Observer) AddSyncUpdates(n int64) { o.add(func(m *Metrics) { m.SyncUpdates += n }) }

// ObserveQuiesce records the convergence-latency measure: how many rounds
// and deliveries draining the run took.
func (o *Observer) ObserveQuiesce(rounds, deliveries int64) {
	o.add(func(m *Metrics) {
		m.QuiesceRounds += rounds
		m.QuiesceDeliveries += deliveries
	})
}

// SetViolations records the checker-violation count.
func (o *Observer) SetViolations(n int64) { o.add(func(m *Metrics) { m.Violations = n }) }

func (o *Observer) add(f func(*Metrics)) {
	if o == nil {
		return
	}
	o.mu.Lock()
	f(&o.m)
	o.mu.Unlock()
}

// Metrics snapshots the collected metrics.
func (o *Observer) Metrics() Metrics {
	if o == nil {
		return Metrics{}
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	m := o.m
	m.Downtime = append([]int64(nil), o.m.Downtime...)
	return m
}
