// Package fault generates and enforces deterministic fault schedules:
// partitions, asymmetric link cuts, per-link delay/duplicate/reorder
// windows, and node crash/restart cycles, all derived from one root seed.
//
// Theorem 6's constructive recursion is exactly an adversarial delivery
// schedule — partitions and delays are the instrument the paper uses to
// force OCC-maximal behaviour — and Definition 3 (eventual delivery)
// requires that visibility survive them. A Schedule makes that adversary a
// first-class, replayable artifact: the same (seed, n, steps) always
// produces the identical directive timeline, so "the run survived chaos"
// becomes a checkable claim rather than an anecdote. Two engines replay a
// schedule, and both read their links from a Links (links.go), the one
// place a link directive becomes link state:
//
//   - internal/sim consults it on its logical delivery queue (one
//     directive step per workload step);
//   - internal/supervisor applies the schedule to real TCP links through
//     Netem, the transport it hands every internal/cluster node, plus node
//     stop/rejoin with history reload. A TCP connection delivers in order
//     or dies, so Netem skips reorder windows: reordering is the
//     simulator's fault alone.
//
// Both engines model fail-stop crashes with a durable local log:
// the replica's recorded history survives the crash, the in-flight network
// state does not.
package fault

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"repro/internal/gen"
)

// Kind names a directive. Window-shaped faults are emitted as balanced
// begin/end pairs (Partition/Heal, LinkCut/LinkRestore, shaping/LinkClear,
// Crash/Restart), so a schedule read front to back is a complete timeline.
type Kind string

const (
	// KindPartition splits the cluster into Groups; messages flow only
	// within a group (nodes absent from every group are isolated).
	KindPartition Kind = "partition"
	// KindHeal restores full connectivity (ends a partition).
	KindHeal Kind = "heal"
	// KindLinkCut blackholes the directed link From→To.
	KindLinkCut Kind = "link-cut"
	// KindLinkRestore reopens the directed link From→To.
	KindLinkRestore Kind = "link-restore"
	// KindLinkDelay delays frames on From→To (DelaySteps ticks each).
	KindLinkDelay Kind = "link-delay"
	// KindLinkDup duplicates every frame on From→To.
	KindLinkDup Kind = "link-dup"
	// KindLinkReorder swaps adjacent messages on From→To. Only the
	// simulator reorders; Netem ignores it, since no TCP connection can.
	KindLinkReorder Kind = "link-reorder"
	// KindLinkRate caps the bandwidth of From→To at RateKBps.
	KindLinkRate Kind = "link-rate"
	// KindLinkClear ends the shaping window (delay/dup/reorder/rate) on
	// From→To.
	KindLinkClear Kind = "link-clear"
	// KindCrash fail-stops Node (its durable history survives).
	KindCrash Kind = "crash"
	// KindRestart rejoins Node, reloading its history and Lamport clock.
	KindRestart Kind = "restart"
	// KindLeave removes Node from the membership view: it announces its
	// departure, peers drop their replication links to it (including
	// unacked queues — a leave, unlike a crash, releases retransmission
	// obligations), and its later KindJoin must catch up via anti-entropy.
	KindLeave Kind = "leave"
	// KindJoin readmits a departed Node through the join protocol: a new
	// epoch, a hash-chain digest exchange, and range pulls for whatever its
	// history is missing. Balanced schedules pair every leave with a join.
	KindJoin Kind = "join"
)

// Directive is one timed fault event. Step is a logical tick: the simulator
// maps it to a workload step, the cluster maps it to Step×tick wall time.
type Directive struct {
	Step int  `json:"step"`
	Kind Kind `json:"kind"`

	// Groups is the partition layout (KindPartition only).
	Groups [][]int `json:"groups,omitempty"`
	// From and To name the directed link of link faults.
	From int `json:"from"`
	To   int `json:"to"`
	// Node is the subject of crash/restart directives.
	Node int `json:"node"`
	// DelaySteps is the per-frame delay of KindLinkDelay, in ticks.
	DelaySteps int `json:"delay_steps,omitempty"`
	// JitterSteps widens KindLinkDelay into a distribution: each frame
	// draws an extra delay uniformly from [0, JitterSteps] ticks, so the
	// two directions of a link can carry different delay distributions.
	JitterSteps int `json:"jitter_steps,omitempty"`
	// RateKBps is the bandwidth cap of KindLinkRate, in KiB per second of
	// wall time (the emulator's serialization model; the simulator treats
	// rate windows as a no-op since its delivery is not byte-timed).
	RateKBps int `json:"rate_kbps,omitempty"`
}

// Detail renders the directive's parameters for a fault log.
func (d Directive) Detail() string {
	switch d.Kind {
	case KindPartition:
		return fmt.Sprintf("groups=%v", d.Groups)
	case KindHeal:
		return "all links"
	case KindLinkDelay:
		if d.JitterSteps > 0 {
			return fmt.Sprintf("r%d->r%d +%d±%d ticks", d.From, d.To, d.DelaySteps, d.JitterSteps)
		}
		return fmt.Sprintf("r%d->r%d +%d ticks", d.From, d.To, d.DelaySteps)
	case KindLinkRate:
		return fmt.Sprintf("r%d->r%d %dKBps", d.From, d.To, d.RateKBps)
	case KindLinkCut, KindLinkRestore, KindLinkDup, KindLinkReorder, KindLinkClear:
		return fmt.Sprintf("r%d->r%d", d.From, d.To)
	case KindCrash, KindRestart, KindLeave, KindJoin:
		return fmt.Sprintf("r%d", d.Node)
	}
	return ""
}

// Schedule is a deterministic fault timeline for an n-node run of Steps
// logical ticks. Directives are sorted by Step (ties keep generation
// order), so enforcement is a single forward scan.
type Schedule struct {
	Seed       int64       `json:"seed"`
	N          int         `json:"n"`
	Steps      int         `json:"steps"`
	Directives []Directive `json:"directives"`
}

// Counts tallies the schedule by fault family (partitions, crashes, link
// windows) for reports and assertions.
func (s Schedule) Counts() (partitions, crashes, linkFaults int) {
	for _, d := range s.Directives {
		switch d.Kind {
		case KindPartition:
			partitions++
		case KindCrash:
			crashes++
		case KindLinkCut, KindLinkDelay, KindLinkDup, KindLinkReorder, KindLinkRate:
			linkFaults++
		}
	}
	return partitions, crashes, linkFaults
}

// CheckBalanced verifies the window-balance invariants Generate guarantees
// by construction, on any schedule: every directive lies inside the
// timeline and, when N is set, names only nodes 0..N-1, every window-opening directive is matched by a closing one
// (partitions by heals, cuts by restores, shaping by clears, crashes by
// restarts — the pairing the fault-log reader relies on), no node crashes
// while already down, no link fault targets a self-link, and delay/rate
// windows carry positive parameters. The chaos search asserts this over
// every schedule it evaluates, so an adversarially chosen seed can never
// smuggle in a run that fails to heal itself (eventual delivery,
// Definition 3, must survive the search).
func (s Schedule) CheckBalanced() error {
	openParts := 0
	down := map[int]bool{}
	left := map[int]bool{}
	openCuts := map[[2]int]int{}
	openShapes := map[[2]int]int{}
	outside := func(r int) bool { return s.N > 0 && (r < 0 || r >= s.N) }
	for i, d := range s.Directives {
		if d.Step < 0 || (s.Steps > 0 && d.Step >= s.Steps) {
			return fmt.Errorf("fault: directive %d outside timeline [0,%d): %+v", i, s.Steps, d)
		}
		// Fields a kind does not use are zero, which names node 0.
		if outside(d.From) || outside(d.To) || outside(d.Node) {
			return fmt.Errorf("fault: directive %d names a node outside [0,%d): %+v", i, s.N, d)
		}
		link := [2]int{d.From, d.To}
		switch d.Kind {
		case KindPartition:
			for _, g := range d.Groups {
				if len(g) == 0 {
					return fmt.Errorf("fault: directive %d: empty partition group", i)
				}
				if slices.ContainsFunc(g, outside) {
					return fmt.Errorf("fault: directive %d: partition group %v outside [0,%d)", i, g, s.N)
				}
			}
			openParts++
		case KindHeal:
			if openParts == 0 {
				return fmt.Errorf("fault: directive %d: heal without an open partition", i)
			}
			openParts--
		case KindCrash:
			if down[d.Node] {
				return fmt.Errorf("fault: directive %d: r%d crashed while down", i, d.Node)
			}
			if left[d.Node] {
				return fmt.Errorf("fault: directive %d: r%d crashed while departed", i, d.Node)
			}
			down[d.Node] = true
		case KindRestart:
			if !down[d.Node] {
				return fmt.Errorf("fault: directive %d: restart of r%d while up", i, d.Node)
			}
			down[d.Node] = false
		case KindLeave:
			if left[d.Node] {
				return fmt.Errorf("fault: directive %d: r%d left while departed", i, d.Node)
			}
			if down[d.Node] {
				return fmt.Errorf("fault: directive %d: r%d left while down", i, d.Node)
			}
			left[d.Node] = true
		case KindJoin:
			if !left[d.Node] {
				return fmt.Errorf("fault: directive %d: join of r%d while present", i, d.Node)
			}
			left[d.Node] = false
		case KindLinkCut:
			if d.From == d.To {
				return fmt.Errorf("fault: directive %d: self link %+v", i, d)
			}
			openCuts[link]++
		case KindLinkRestore:
			if openCuts[link] == 0 {
				return fmt.Errorf("fault: directive %d: restore of uncut link %+v", i, d)
			}
			if openCuts[link]--; openCuts[link] == 0 {
				delete(openCuts, link)
			}
		case KindLinkDelay, KindLinkDup, KindLinkReorder, KindLinkRate:
			if d.From == d.To {
				return fmt.Errorf("fault: directive %d: self link %+v", i, d)
			}
			if d.Kind == KindLinkDelay && d.DelaySteps < 1 {
				return fmt.Errorf("fault: directive %d: delay window without delay", i)
			}
			if d.Kind == KindLinkRate && d.RateKBps < 1 {
				return fmt.Errorf("fault: directive %d: rate window without a rate", i)
			}
			openShapes[link]++
		case KindLinkClear:
			if openShapes[link] == 0 {
				return fmt.Errorf("fault: directive %d: clear of unshaped link %+v", i, d)
			}
			if openShapes[link]--; openShapes[link] == 0 {
				delete(openShapes, link)
			}
		default:
			return fmt.Errorf("fault: directive %d: unknown kind %q", i, d.Kind)
		}
	}
	if openParts > 0 {
		return fmt.Errorf("fault: %d partition windows never healed", openParts)
	}
	for r, d := range down {
		if d {
			return fmt.Errorf("fault: r%d never restarted", r)
		}
	}
	for r, l := range left {
		if l {
			return fmt.Errorf("fault: r%d never rejoined", r)
		}
	}
	if len(openCuts) > 0 {
		return fmt.Errorf("fault: %d cut windows never restored", len(openCuts))
	}
	if len(openShapes) > 0 {
		return fmt.Errorf("fault: %d shaping windows never cleared", len(openShapes))
	}
	return nil
}

// Config parameterizes Generate.
type Config struct {
	// Seed is the root seed; the schedule stream is split from it with
	// gen.SplitSeed, so workload streams split from the same root stay
	// decorrelated.
	Seed int64
	// N is the cluster size (at least 2).
	N int
	// Steps is the logical timeline length.
	Steps int
	// Partitions, Crashes, and LinkFaults are how many windows of each
	// family to schedule. Crashes are capped at N-1 so the cluster never
	// loses every node at once.
	Partitions int
	Crashes    int
	LinkFaults int
	// Churns is how many leave→join windows to schedule. Churn victims are
	// drawn disjoint from crash victims (crashes+churns capped at N),
	// because a leave releases peers' retransmission obligations while a
	// crash does not — overlapping the two on one node would make the
	// schedule ambiguous about which recovery path is under test. Churn
	// windows may overlap crash windows of other nodes; rejoining is
	// retried until a seed is reachable, so the pairing still closes.
	Churns int
}

// scheduleStream is the gen.SplitSeed stream index reserved for fault
// schedules, keeping them decorrelated from worker streams 0..k.
const scheduleStream = -7001

// Generate derives the fault schedule for cfg. It is a pure function of the
// config: the same config always yields the identical schedule.
func Generate(cfg Config) Schedule {
	if cfg.N < 2 || cfg.Steps < 8 {
		return Schedule{Seed: cfg.Seed, N: cfg.N, Steps: cfg.Steps}
	}
	rng := rand.New(rand.NewSource(gen.SplitSeed(cfg.Seed, scheduleStream)))
	s := Schedule{Seed: cfg.Seed, N: cfg.N, Steps: cfg.Steps}
	add := func(d Directive) { s.Directives = append(s.Directives, d) }

	// window picks a [start, end) fault window that closes before the
	// timeline ends, so every schedule heals itself.
	window := func() (start, end int) {
		start = rng.Intn(cfg.Steps * 2 / 3)
		dur := 1 + rng.Intn(cfg.Steps/4+1)
		end = start + dur
		if end >= cfg.Steps {
			end = cfg.Steps - 1
		}
		if end <= start {
			end = start + 1
		}
		return start, end
	}

	for i := 0; i < cfg.Partitions; i++ {
		start, end := window()
		// Random two-sided split with both sides non-empty.
		perm := rng.Perm(cfg.N)
		cut := 1 + rng.Intn(cfg.N-1)
		a, b := perm[:cut], perm[cut:]
		ga := append([]int(nil), a...)
		gb := append([]int(nil), b...)
		sort.Ints(ga)
		sort.Ints(gb)
		add(Directive{Step: start, Kind: KindPartition, Groups: [][]int{ga, gb}})
		add(Directive{Step: end, Kind: KindHeal})
	}

	crashes := cfg.Crashes
	if crashes > cfg.N-1 {
		crashes = cfg.N - 1
	}
	// Distinct victims per crash window so no node crashes while down.
	victims := rng.Perm(cfg.N)
	for i := 0; i < crashes; i++ {
		start, end := window()
		add(Directive{Step: start, Kind: KindCrash, Node: victims[i]})
		add(Directive{Step: end, Kind: KindRestart, Node: victims[i]})
	}

	shapes := []Kind{KindLinkDelay, KindLinkDup, KindLinkReorder, KindLinkCut, KindLinkRate}
	for i := 0; i < cfg.LinkFaults; i++ {
		start, end := window()
		from := rng.Intn(cfg.N)
		to := rng.Intn(cfg.N - 1)
		if to >= from {
			to++
		}
		kind := shapes[rng.Intn(len(shapes))]
		d := Directive{Step: start, Kind: kind, From: from, To: to}
		endKind := KindLinkClear
		switch kind {
		case KindLinkCut:
			endKind = KindLinkRestore
		case KindLinkDelay:
			// Each direction draws its own base delay and jitter width, so
			// the two halves of a link carry asymmetric distributions.
			d.DelaySteps = 1 + rng.Intn(3)
			d.JitterSteps = rng.Intn(3)
		case KindLinkRate:
			d.RateKBps = 8 << rng.Intn(4) // 8..64 KiB/s
		}
		add(d)
		add(Directive{Step: end, Kind: endKind, From: from, To: to})
	}

	// Churn windows draw their victims from the tail of the same
	// permutation the crash loop consumed the head of — disjoint by
	// construction, and with zero extra RNG draws when Churns is zero, so
	// every pre-churn schedule stays byte-identical.
	churns := cfg.Churns
	if max := cfg.N - crashes; churns > max {
		churns = max
	}
	for i := 0; i < churns; i++ {
		start, end := window()
		add(Directive{Step: start, Kind: KindLeave, Node: victims[crashes+i]})
		add(Directive{Step: end, Kind: KindJoin, Node: victims[crashes+i]})
	}

	sort.SliceStable(s.Directives, func(i, j int) bool {
		return s.Directives[i].Step < s.Directives[j].Step
	})
	return s
}
