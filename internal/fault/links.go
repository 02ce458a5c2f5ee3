package fault

// Link is the state of one directed link: whether it is cut, and the
// shaping window open on it. Delay and jitter are in ticks; each engine
// reads them in its own terms (Netem as wall time, the simulator as a
// stall), and reads only what it can enforce: Netem never reorders, the
// simulator never times bytes.
type Link struct {
	Cut bool
	// Delay is the per-frame delay in ticks, and Jitter the width of the
	// uniform extra delay drawn per frame.
	Delay, Jitter int
	// RateKBps caps the bandwidth; 0 is no cap.
	RateKBps     int
	Dup, Reorder bool
}

// Links is the link state of an n-node run, and Apply is the one place a
// link directive becomes link state: the simulator and Netem both read
// their links from one.
type Links struct {
	n     int
	links []Link // from*n + to
}

// NewLinks returns the table of an n-node run with every link clean.
func NewLinks(n int) *Links { return &Links{n: n, links: make([]Link, n*n)} }

// At returns the state of the link from→to; a link outside the run is
// clean.
func (l *Links) At(from, to int) Link {
	if !l.has(from) || !l.has(to) {
		return Link{}
	}
	return l.links[from*l.n+to]
}

func (l *Links) has(r int) bool { return r >= 0 && r < l.n }

// Apply enforces one link directive. A partition overwrites the cut set,
// isolating every node it groups with no one; heal lifts every cut and
// leaves shaping, and link-clear lifts a link's shaping and leaves its cut.
// A rate of 0, a link outside the run and every node directive (crash,
// restart, leave, join) change nothing.
func (l *Links) Apply(d Directive) {
	switch d.Kind {
	case KindPartition:
		group := make(map[int]int)
		for gi, g := range d.Groups {
			for _, r := range g {
				group[r] = gi + 1
			}
		}
		for i := range l.links {
			from, to := i/l.n, i%l.n
			gf, gt := group[from], group[to]
			l.links[i].Cut = from != to && (gf != gt || gf == 0)
		}
		return
	case KindHeal:
		for i := range l.links {
			l.links[i].Cut = false
		}
		return
	}
	if !l.has(d.From) || !l.has(d.To) {
		return
	}
	k := &l.links[d.From*l.n+d.To]
	switch d.Kind {
	case KindLinkCut:
		k.Cut = true
	case KindLinkRestore:
		k.Cut = false
	case KindLinkDelay:
		k.Delay, k.Jitter = d.DelaySteps, d.JitterSteps
	case KindLinkDup:
		k.Dup = true
	case KindLinkReorder:
		k.Reorder = true
	case KindLinkRate:
		if d.RateKBps > 0 {
			k.RateKBps = d.RateKBps
		}
	case KindLinkClear:
		*k = Link{Cut: k.Cut}
	}
}
