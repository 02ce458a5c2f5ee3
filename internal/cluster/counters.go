package cluster

import "fmt"

// The counters of a stats reply, one constant per entry of counters, in the
// order the reply carries them.
const (
	cOps = iota
	cSends
	cReceives
	cEvents
	cBytesOut
	cFramesOut
	cBatchFrames
	cRetransmits
	cReconnects
	cDupFrames
	cGapFrames
	cViolations
	cQuiesced
	cBatchBytes
	cBatchRawBytes
	cBatchPayloadBytes
	cMembers
	cSyncPulled
	cSyncServed
	cFailedLinks
	numCounters
)

// A counter is one numeric field of Stats: an int64, a varint on the wire,
// or a flag, a bool and a uvarint 0 or 1 (Stats.counter). Stats.Add sums it
// over nodes unless it describes one node (oneNode).
type counter struct {
	oneNode bool
}

// counters is every numeric field of Stats but the identity and Shards:
// Stats.Add, the stats reply's codec and Node.Stats are loops over it.
var counters = [numCounters]counter{
	cQuiesced: {oneNode: true},
	cMembers:  {oneNode: true},
}

// counter returns the field of s that counter c is: an int64 field, or for a
// flag a bool field, the other result nil. It is a switch, not a table of
// accessor closures, so a Stats the caller holds stays where it is: a
// closure's call hides what it does with s, and every Stats it was handed
// moved to the heap.
func (s *Stats) counter(c int) (*int64, *bool) {
	switch c {
	case cOps:
		return &s.Ops, nil
	case cSends:
		return &s.Sends, nil
	case cReceives:
		return &s.Receives, nil
	case cEvents:
		return &s.Events, nil
	case cBytesOut:
		return &s.BytesOut, nil
	case cFramesOut:
		return &s.FramesOut, nil
	case cBatchFrames:
		return &s.BatchFrames, nil
	case cRetransmits:
		return &s.Retransmits, nil
	case cReconnects:
		return &s.Reconnects, nil
	case cDupFrames:
		return &s.DupFrames, nil
	case cGapFrames:
		return &s.GapFrames, nil
	case cViolations:
		return &s.Violations, nil
	case cQuiesced:
		return nil, &s.Quiesced
	case cBatchBytes:
		return &s.BatchBytes, nil
	case cBatchRawBytes:
		return &s.BatchRawBytes, nil
	case cBatchPayloadBytes:
		return &s.BatchPayloadBytes, nil
	case cMembers:
		return &s.Members, nil
	case cSyncPulled:
		return &s.SyncPulled, nil
	case cSyncServed:
		return &s.SyncServed, nil
	case cFailedLinks:
		return &s.FailedLinks, nil
	}
	panic(fmt.Sprintf("cluster: no counter %d", c))
}
