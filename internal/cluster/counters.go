package cluster

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

// A counter is one numeric field of Stats: an int64 (field), a varint on
// the wire, or a flag, a uvarint 0 or 1. Stats.Add sums it over nodes unless
// it describes one node (oneNode).
type counter struct {
	field   func(*Stats) *int64
	flag    func(*Stats) *bool
	oneNode bool
}

// counters is every numeric field of Stats but the identity and Shards:
// Stats.Add, the stats reply's codec and Node.Stats are loops over it.
var counters = [numCounters]counter{
	cOps:               {field: func(s *Stats) *int64 { return &s.Ops }},
	cSends:             {field: func(s *Stats) *int64 { return &s.Sends }},
	cReceives:          {field: func(s *Stats) *int64 { return &s.Receives }},
	cEvents:            {field: func(s *Stats) *int64 { return &s.Events }},
	cBytesOut:          {field: func(s *Stats) *int64 { return &s.BytesOut }},
	cFramesOut:         {field: func(s *Stats) *int64 { return &s.FramesOut }},
	cBatchFrames:       {field: func(s *Stats) *int64 { return &s.BatchFrames }},
	cRetransmits:       {field: func(s *Stats) *int64 { return &s.Retransmits }},
	cReconnects:        {field: func(s *Stats) *int64 { return &s.Reconnects }},
	cDupFrames:         {field: func(s *Stats) *int64 { return &s.DupFrames }},
	cGapFrames:         {field: func(s *Stats) *int64 { return &s.GapFrames }},
	cViolations:        {field: func(s *Stats) *int64 { return &s.Violations }},
	cQuiesced:          {flag: func(s *Stats) *bool { return &s.Quiesced }, oneNode: true},
	cBatchBytes:        {field: func(s *Stats) *int64 { return &s.BatchBytes }},
	cBatchRawBytes:     {field: func(s *Stats) *int64 { return &s.BatchRawBytes }},
	cBatchPayloadBytes: {field: func(s *Stats) *int64 { return &s.BatchPayloadBytes }},
	cMembers:           {field: func(s *Stats) *int64 { return &s.Members }, oneNode: true},
	cSyncPulled:        {field: func(s *Stats) *int64 { return &s.SyncPulled }},
	cSyncServed:        {field: func(s *Stats) *int64 { return &s.SyncServed }},
	cFailedLinks:       {field: func(s *Stats) *int64 { return &s.FailedLinks }},
}
