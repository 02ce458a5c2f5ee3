package durable

import (
	"fmt"
	"path/filepath"
	"sync"

	"repro/internal/cluster"
	"repro/internal/membership"
	"repro/internal/model"
)

// Storage roots one durable log per node under Dir (node<i>/ subdirectories;
// a sharded node nests node<i>/shard-NNN/, one log per shard) and plugs into
// cluster.Config.Storage, so a Supervisor's crash/restart directives
// exercise the same journal-and-recover code path a kill -9'd served process
// takes: crash closes the incarnation's log with the node, restart recovers
// the history from disk.
//
// When a node opens more than one shard through the same Storage, the shard
// logs share one GroupCommitter automatically: concurrent appends across
// shards coalesce into one fsync round instead of one fsync per shard.
// Opts.Group, if set, overrides the shared committer (tests inject counting
// ones).
type Storage struct {
	Dir  string
	Opts Options

	once  sync.Once
	group *GroupCommitter
}

var _ cluster.NodeStorage = (*Storage)(nil)

// Open implements cluster.NodeStorage: it opens node id's log for one shard
// under Dir, returning its append callback, any recovered history, no
// forest (the shard builds its own; see cluster.NodeStorage), and the
// close hook the node runs after that shard's event loop has exited.
func (s *Storage) Open(id model.ReplicaID, n int, storeName string, shard, shards int) (func(cluster.Event) error, *cluster.History, *membership.Forest, func() error, error) {
	dir := filepath.Join(s.Dir, fmt.Sprintf("node%d", id))
	opts := s.Opts
	if shards > 1 {
		dir = filepath.Join(dir, fmt.Sprintf("shard-%03d", shard))
		if opts.Group == nil {
			s.once.Do(func() { s.group = NewGroupCommitter() })
			opts.Group = s.group
		}
	}
	l, hist, err := Open(dir, Meta{Node: id, N: n, Store: storeName, Shard: shard, Shards: shards}, opts)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	return l.Append, hist, nil, l.Close, nil
}
