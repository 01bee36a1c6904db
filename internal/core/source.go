package core

import (
	"citare/internal/eval"
	"citare/internal/shard"
	"citare/internal/storage"
)

// SnapshotSource is an engine's store: anything that can describe its schema
// and produce immutable snapshot views of its data. It is the one seam every
// storage mode plugs into — DBSource, ShardSource, the persistent backends
// (internal/lsm via internal/backend) — so the engine never learns whether a
// snapshot is an in-memory copy-on-write database, a set of shards or an LSM
// view served from SSTable iterators. A snapshot that is an
// eval.Partitioned is evaluated scatter-gather.
type SnapshotSource interface {
	Schema() *storage.Schema
	Snapshot() (eval.DBView, error)
}

// ChangeSource is a SnapshotSource that keeps a write log: it places each of
// its snapshots in the store's write order and lists what was written to a
// relation between two places. The head source of a persistent backend
// (backend.Head) is one. Over it the engine's token cache outlives Reset: a
// token rendered at one snapshot is brought forward to a later one — kept
// when nothing C_V reads moved, extended by the delta rule when rows were
// only inserted — instead of rendered again. Over any other source an entry
// serves only the epoch it was rendered at.
type ChangeSource interface {
	SnapshotSource
	// Position places a snapshot this source took in its write order; ok is
	// false when it has no place there (a snapshot pinned to a version).
	Position(view eval.DBView) (pos uint64, ok bool)
	// Changes calls fn with every insert and delete of rel between two
	// positions, [from, to), oldest first, until fn returns false. It
	// returns false, having called fn with nothing, when it no longer knows.
	Changes(rel string, from, to uint64, fn func(deleted bool, t storage.Tuple) bool) bool
}

// DBSource is the SnapshotSource of a live in-memory database: a snapshot is
// its O(relations) copy-on-write view.
type DBSource struct{ DB *storage.DB }

func (s DBSource) Schema() *storage.Schema { return s.DB.Schema() }
func (s DBSource) Snapshot() (eval.DBView, error) {
	return eval.DBViewOf(s.DB.Snapshot()), nil
}

// ShardSource is the SnapshotSource of a live hash-partitioned database:
// snapshots are taken per shard, and being eval.Partitioned they make every
// evaluation scatter-gather.
type ShardSource struct{ DB *shard.DB }

func (s ShardSource) Schema() *storage.Schema        { return s.DB.Schema() }
func (s ShardSource) Snapshot() (eval.DBView, error) { return s.DB.Snapshot(), nil }
