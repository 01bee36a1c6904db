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
