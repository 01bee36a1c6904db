package core

import (
	"citare/internal/eval"
	"citare/internal/storage"
)

// SnapshotSource is a pluggable storage backend for an engine: anything that
// can describe its schema and produce immutable snapshot views of its data.
// It is the seam persistent backends (internal/lsm via internal/backend)
// plug into — the engine never learns whether a snapshot is an in-memory
// copy-on-write database or an LSM view served from SSTable iterators.
type SnapshotSource interface {
	Schema() *storage.Schema
	Snapshot() (eval.DBView, error)
}

// NewSourceEngine assembles an engine over a snapshot source. An epoch is one
// snapshot of the source: every read — the query, its unfolded rewritings,
// the token citation queries — resolves straight to it, so building an epoch
// costs what the source's Snapshot costs and never re-reads the store.
func NewSourceEngine(src SnapshotSource, views []*CitationView, policy Policy) (*Engine, error) {
	return newEngine(nil, nil, src, views, policy)
}

// Source returns the engine's snapshot source (nil unless built with
// NewSourceEngine).
func (e *Engine) Source() SnapshotSource { return e.src }
