// Package backend defines the pluggable storage layer of the citation
// engine: a mutable, versioned store that hands out snapshot-isolated read
// views. Its one implementation is LSM, the persistent log-structured store
// (internal/lsm) whose views are served from SSTable iterators; it passes
// the conformance suite (conformance_test.go) and drives a core engine
// through the Head/At snapshot sources.
//
// A backend also keeps a write log: every head view has a Position in the
// store's write order, and Changes lists the inserts and deletes of a
// relation between two positions while the store still holds them in memory
// (since its last flush). The head source hands both to the engine, which
// brings its cached citation tokens forward across a commit instead of
// rendering them again; a source pinned to a version has no position.
package backend

import (
	"citare/internal/eval"
	"citare/internal/storage"
)

// View is a snapshot-isolated read view: an eval.DBView plus a release hook
// returning any resources pinned by the snapshot (the LSM backend's SSTable
// references).
type View interface {
	eval.DBView
	// Position places a head view in the store's write order: it sees every
	// write below the position and none at or above it. A view of a
	// committed version (AsOf) has none: ok is false.
	Position() (pos uint64, ok bool)
	Release()
}

// Backend is a mutable versioned store. Writes apply at the current version;
// Commit freezes it under an optional label and advances. Snapshot views the
// current state (committed and uncommitted); AsOf views a committed version
// and stays stable forever.
type Backend interface {
	Schema() *storage.Schema
	Insert(rel string, vals ...string) error
	Delete(rel string, vals ...string) (bool, error)
	Commit(label string) (uint64, error)
	Version() uint64
	Versions() []uint64
	Label(version uint64) string
	Snapshot() (View, error)
	AsOf(version uint64) (View, error)
	// Changes calls fn with every insert and delete of rel at positions in
	// [from, to), oldest first, until fn returns false. When the range starts
	// before the writes the store still holds in memory (its last flush) it
	// calls fn with nothing and returns false: the changes are unknown.
	Changes(rel string, from, to uint64, fn func(deleted bool, t storage.Tuple) bool) bool
	Close() error
}

// Source adapts a backend to core.SnapshotSource (structurally — this
// package does not import core): the head source re-snapshots the current
// state on every call, while a versioned source always views one committed
// version.
type Source struct {
	b       Backend
	version uint64 // 0 = head
}

// Head returns a snapshot source over the backend's current state; each
// Snapshot call sees the writes made so far.
func Head(b Backend) Source { return Source{b: b} }

// At returns a snapshot source pinned to one committed version — the seam
// behind durable AsOf citations.
func At(b Backend, version uint64) Source { return Source{b: b, version: version} }

// Schema returns the backend schema.
func (s Source) Schema() *storage.Schema { return s.b.Schema() }

// Snapshot takes a view at the source's version (or of the head).
func (s Source) Snapshot() (eval.DBView, error) {
	var v View
	var err error
	if s.version == 0 {
		v, err = s.b.Snapshot()
	} else {
		v, err = s.b.AsOf(s.version)
	}
	if err != nil {
		return nil, err
	}
	return v, nil
}

// Position places a snapshot of the head source in the store's write order
// (View.Position). A source pinned to a version has no position: its
// snapshots all read that version.
func (s Source) Position(view eval.DBView) (uint64, bool) {
	v, ok := view.(View)
	if s.version != 0 || !ok {
		return 0, false
	}
	return v.Position()
}

// Changes lists the writes to rel between two positions (Backend.Changes);
// a pinned source answers unknown.
func (s Source) Changes(rel string, from, to uint64, fn func(deleted bool, t storage.Tuple) bool) bool {
	return s.version == 0 && s.b.Changes(rel, from, to, fn)
}
