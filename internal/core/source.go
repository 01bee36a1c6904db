package core

import (
	"fmt"
	"strings"

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

// NewSourceEngine assembles an engine over a snapshot source. Unlike the
// in-memory constructors, the execution database holds only the view
// relations: base-relation reads resolve through an overlay straight to the
// source snapshot, so building an epoch costs O(views), not O(data) — the
// point of a persistent backend is that epoch construction must not re-read
// the whole store.
func NewSourceEngine(src SnapshotSource, views []*CitationView, policy Policy) (*Engine, error) {
	return newEngine(nil, nil, src, views, policy)
}

// Source returns the engine's snapshot source (nil unless built with
// NewSourceEngine).
func (e *Engine) Source() SnapshotSource { return e.src }

// overlayView routes view relations to the engine-local execution database
// and everything else to the source snapshot.
type overlayView struct {
	base eval.DBView // source snapshot: base relations
	over eval.DBView // execution database: materialized view relations
}

func (o overlayView) Relation(name string) eval.RelView {
	if strings.HasPrefix(name, viewRelPrefix) {
		return o.over.Relation(name)
	}
	return o.base.Relation(name)
}

// buildSourceState is buildState's SnapshotSource branch.
func (e *Engine) buildSourceState(epoch uint64) (*engineState, error) {
	base, err := e.src.Snapshot()
	if err != nil {
		return nil, err
	}
	s := storage.NewSchema()
	for _, v := range e.views {
		cols := make([]storage.Column, len(v.Def.Head))
		for i := range cols {
			cols[i] = storage.Column{Name: fmt.Sprintf("h%d", i)}
		}
		if err := s.AddRelation(&storage.RelSchema{Name: viewRelPrefix + v.Name(), Cols: cols}); err != nil {
			return nil, err
		}
	}
	exec := storage.NewDB(s)
	st := newEngineState(epoch)
	st.snap = evalTarget{view: base}.cached(e)
	st.exec = evalTarget{view: overlayView{base: base, over: eval.DBViewOf(exec)}}.cached(e)
	st.execIns = exec
	return st, nil
}
