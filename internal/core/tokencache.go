package core

import (
	"context"

	"citare/internal/cache"
	"citare/internal/cq"
	"citare/internal/format"
	"citare/internal/obs"
	"citare/internal/provenance"
	"citare/internal/storage"
)

// TokenCacheStats are the rendered-token cache's counters over the engine's
// lifetime. Hits counts every token served without rendering it from
// scratch — brought forward ones included — and Misses every full render.
type TokenCacheStats struct {
	cache.Stats
	// Revalidated counts tokens brought forward from an older snapshot of a
	// ChangeSource instead of rendered again; DeltaApplied counts those of
	// them whose rows the delta rule extended, which re-rendered their record
	// from the merged rows.
	Revalidated  uint64
	DeltaApplied uint64
}

// TokenCacheStats reports the rendered-token cache counters.
func (e *Engine) TokenCacheStats() TokenCacheStats {
	// Read the engine's counters first: a brought-forward token was counted
	// a cache miss before it was counted here, so Misses stays ≥ Revalidated.
	st := TokenCacheStats{Revalidated: e.revalidated.Load(), DeltaApplied: e.deltaApplied.Load()}
	st.Stats = e.tokenCache.Stats()
	st.Hits += st.Revalidated
	st.Misses -= st.Revalidated
	return st
}

// tokenEntry is a token's cached citation record with what it was rendered
// from and the snapshot it is valid at: the epoch, and over a ChangeSource
// the snapshot's position, from which a later snapshot can bring it forward.
// An entry is immutable once cached.
type tokenEntry struct {
	obj *format.Object
	// rows are the citation query's rows obj was rendered from, kept over a
	// ChangeSource once the token has changed — a token that never does
	// keeps none, and a server that never commits keeps no rows at all. nil
	// too for a record not rendered from rows (a marker or an error record).
	rows *format.PackedRows
	// fixed marks a record that reads no data — a C_R marker, a malformed
	// token, an unknown view — and is valid at every snapshot.
	fixed  bool
	epoch  uint64
	pos    uint64
	logged bool
}

// validAt reports whether the entry holds the token's record at st's snapshot.
func (t *tokenEntry) validAt(st *engineState) bool {
	if t.fixed {
		return true
	}
	if st.logged {
		return t.logged && t.pos == st.pos
	}
	return !t.logged && t.epoch == st.epoch
}

// newerThan reports whether t is valid at a later snapshot than u: a render
// at an older snapshot never replaces a newer entry.
func (t *tokenEntry) newerThan(u *tokenEntry) bool {
	if t.logged && u.logged {
		return t.pos > u.pos
	}
	return t.epoch > u.epoch
}

// at stamps the entry with st's snapshot.
func (t *tokenEntry) at(st *engineState) *tokenEntry {
	t.epoch, t.pos, t.logged = st.epoch, st.pos, st.logged
	return t
}

// renderTokenCached renders a token through the token cache. An entry serves
// only the snapshot it is valid at, so a Cite racing a Reset never takes a
// record from another snapshot. An entry of an older snapshot of a
// ChangeSource is brought forward (bringForward); any other miss renders the
// token afresh. Concurrent misses at one snapshot share one render.
//
// ctx gates entry per token and flows into the citation-query evaluation,
// so a canceled request aborts its own rendering mid-token. Per-request
// failures — cancellation, attempt deadlines, unreachable shards — are
// returned to the caller and never cached: the singleflight layer below
// retries waiters of a failed flight instead of handing them the leader's
// error, so one doomed request cannot poison the rendering its concurrent
// waiters share. Deterministic rendering failures still cache as embedded
// error records.
func (e *Engine) renderTokenCached(ctx context.Context, st *engineState, pt provenance.Token) (*format.Object, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	forward, added := false, 0
	ent, hit, err := e.tokenCache.GetOrRefresh(string(pt), st.tokenPrefix+string(pt),
		func(t *tokenEntry) bool { return t.validAt(st) },
		func(stale *tokenEntry, _ bool) (*tokenEntry, error) {
			if stale != nil {
				next, n, ok, err := e.bringForward(ctx, st, pt, stale)
				if err != nil || ok {
					forward, added = ok, n
					return next, err
				}
			}
			return e.renderToken(ctx, st, pt, stale != nil)
		},
		(*tokenEntry).newerThan)
	if err != nil {
		return nil, err
	}
	if forward {
		e.revalidated.Add(1)
		if added > 0 {
			e.deltaApplied.Add(1)
		}
	}
	if tr, sp := obs.FromContext(ctx); tr != nil {
		if hit || forward {
			tr.AddInt(sp, "token_cache_hits", 1)
		} else {
			tr.AddInt(sp, "token_cache_misses", 1)
		}
		if forward {
			tr.AddInt(sp, "token_cache_revalidated", 1)
			tr.AddInt(sp, "token_delta_rows", int64(added))
		}
	}
	return ent.obj, nil
}

// bringForward takes a token's entry from an older snapshot of the engine's
// ChangeSource to st's:
//
//   - no relation C_V reads saw a write in between: the entry is kept;
//   - they saw only inserts: the delta rule's new rows (deltaRows) are merged
//     into the entry's and the record is rendered from the union — or kept,
//     when the inserts join into no row of C_V(a⃗);
//   - one saw a delete, or its changes are no longer known, or the entry
//     kept no rows to merge into: ok is false and the token must be rendered
//     afresh.
//
// added is the number of rows the delta rule contributed.
func (e *Engine) bringForward(ctx context.Context, st *engineState, pt provenance.Token, stale *tokenEntry) (next *tokenEntry, added int, ok bool, err error) {
	if !st.logged || !stale.logged || stale.pos >= st.pos {
		return nil, 0, false, nil
	}
	tok, err := DecodeToken(pt)
	if err != nil {
		return nil, 0, false, nil
	}
	v := e.byName[tok.Name]
	if v == nil {
		return nil, 0, false, nil
	}
	inst, err := v.InstantiatedCiteQ(tok.Params)
	if err != nil {
		return nil, 0, false, nil
	}
	delta, ok, err := v.deltaRows(ctx, func(rel string) *relChanges { return st.changesSince(e.changes, rel, stale.pos) }, st.snap, inst, tok.Params)
	if err != nil || !ok {
		return nil, 0, false, err
	}
	if delta == nil || delta.Len() == 0 {
		next = &tokenEntry{obj: stale.obj, rows: stale.rows}
		return next.at(st), 0, true, nil
	}
	if stale.rows == nil {
		return nil, 0, false, nil
	}
	rows := stale.rows.Merge(delta, headOrder(nil, inst.Head, cq.Rebind{}, delta))
	obj, err := v.render(rows)
	if err != nil {
		return nil, 0, false, nil
	}
	next = &tokenEntry{obj: obj, rows: rows.Pack()}
	return next.at(st), delta.Len(), true, nil
}

// changesSince reads a relation's writes between an earlier position and
// st's once per snapshot: the tokens brought forward to a snapshot mostly
// come from the same earlier one, and each would otherwise walk the store's
// log — under the lock its writer takes — for itself.
func (st *engineState) changesSince(src ChangeSource, rel string, from uint64) *relChanges {
	key := changesKey{rel, from}
	if c, ok := st.changes.Load(key); ok {
		return c.(*relChanges)
	}
	c := &relChanges{}
	c.known = src.Changes(rel, from, st.pos, func(del bool, t storage.Tuple) bool {
		if c.deleted = del; !del {
			c.inserted = append(c.inserted, t)
		}
		return !del
	})
	got, _ := st.changes.LoadOrStore(key, c)
	return got.(*relChanges)
}

// changesKey names one relation's writes since one position.
type changesKey struct {
	rel  string
	from uint64
}

// renderToken renders one token's citation record at st's snapshot; changed
// says the token had an entry that could not be brought forward, so its rows
// are worth keeping for the next commit. The returned error is per-request
// (cancellation, deadline, unavailable shards) and must not be cached; every
// deterministic failure is embedded in the record itself.
func (e *Engine) renderToken(ctx context.Context, st *engineState, pt provenance.Token, changed bool) (*tokenEntry, error) {
	tok, err := DecodeToken(pt)
	if err != nil {
		return &tokenEntry{obj: format.NewObject().Set("InvalidToken", format.S(string(pt))), fixed: true}, nil
	}
	if tok.Kind == RelToken {
		return &tokenEntry{obj: format.NewObject().Set("UncitedRelation", format.S(tok.Name)), fixed: true}, nil
	}
	v := e.byName[tok.Name]
	if v == nil {
		return &tokenEntry{obj: format.NewObject().Set("UnknownView", format.S(tok.Name)), fixed: true}, nil
	}
	obj, rows, err := v.renderTokenCtx(ctx, st.snap, tok)
	if err != nil {
		if transientRenderErr(err) {
			return nil, err
		}
		obj, rows = format.NewObject().
			Set("View", format.S(tok.Name)).
			Set("Error", format.S(err.Error())), nil
	}
	next := &tokenEntry{obj: obj}
	if changed && st.logged && rows != nil { // else no later snapshot can bring the entry forward
		next.rows = rows.Pack()
	}
	return next.at(st), nil
}
