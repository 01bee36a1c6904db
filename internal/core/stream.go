package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"time"

	"citare/internal/cq"
	"citare/internal/eval"
	"citare/internal/obs"
	"citare/internal/provenance"
	"citare/internal/rewrite"
	"citare/internal/storage"
)

// Streaming citation pipeline.
//
// citeStream is CiteEach's engine: the materialized cite pipeline recomposed
// from pull iterators, so a very large result never sits in memory as a
// gathered Result plus a full per-tuple citation list at once.
//
//   - Output evaluation streams distinct tuples off eval's TupleIterator
//     (bounded channel, per-tuple backpressure, no eval.Result, no
//     result-side dedup map) and gathers only the (key, tuple) pairs the
//     deterministic order requires.
//   - Rewriting gather consumes the FrameIterator of each rewriting's
//     expansion directly on slot frames — no Binding map fills, no Match
//     plumbing — accumulating per-tuple polynomials exactly as the
//     materialized path does (it is the same gatherStage).
//   - Combine + render run lazily, one tuple at a time, immediately before
//     that tuple's delivery: the first citation reaches the caller before
//     any later tuple's citation has been rendered, and each delivered
//     entry is released before the next renders.
//
// Output is property-tested byte-identical — content and order — to the
// materialized pipeline across all execution strategies.

// citeStream is the pull-iterator citation pipeline behind CiteEach. Its
// stages mirror cite() exactly; every divergence in combining order would
// break the byte-parity contract, so the two share planStage, gatherStage,
// normalizePolys and combineTuple.
func (e *Engine) citeStream(ctx context.Context, q *cq.Query, o CiteOptions, each func(*TupleCitation) error) (res *Result, err error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	ob, ctx := e.obsStart(ctx, "stream")
	delivered := 0
	if ob.enabled() {
		defer func() {
			rws := 0
			if res != nil {
				rws = len(res.Rewritings)
			}
			ob.finish(delivered, rws, err)
		}()
	}

	p, us, err := e.planStage(&ob, q, nil, o)
	if err != nil {
		return nil, err
	}
	if !p.Satisfiable() {
		return e.citeUnsat(p.norm)
	}
	min := p.min
	res = &Result{Query: min, Columns: HeadColumns(min)}

	st := e.curState()
	resil := e.resilienceFor(o)
	outOpts := e.requestOpts(o)
	outOpts.MaxTuples = o.MaxTuples
	outOpts.Resilience = resil

	ev := ob.begin(obs.StageEval)
	keys, perKey, err := e.streamOutput(ob.ctxFor(ctx, ev), st, min, outOpts)
	ob.end(ev)
	if err != nil {
		return nil, err
	}
	ob.tr.SetInt(ev.id, "tuples", int64(len(keys)))

	if res.Rewritings, err = e.gatherStage(ctx, &ob, st, o, resil, us, perKey); err != nil {
		return nil, err
	}

	// Deliver in the deterministic key order, releasing each entry before
	// its combine+render so the stream holds one rendered citation at a
	// time. Rendering cancels per tuple and, inside a tuple, per token.
	// Render time is accumulated around combineTuple only — the consumer's
	// callback (and its backpressure) must not count as render cost — and
	// recorded as one completed span at the end of the stream.
	var renderDur time.Duration
	ro := renderOptsFor(resil)
	memo := newRenderMemo()
	for _, k := range keys {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		tc := perKey[k]
		delete(perKey, k)
		var t0 time.Time
		if ob.enabled() {
			t0 = time.Now()
		}
		sc, err := e.combineTuple(ctx, st, ro, memo, tc)
		if err != nil {
			return nil, err
		}
		tc.Encoded = sc.encode()
		if ob.enabled() {
			renderDur += time.Since(t0)
		}
		delivered++
		if err := each(tc); err != nil {
			return nil, err
		}
	}
	ob.record(obs.StageRender, renderDur)
	if resil != nil {
		res.Coverage = resil.Coverage
	}
	return res, nil
}

// streamOutput streams the query's distinct output tuples and returns their
// sorted keys plus the per-key citation skeletons. Only keys and tuples are
// retained — no eval.Result, no dedup map (the iterator dedups on the
// producer side).
func (e *Engine) streamOutput(ctx context.Context, st *engineState, q *cq.Query, opts eval.Options) ([]string, map[string]*TupleCitation, error) {
	it, err := st.snap.tuples(ctx, q, opts)
	if err != nil {
		return nil, nil, err
	}
	defer it.Close()
	var keys []string
	var tuples []storage.Tuple
	for it.Next() {
		keys = append(keys, it.Key())
		tuples = append(tuples, it.Tuple())
	}
	if err := it.Err(); err != nil {
		return nil, nil, err
	}
	eval.SortTuplesByKey(keys, tuples)
	perKey := make(map[string]*TupleCitation, len(keys))
	for i, k := range keys {
		perKey[k] = &TupleCitation{Tuple: tuples[i]}
	}
	return keys, perKey, nil
}

// frameSrc reads one value off a slot frame: a slot index, or a constant
// when slot < 0. The core-side twin of eval's value sources, resolved once
// per rewriting against Plan.Vars.
type frameSrc struct {
	slot  int
	konst string
}

func (s frameSrc) value(frame []string) string {
	if s.slot < 0 {
		return s.konst
	}
	return frame[s.slot]
}

// gatherStage is the gather stage of both pipelines, under the stage's span:
// every rewriting is evaluated and its polynomials merged into perKey. It
// returns the rewritings the citation was assembled from — all of them,
// unless the request accepts partial coverage: a rewriting is all-or-nothing,
// so its evaluation must reach every shard its lookups touch whatever the
// output policy allows, and one that cannot is left out, with its views
// named in the request's coverage report, instead of failing the request.
func (e *Engine) gatherStage(ctx context.Context, ob *obsCtx, st *engineState, o CiteOptions, resil *eval.Resilience, us []*unfolded, perKey map[string]*TupleCitation) ([]*rewrite.Rewriting, error) {
	opts := e.requestOpts(o)
	opts.Resilience = fullCoverage(resil)
	allowSkip := resil != nil && resil.MinShardCoverage > 0
	// A degraded output evaluation lacks the skipped shards' tuples, which a
	// rewriting whose own lookups prune away from those shards still
	// produces: expected strays, not invariant violations.
	degraded := resil != nil && resil.Coverage.Partial()

	gs := ob.begin(obs.StageGather)
	defer ob.end(gs)
	used := make([]*rewrite.Rewriting, 0, len(us))
	for _, u := range us {
		rctx := ctx
		rsp := obs.NoSpan
		if ob.tr != nil {
			rsp = ob.tr.Start(gs.id, "rewriting")
			ob.tr.SetStr(rsp, "rewriting", u.r.String())
			ob.tr.SetInt(rsp, "atoms", int64(len(u.exp.Atoms)))
			rctx = obs.NewContext(ctx, ob.tr, rsp)
		}
		err := e.gatherRewriting(rctx, st, opts, u, perKey, degraded)
		ob.tr.End(rsp)
		switch {
		case err == nil:
			used = append(used, u.r)
		case allowSkip && errors.Is(err, eval.ErrShardUnavailable):
			cov := resil.Coverage
			for _, info := range u.views {
				if !slices.Contains(cov.SkippedViews, info.view.Name()) {
					cov.SkippedViews = append(cov.SkippedViews, info.view.Name())
				}
			}
		default:
			return nil, err
		}
	}
	return used, nil
}

// appendKeyPart appends v in the collision-free length-prefixed encoding of
// storage.Tuple.Key.
func appendKeyPart(buf []byte, v string) []byte {
	buf = strconv.AppendInt(buf, int64(len(v)), 10)
	buf = append(buf, ':')
	return append(buf, v...)
}

// gatherRewriting evaluates one rewriting, unfolded, through the frame
// iterator of its expansion on the epoch's snapshot and merges its
// Σ-over-bindings polynomials (Definition 3.2) into the matching per-key
// citations. Head values and view λ-parameters are read off the frame slots
// of the rewriting's own variables, resolved once up front, so each binding
// costs slot reads rather than a Binding map fill; where the expansion can
// repeat a binding (u.dedupe), frames equal on those variables count once.
// Nothing reaches perKey before the enumeration has finished, so a failed
// evaluation leaves no partial polynomial behind. degraded marks a
// partial-coverage request: tuples outside the (partial) output are then
// expected strays, not invariant violations.
func (e *Engine) gatherRewriting(ctx context.Context, st *engineState, opts eval.Options, u *unfolded, perKey map[string]*TupleCitation, degraded bool) error {
	r := u.r
	it, pl, err := st.snap.frames(ctx, u.exp, opts)
	if err != nil {
		return err
	}
	defer it.Close()

	vars := pl.Vars()
	slotOf := make(map[string]int, len(vars))
	for i, v := range vars {
		slotOf[v] = i
	}
	src := func(t cq.Term) (frameSrc, error) {
		if t.IsConst {
			return frameSrc{slot: -1, konst: t.Value}, nil
		}
		s, ok := slotOf[t.Name]
		if !ok {
			return frameSrc{}, fmt.Errorf("core: rewriting variable %s unbound in plan", t.Name)
		}
		return frameSrc{slot: s}, nil
	}
	headSrc := make([]frameSrc, len(r.Head))
	for i, t := range r.Head {
		if headSrc[i], err = src(t); err != nil {
			return err
		}
	}
	paramSrc := make([][]frameSrc, len(u.views))
	for ai, info := range u.views {
		paramSrc[ai] = make([]frameSrc, len(info.paramPos))
		for pi, hp := range info.paramPos {
			if paramSrc[ai][pi], err = src(r.ViewAtoms[ai].Args[hp]); err != nil {
				return err
			}
		}
	}
	// Base-atom C_R tokens are binding-independent: encode them once.
	var baseToks []provenance.Token
	if e.policy.IncludeBaseTokens {
		for _, a := range r.BaseAtoms {
			baseToks = append(baseToks, NewRelToken(a.Pred).Encode())
		}
	}
	var ownSrc []frameSrc
	var seen map[string]struct{}
	if u.dedupe {
		ownSrc = make([]frameSrc, len(u.vars))
		for i, v := range u.vars {
			if ownSrc[i], err = src(cq.Var(v)); err != nil {
				return err
			}
		}
		seen = make(map[string]struct{})
	}

	polys := make(map[string]provenance.Poly)
	var keyBuf []byte
	toks := make([]provenance.Token, 0, len(u.views)+len(baseToks))
	params := make([]string, 0, 4)
	deduped := int64(0)
	for it.Next() {
		f := it.Frame()
		if u.dedupe {
			keyBuf = keyBuf[:0]
			for _, s := range ownSrc {
				keyBuf = appendKeyPart(keyBuf, s.value(f))
			}
			if _, dup := seen[string(keyBuf)]; dup { // no-alloc map probe
				deduped++
				continue
			}
			seen[string(keyBuf)] = struct{}{}
		}
		// Head-tuple key, probed without allocating on repeats.
		keyBuf = keyBuf[:0]
		for _, s := range headSrc {
			keyBuf = appendKeyPart(keyBuf, s.value(f))
		}
		// Monomial: one view token per view atom (parameter values read off
		// the frame), plus the C_R tokens.
		toks = toks[:0]
		for ai, info := range u.views {
			params = params[:0]
			for _, s := range paramSrc[ai] {
				params = append(params, s.value(f))
			}
			toks = append(toks, NewViewToken(info.view.Name(), params...).Encode())
		}
		toks = append(toks, baseToks...)
		m := provenance.NewMonomial(toks...)
		p, ok := polys[string(keyBuf)] // no-alloc map probe
		if !ok {
			k := string(keyBuf)
			if perKey[k] == nil {
				if degraded {
					continue
				}
				// A certified rewriting cannot produce extra tuples; guard
				// anyway to surface bugs instead of silently diverging.
				return fmt.Errorf("core: rewriting %s produced tuple outside the query result", r)
			}
			p = provenance.NewPoly()
			polys[k] = p
		}
		p.Add(m, 1) // mutates the polynomial shared with the map entry
	}
	if err := it.Err(); err != nil {
		return err
	}
	if tr, sp := obs.FromContext(ctx); tr != nil {
		tr.SetInt(sp, "deduped", deduped)
	}
	e.normalizePolys(polys)
	for k, p := range polys {
		tc := perKey[k]
		tc.PerRewriting = append(tc.PerRewriting, RewritingCitation{Rewriting: r, Poly: p})
	}
	return nil
}
