package core

import (
	"context"
	"fmt"

	"citare/internal/cq"
	"citare/internal/eval"
	"citare/internal/obs"
	"citare/internal/provenance"
	"citare/internal/rewrite"
	"citare/internal/storage"
)

// The gather stage of the citation pipeline (Engine.cite): every certified
// rewriting is evaluated, unfolded, straight off the push enumeration of its
// expansion (eval.Plan.Each) — slot frames in, no Binding maps, no Match
// plumbing — and its Σ-over-bindings polynomials (Definition 3.2) land on
// the per-tuple citations the output evaluation laid out. A frame's view
// λ-parameter values probe a per-evaluation monomial memo, so tokens are
// encoded and a monomial built and keyed once per distinct parameter tuple,
// not once per frame. The stage has finished before the first citation is
// combined, in Cite and CiteEach alike: a request holds its whole answer's
// polynomials until then, and they are frozen from then on (provenance).

// gatherStage is the pipeline's gather stage, under the stage's span: every
// rewriting is evaluated and its polynomials merged into perKey. It
// returns the rewritings the citation was assembled from — all of them: a
// rewriting whose evaluation cannot reach a shard fails the request.
func (e *Engine) gatherStage(ctx context.Context, ob *obsCtx, st *engineState, us []*unfolded, perKey map[string]*TupleCitation) ([]*rewrite.Rewriting, error) {
	opts := eval.Options{Parallel: eval.Auto}
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
		err := e.gatherRewriting(rctx, st, opts, u, perKey)
		ob.tr.End(rsp)
		if err != nil {
			return nil, err
		}
		used = append(used, u.r)
	}
	return used, nil
}

// gatherRewriting evaluates one rewriting, unfolded, by enumerating its
// expansion on the epoch's snapshot and merges its Σ-over-bindings
// polynomials (Definition 3.2) into the matching per-key citations. Head
// values and view λ-parameters are read off the frame slots of the
// rewriting's own variables, resolved once up front, so each binding costs
// slot reads rather than a Binding map fill; where the expansion can repeat
// a binding (u.dedupe), frames equal on those variables count once. The
// enumeration's callback is serialised and the producers wait on it, so it
// only does the per-frame monomial work. Nothing reaches perKey before the
// enumeration has finished, so a failed evaluation leaves no partial
// polynomial behind.
func (e *Engine) gatherRewriting(ctx context.Context, st *engineState, opts eval.Options, u *unfolded, perKey map[string]*TupleCitation) error {
	r := u.r
	pl, err := st.snap.plan(ctx, u.exp)
	if err != nil {
		return err
	}

	headSrc := make([]eval.Src, len(r.Head))
	for i, t := range r.Head {
		if headSrc[i], err = pl.TermSrc(t); err != nil {
			return err
		}
	}
	paramSrc := make([][]eval.Src, len(u.views))
	for ai, info := range u.views {
		paramSrc[ai] = make([]eval.Src, len(info.paramPos))
		for pi, hp := range info.paramPos {
			if paramSrc[ai][pi], err = pl.TermSrc(r.ViewAtoms[ai].Args[hp]); err != nil {
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
	var ownSrc []eval.Src
	var seen map[string]struct{}
	if u.dedupe {
		ownSrc = make([]eval.Src, len(u.vars))
		for i, v := range u.vars {
			if ownSrc[i], err = pl.TermSrc(cq.Var(v)); err != nil {
				return err
			}
		}
		seen = make(map[string]struct{})
	}

	polys := make(map[string]provenance.Poly)
	// The monomial memo: frames that agree on the view atoms' λ-parameter
	// values — every frame of a point query about one key — share a monomial.
	monos := make(map[string]provenance.Monomial)
	var keyBuf, monoBuf []byte
	toks := make([]provenance.Token, 0, len(u.views)+len(baseToks))
	params := make([]string, 0, 4)
	deduped := int64(0)
	err = pl.Each(ctx, opts, func(f []string, _ []eval.Match) error {
		if u.dedupe {
			keyBuf = keyBuf[:0]
			for _, s := range ownSrc {
				keyBuf = storage.AppendKeyPart(keyBuf, s.Value(f))
			}
			if _, dup := seen[string(keyBuf)]; dup { // no-alloc map probe
				deduped++
				return nil
			}
			seen[string(keyBuf)] = struct{}{}
		}
		monoBuf = monoBuf[:0]
		for _, srcs := range paramSrc {
			for _, s := range srcs {
				monoBuf = storage.AppendKeyPart(monoBuf, s.Value(f))
			}
		}
		m, ok := monos[string(monoBuf)] // no-alloc map probe
		if !ok {
			// One view token per view atom (parameter values read off the
			// frame), plus the C_R tokens.
			toks = toks[:0]
			for ai, info := range u.views {
				params = params[:0]
				for _, s := range paramSrc[ai] {
					params = append(params, s.Value(f))
				}
				toks = append(toks, NewViewToken(info.view.Name(), params...).Encode())
			}
			m = provenance.NewMonomial(append(toks, baseToks...)...)
			monos[string(monoBuf)] = m
		}
		// Head-tuple key, probed without allocating on repeats.
		keyBuf = keyBuf[:0]
		for _, s := range headSrc {
			keyBuf = storage.AppendKeyPart(keyBuf, s.Value(f))
		}
		p, ok := polys[string(keyBuf)] // no-alloc map probe
		if !ok {
			k := string(keyBuf)
			if perKey[k] == nil {
				// A certified rewriting cannot produce extra tuples; guard
				// anyway to surface bugs instead of silently diverging.
				return fmt.Errorf("core: rewriting %s produced tuple outside the query result", r)
			}
			p = provenance.NewPoly()
			polys[k] = p
		}
		p.Add(m, 1) // mutates the polynomial shared with the map entry
		return nil
	})
	if err != nil {
		return err
	}
	if tr, sp := obs.FromContext(ctx); tr != nil {
		tr.SetInt(sp, "deduped", deduped)
	}
	// +-idempotence and normal form hand a polynomial that is its own image back.
	for k, p := range polys {
		if e.policy.IdempotentPlus {
			p = p.Idempotent()
		}
		tc := perKey[k]
		tc.PerRewriting = append(tc.PerRewriting, RewritingCitation{Rewriting: r, Poly: e.policy.Orders.NormalForm(p)})
	}
	return nil
}
