package core

import (
	"context"
	"fmt"
	"sort"

	"citare/internal/cq"
	"citare/internal/eval"
	"citare/internal/obs"
	"citare/internal/provenance"
	"citare/internal/storage"
)

// The gather stage of the citation pipeline (Engine.cite). Definition 3.2
// sums a tuple's citation over the bindings of every certified rewriting,
// and each rewriting's expansion is equivalent to the query. Where the
// expansion is the minimized query renamed (unfolded.rename) — the common
// case — its frames are the output evaluation's frames, so the rewriting's
// bindings are read off them as the output query is enumerated: one
// enumeration (eval.Plan.EvalEach) serves the output tuples and every such
// rewriting. Any other rewriting enumerates its expansion on its own
// (eval.Plan.Each) in the gather stage. Either way each frame goes through
// the one per-frame consumer, gather.feed: slot reads, no name-keyed maps.
// A frame's view λ-parameter values probe a per-rewriting monomial memo, so
// tokens are encoded and a monomial built and keyed once per distinct
// parameter tuple, not once per frame. The polynomials are folded onto the
// per-tuple citations before the first citation is combined, in
// CitePrepared and CiteEachPrepared alike: a request holds its whole
// answer's polynomials until then, and they are frozen from then on
// (provenance).

// gather is one citation's gather state: a sink per rewriting, in rewriting
// order, and their polynomials, one row of len(sinks) per output tuple in
// the order the output evaluation first saw the tuples.
type gather struct {
	sinks  []*rewritingSink
	polys  []provenance.Poly
	order  []int // sorted output tuple → its row
	frames int64 // frames of the output evaluation
	// Scratch shared by every sink: the consumer is never invoked
	// concurrently.
	keyBuf, monoBuf []byte
	toks            []provenance.Token
	vals            []string
}

// rewritingSink is one rewriting's terms resolved on the plan whose frames
// it reads, with its per-evaluation memo.
type rewritingSink struct {
	u       *unfolded
	params  []eval.Src // the view atoms' λ-parameters, atom after atom
	own     []eval.Src // r's own variables, when frames can repeat a binding (u.dedupe)
	seen    map[string]struct{}
	deduped int64
	monos   firstMemo[provenance.Monomial] // keyed by λ-parameter values
}

// newSink resolves u's terms, their constants renamed by rb, on pl, whose
// frames are those of u's expansion under the renaming ren (nil: pl is the
// expansion's own plan).
func newSink(u *unfolded, pl *eval.Plan, ren cq.Subst, rb cq.Rebind) (s *rewritingSink, err error) {
	s = &rewritingSink{u: u}
	if s.params, err = termSrcs(pl, ren, rb, u.params); err != nil {
		return nil, err
	}
	if u.dedupe {
		if s.own, err = termSrcs(pl, ren, rb, u.own); err != nil {
			return nil, err
		}
		s.seen = make(map[string]struct{})
	}
	return s, nil
}

// termSrcs resolves terms — their variables renamed by ren, their
// constants by rb — to where pl's frames hold them.
func termSrcs(pl *eval.Plan, ren cq.Subst, rb cq.Rebind, ts []cq.Term) (srcs []eval.Src, err error) {
	srcs = make([]eval.Src, len(ts))
	for i, t := range ts {
		if srcs[i], err = pl.TermSrc(rb.Term(ren.Apply(t))); err != nil {
			return nil, err
		}
	}
	return srcs, nil
}

// appendKey appends the frame's values at srcs to buf as one key.
func appendKey(buf []byte, srcs []eval.Src, f []string) []byte {
	for _, src := range srcs {
		buf = storage.AppendKeyPart(buf, src.Value(f))
	}
	return buf
}

// feed is the per-frame consumer: it adds the monomial of the binding of
// rewriting i that the frame derives into the rewriting's polynomial on row
// row, unless an earlier frame derived that binding already (only where the
// expansion can repeat one).
func (g *gather) feed(i, row int, f []string) {
	s := g.sinks[i]
	if s.seen != nil {
		g.keyBuf = appendKey(g.keyBuf[:0], s.own, f)
		if _, dup := s.seen[string(g.keyBuf)]; dup { // no-alloc map probe
			s.deduped++
			return
		}
		s.seen[string(g.keyBuf)] = struct{}{}
	}
	// The monomial memo: frames that agree on the view atoms' λ-parameter
	// values — every frame of a point query about one key — share a monomial.
	g.monoBuf = appendKey(g.monoBuf[:0], s.params, f)
	m, ok := s.monos.get(g.monoBuf)
	if !ok {
		// One view token per view atom (parameter values read off the
		// frame), plus the C_R tokens.
		g.toks, g.vals = g.toks[:0], g.vals[:0]
		for _, src := range s.params {
			g.vals = append(g.vals, src.Value(f))
		}
		vals := g.vals
		for _, info := range s.u.views {
			n := len(info.paramPos)
			g.toks = append(g.toks, NewViewToken(info.view.Name(), vals[:n]...).Encode())
			vals = vals[n:]
		}
		m = provenance.NewMonomial(append(g.toks, s.u.baseToks...)...)
		s.monos.put(g.monoBuf, m)
	}
	p := &g.polys[row*len(g.sinks)+i]
	if *p == (provenance.Poly{}) {
		*p = provenance.NewPoly()
	}
	p.Add(m, 1)
}

// evalOutput evaluates the minimized query — the shape's plan bound to the
// prepared query's constants — for the output tuples, sorted by key, and
// reads the bindings of every rewriting whose expansion is a renaming of it
// off the same frames.
func (e *Engine) evalOutput(ctx context.Context, st *engineState, p *Prepared, us []*unfolded, opts eval.Options) (*gather, *eval.Result, error) {
	pl, err := st.snap.boundPlan(ctx, p.plan.min, p.plan.out, p.rb)
	if err != nil {
		return nil, nil, err
	}
	g := &gather{sinks: make([]*rewritingSink, len(us))}
	for i, u := range us {
		if u.rename != nil {
			if g.sinks[i], err = newSink(u, pl, u.rename, p.rb); err != nil {
				return nil, nil, err
			}
		}
	}
	out, order, err := pl.EvalEach(ctx, opts, func(f []string, row int) error {
		g.frames++
		if row*len(us) == len(g.polys) {
			g.polys = append(g.polys, make([]provenance.Poly, len(us))...)
		}
		for i, s := range g.sinks {
			if s != nil {
				g.feed(i, row, f)
			}
		}
		return nil
	})
	g.order = order
	return g, out, err
}

// gatherStage is the pipeline's gather stage, under the stage's span: every
// rewriting not read off the output evaluation is evaluated, and every
// rewriting's polynomials land on the tuples' citations. The citation is
// assembled from all of them: a rewriting whose evaluation cannot reach a
// shard fails the request. rb renames the constants of the shape's
// rewritings to the query's.
func (e *Engine) gatherStage(ctx context.Context, ob *obsCtx, st *engineState, rb cq.Rebind, us []*unfolded, g *gather, out *eval.Result, tuples []TupleCitation) error {
	gs := ob.begin(obs.StageGather)
	defer ob.end(gs)
	readOff := 0
	for i, u := range us {
		rctx, rsp := ctx, obs.NoSpan
		if ob.tr != nil {
			rsp = ob.tr.Start(gs.id, "rewriting")
			ob.tr.SetStr(rsp, "rewriting", string(u.r.AppendBound(nil, rb)))
			ob.tr.SetInt(rsp, "atoms", int64(len(u.exp.Atoms)))
			rctx = obs.NewContext(ctx, ob.tr, rsp)
		}
		if g.sinks[i] != nil {
			readOff++
			ob.tr.SetInt(rsp, "frames", g.frames)
		} else if err := e.gatherRewriting(rctx, st, g, i, u, rb, out.Keys); err != nil {
			ob.tr.End(rsp)
			return err
		}
		ob.tr.SetInt(rsp, "deduped", g.sinks[i].deduped)
		ob.tr.End(rsp)
	}
	ob.tr.SetInt(gs.id, "read_off", int64(readOff))
	ob.tr.SetInt(gs.id, "evaluated", int64(len(us)-readOff))

	// +-idempotence and normal form hand a polynomial that is its own image
	// back. One slab holds every tuple's +R operands, in rewriting order.
	rcs := make([]RewritingCitation, 0, len(us)*len(tuples))
	for t := range tuples {
		start := len(rcs)
		for i, p := range g.polys[g.order[t]*len(us):][:len(us)] {
			if p == (provenance.Poly{}) {
				continue // no binding of rewriting i derives the tuple
			}
			if e.policy.IdempotentPlus {
				p = p.Idempotent()
			}
			rcs = append(rcs, RewritingCitation{Rewriting: i, Poly: e.policy.Orders.NormalForm(p)})
		}
		tuples[t].PerRewriting = rcs[start:len(rcs):len(rcs)]
	}
	return nil
}

// gatherRewriting enumerates the expansion of rewriting i — one that is not
// a renaming of the output query — on the epoch's snapshot and adds each
// binding's monomial onto the row of the output tuple its head spells,
// found among the output's sorted keys.
func (e *Engine) gatherRewriting(ctx context.Context, st *engineState, g *gather, i int, u *unfolded, rb cq.Rebind, keys []string) error {
	pl, err := st.snap.boundPlan(ctx, u.exp, u.expShape, rb)
	if err != nil {
		return err
	}
	head, err := termSrcs(pl, nil, rb, u.r.Head)
	if err != nil {
		return err
	}
	if g.sinks[i], err = newSink(u, pl, nil, rb); err != nil {
		return err
	}
	return pl.Each(ctx, eval.Options{Parallel: eval.Auto}, func(f []string) error {
		g.keyBuf = appendKey(g.keyBuf[:0], head, f)
		t := sort.Search(len(keys), func(j int) bool { return keys[j] >= string(g.keyBuf) })
		if t == len(keys) || keys[t] != string(g.keyBuf) {
			// A certified rewriting cannot produce extra tuples; guard
			// anyway to surface bugs instead of silently diverging.
			return fmt.Errorf("core: rewriting %s produced tuple outside the query result", u.r.AppendBound(nil, rb))
		}
		g.feed(i, g.order[t], f)
		return nil
	})
}
