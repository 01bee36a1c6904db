package core

import (
	"context"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"citare/internal/cache"
	"citare/internal/cq"
	"citare/internal/eval"
	"citare/internal/format"
	"citare/internal/obs"
	"citare/internal/provenance"
	"citare/internal/rewrite"
	"citare/internal/storage"
)

// tokenCacheSize bounds the engine's rendered-token cache (sharded LRU).
const tokenCacheSize = 4096

// Engine computes citations for general queries over a database with a set
// of citation views and a policy.
//
// Citation views are never stored: a rewriting is evaluated through its
// expansion over base relations (unfolded), on the same snapshot the output
// query and the token citation queries read; where the expansion is the
// minimized query renamed, its bindings are read off the output evaluation's
// frames, so the query is enumerated once (gather.go). That holds for every
// storage mode — a plain database, a hash-partitioned one, a persistent
// backend — which differ only in how their SnapshotSource takes the
// snapshot.
//
// Concurrency model: an Engine is safe for concurrent use. At construction
// (and on every Reset) it takes an immutable storage snapshot and evaluates
// all queries against it, so concurrent writers to the live database never
// corrupt in-flight citations — they simply are not visible until Reset.
// An epoch is that snapshot, its number and its physical-plan cache, captured
// once per Cite call; nothing in it is filled in later, so concurrent
// requests share no lock beyond the caches' own. Reset costs O(relations): it
// swaps in a fresh state atomically, leaving in-flight Cite calls to finish
// consistently against the old epoch.
//
// Rendered citation tokens are cached in a sharded LRU keyed by the token —
// view and λ-values — that outlives Reset. An entry carries the snapshot it
// is valid at and serves a request only at that snapshot. Over a
// ChangeSource (the head of a persistent backend) a later snapshot brings the
// entry forward instead of rendering the token again: kept as it is when no
// relation its citation query reads moved, extended by the delta rule when
// rows were only inserted (tokencache.go). Over any other source an entry
// serves only its own epoch, and a Reset makes every token render afresh.
//
// Query compilation is cached at two levels, both keyed by query *shape* —
// the query with its constants lifted to parameters (cq.Query.Shape) — and
// both LRU. The *logical* plan of a shape — the minimized form and the
// certified rewritings under the engine's views and policy — depends only
// on the query text, so it is cached for the engine's lifetime and survives
// Reset. The *physical* plans (internal/eval slot programs, with relation
// views and join orders resolved against live cardinalities) are cached
// inside each epoch state and dropped with it on Reset. A citation whose
// shape was seen before — the same query again, or the same query about
// another key — therefore skips minimization, rewriting enumeration and
// plan compilation entirely: the compiled plans are bound to its constants.
type Engine struct {
	src    SnapshotSource // live store, re-snapshotted on Reset
	views  []*CitationView
	byName map[string]*CitationView
	policy Policy

	// tokenCache holds rendered tokens across epochs (tokencache.go);
	// changes is src as a ChangeSource, nil when it keeps no write log.
	// revalidated and deltaApplied count tokens brought forward to a newer
	// snapshot, and those of them the delta rule gave new rows.
	tokenCache   *cache.Sharded[*tokenEntry]
	changes      ChangeSource
	revalidated  atomic.Uint64
	deltaApplied atomic.Uint64

	// plans is the engine-lifetime logical-plan cache, one entry per query
	// shape; lift says which constants a shape abstracts from, and viewSet
	// is the view list as rewriting enumeration wants it, prepared once.
	plans   *cache.Sharded[*compiledQuery]
	lift    liftRules
	viewSet *rewrite.Views

	// logicalHits / logicalMisses count citations by whether their shape's
	// rewritings were already compiled: a miss is one rewriting enumeration.
	// CiteBatch's plan sharing is asserted against these counters.
	logicalHits   atomic.Uint64
	logicalMisses atomic.Uint64

	// physHits / physMisses count physical plan-cache lookups across every
	// epoch's targets (the per-epoch caches themselves die with Reset, the
	// counters survive).
	physHits   atomic.Uint64
	physMisses atomic.Uint64

	// metrics, when attached via SetMetrics, receives pipeline counters and
	// per-stage latency histograms from every cite. nil (the default)
	// disables all metric timing.
	metrics *obs.PipelineMetrics

	// shardWrap, when set via SetShardWrapper, wraps each new snapshot that
	// is an eval.Partitioned — the fault injector's seam — and resil, when
	// set via SetResilience, wraps the result in the attempt policy, whose
	// breakers every epoch shares.
	shardWrap func(eval.Partitioned) eval.Partitioned
	resil     *eval.Resilience

	epochCtr atomic.Uint64 // allocates unique epochs across concurrent Resets

	stateMu sync.RWMutex
	state   *engineState
}

// engineState is one epoch of the engine: an immutable database snapshot
// with the epoch's physical-plan cache. A Cite call captures the state once
// and uses it throughout, so a concurrent Reset can never tear a
// half-finished citation. Over a partitioned store the snapshot is
// hash-partitioned and every evaluation scatter-gathers across shards.
type engineState struct {
	epoch uint64
	// pos is the snapshot's position in the source's write order, when
	// logged: the source is a ChangeSource that could place it.
	pos    uint64
	logged bool
	// changes memoizes the source's writes since earlier positions, per
	// relation (changesSince).
	changes sync.Map
	// tokenPrefix names the data the snapshot holds — its position when
	// logged, else its epoch — as the token cache's in-flight renders spell
	// it: two requests share a render only when they read the same data.
	tokenPrefix string
	snap        evalTarget // immutable snapshot all reads evaluate against
	// part is the snapshot as a partitioned view, nil over an unpartitioned
	// store; a source hands out one kind or the other for its lifetime.
	part eval.Partitioned
}

// shards returns the number of shards evaluations scatter over (0 when the
// store is not partitioned).
func (st *engineState) shards() int {
	if st.part == nil {
		return 0
	}
	return st.part.NumShards()
}

// NewEngine assembles an engine over a snapshot source (DBSource,
// ShardSource, a backend). View names must be unique. An epoch is one
// snapshot of the source: every read — the query, its unfolded rewritings,
// the token citation queries — resolves straight to it, so building an epoch
// costs what the source's Snapshot costs and never re-reads the store. Over
// a partitioned source, evaluation fans out per shard (pruned by bound shard
// keys) and merges deterministically: output is byte-identical to an engine
// over the same data unpartitioned.
func NewEngine(src SnapshotSource, views []*CitationView, policy Policy) (*Engine, error) {
	e := &Engine{
		src:        src,
		views:      views,
		byName:     make(map[string]*CitationView, len(views)),
		policy:     policy,
		tokenCache: cache.NewSharded[*tokenEntry](8, tokenCacheSize),
		plans:      cache.NewSharded[*compiledQuery](8, logicalPlanCacheSize),
	}
	e.changes, _ = src.(ChangeSource)
	defs := make([]*cq.Query, len(views))
	for i, v := range views {
		if v == nil || v.shape == nil {
			return nil, fmt.Errorf("core: citation view not made by NewCitationView")
		}
		if _, dup := e.byName[v.Name()]; dup {
			return nil, fmt.Errorf("core: duplicate citation view %s", v.Name())
		}
		e.byName[v.Name()] = v
		defs[i] = v.Def
	}
	vs, err := rewrite.PrepareViews(defs)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	e.viewSet, e.lift = vs, newLiftRules(views)
	st, err := e.buildState(0)
	if err != nil {
		return nil, err
	}
	e.state = st
	return e, nil
}

// Views returns the engine's citation views.
func (e *Engine) Views() []*CitationView { return e.views }

// Policy returns the engine's policy.
func (e *Engine) Policy() Policy { return e.policy }

// Source returns the engine's live store, as handed to NewEngine: a caller
// that needs the database behind it asserts the adapter it built
// (DBSource, ShardSource).
func (e *Engine) Source() SnapshotSource { return e.src }

// SetMetrics attaches pipeline metrics: every subsequent cite records
// counters and per-stage latency histograms into m. Pass nil to disable.
// Call before sharing the engine across goroutines; it is not synchronized
// with in-flight Cite calls.
func (e *Engine) SetMetrics(m *obs.PipelineMetrics) { e.metrics = m }

// PhysicalPlanStats reports the physical plan-cache counters summed across
// all epochs: hits served from a per-epoch compiled-plan cache, and misses
// that ran an eval.Compile.
func (e *Engine) PhysicalPlanStats() (hits, misses uint64) {
	return e.physHits.Load(), e.physMisses.Load()
}

// curState returns the engine's current epoch state.
func (e *Engine) curState() *engineState {
	e.stateMu.RLock()
	defer e.stateMu.RUnlock()
	return e.state
}

// Reset re-snapshots the database and drops the epoch's physical-plan cache
// (call after updating the database). In-flight Cite calls finish against
// the previous snapshot. Taking a snapshot costs O(relations) and happens
// outside the state lock, so concurrent Cite calls keep serving the old
// epoch meanwhile. The token cache is left alone: an entry serves only the
// snapshot it is valid at, and the first request of the new epoch to use it
// brings it forward or renders it again.
func (e *Engine) Reset() error {
	st, err := e.buildState(e.epochCtr.Add(1))
	if err != nil {
		return err
	}
	e.stateMu.Lock()
	// Install only if newer: a slow concurrent Reset that allocated an
	// earlier epoch must not overwrite a state that already superseded it.
	if st.epoch > e.state.epoch {
		e.state = st
	}
	e.stateMu.Unlock()
	return nil
}

// buildState snapshots the live store into a new epoch. Every per-shard
// read of a partitioned snapshot goes through the optional wrapper (fault
// injection) and, over it, the attempt policy.
func (e *Engine) buildState(epoch uint64) (*engineState, error) {
	view, err := e.src.Snapshot()
	if err != nil {
		return nil, err
	}
	st := &engineState{epoch: epoch, tokenPrefix: strconv.FormatUint(epoch, 10) + "|"}
	if e.changes != nil {
		if st.pos, st.logged = e.changes.Position(view); st.logged {
			var buf [24]byte
			st.tokenPrefix = string(append(strconv.AppendUint(append(buf[:0], '@'), st.pos, 10), '|'))
		}
	}
	part, _ := view.(eval.Partitioned)
	if part != nil {
		if e.shardWrap != nil {
			part = e.shardWrap(part)
		}
		if e.resil != nil {
			part = eval.Resilient(part, e.resil)
		}
		view = part
	}
	st.snap, st.part = newEvalTarget(view, e), part
	return st, nil
}

// RewritingCitation is the citation polynomial a single rewriting assigns to
// one output tuple (Definition 3.2: the + over all bindings of that
// rewriting). Rewriting is the rewriting's index in the Result: the
// rewriting is its BoundRewritings()[Rewriting].
type RewritingCitation struct {
	Rewriting int
	Poly      provenance.Poly
}

// TupleCitation carries the citation of one output tuple: the per-rewriting
// polynomials (+R operands, Definition 3.3), the pruned/combined polynomial,
// and the rendered record.
type TupleCitation struct {
	Tuple storage.Tuple
	// PerRewriting lists the +R operands in rewriting order.
	PerRewriting []RewritingCitation
	// Kept indexes the +R-maximal operands after order pruning.
	Kept []int
	// Combined is the +R-combined, order-pruned citation polynomial.
	Combined provenance.Poly
	// Rendered is the tuple's citation record under the policy's
	// interpretations. Tuples of one request with the same citation share
	// one record (and Kept and Combined with it); all three are read-only.
	Rendered format.Value
	// Encoded carries the citation's text forms. CiteEachPrepared sets it on
	// every tuple it streams; CitePrepared leaves it nil.
	Encoded *EncodedCitation
	shared  *sharedCitation // the memo entry Kept, Combined and Rendered are from
}

// Result is the full citation outcome for a query (Definition 3.4).
type Result struct {
	// rewritings are the certified rewritings used, in the query's order
	// (may be empty when the views cannot express the query; the citation
	// then degrades to the policy's neutral citations). They are the
	// rewritings of the query's shape, compiled once for every query of it,
	// and spell that query's constants, not this one's: they are read only
	// through prep.rb's renaming (BoundRewritings, AppendRewriting).
	rewritings []*rewrite.Rewriting
	// Columns labels the output columns.
	Columns []string
	// Tuples holds per-tuple citations in deterministic order.
	Tuples []TupleCitation
	// Citation is the aggregated citation for the entire result set,
	// including the policy's neutral citations.
	Citation format.Value

	prep *Prepared // what Query reads, and whose rb renames rewritings
}

// NewResult returns a Result whose rewritings spell its query's own
// constants, for a citation assembled outside the engine; the caller fills
// in the rest.
func NewResult(rewritings []*rewrite.Rewriting) *Result {
	return &Result{rewritings: rewritings}
}

// rebind is the renaming of rewritings' constants to the query's.
func (r *Result) rebind() cq.Rebind {
	if r.prep == nil {
		return cq.Rebind{}
	}
	return r.prep.rb
}

// Query returns the normalized, minimized query the citation refers to (the
// normalized query, when it is unsatisfiable); nil on a Result the engine
// did not make.
func (r *Result) Query() *cq.Query {
	switch {
	case r.prep == nil:
		return nil
	case r.prep.plan == nil:
		return r.prep.norm
	}
	return r.prep.Min()
}

// NumRewritings returns the number of certified rewritings used.
func (r *Result) NumRewritings() int { return len(r.rewritings) }

// BoundRewritings returns the rewritings used, in the query's order, as
// rewritings of the query: the shape's with their constants renamed to the
// query's, built on each call. The caller owns the slice.
func (r *Result) BoundRewritings() []*rewrite.Rewriting {
	rb := r.rebind()
	if rb.Identity() {
		return slices.Clone(r.rewritings)
	}
	out := make([]*rewrite.Rewriting, len(r.rewritings))
	for i, rw := range r.rewritings {
		out[i] = rw.Rebind(rb, r.Query())
	}
	return out
}

// AppendRewriting appends the spelling of rewriting i of the query — what
// BoundRewritings()[i].String() gives — to dst.
func (r *Result) AppendRewriting(dst []byte, i int) []byte {
	return r.rewritings[i].AppendBound(dst, r.rebind())
}

// CitePrepared computes the citation of a query resolved by Prepare:
// rewritings are enumerated (§2.2), per-binding monomials are combined with ·
// (Definition 3.1), per rewriting with + (Definition 3.2), across rewritings
// with +R (Definition 3.3, order-pruned per §3.4), and across tuples with Agg
// (Definition 3.4). Cancellation is honored at every stage — output
// evaluation, rewriting evaluation and per-tuple citation assembly — so a
// canceled request returns the context's error promptly instead of
// finishing the citation nobody is waiting for. maxTuples bounds the number of output tuples the query may produce; past
// the bound the evaluation aborts with eval.ErrTupleLimit instead of burning
// through the rest of the enumeration. 0 means unbounded.
func (e *Engine) CitePrepared(ctx context.Context, p *Prepared, maxTuples int) (*Result, error) {
	return e.cite(ctx, p, maxTuples, nil)
}

// CiteEachPrepared is CitePrepared streaming: each output tuple's citation
// is handed to fn (in the same deterministic tuple order CitePrepared
// produces, byte-identical content) instead of being kept on the Result, and
// no aggregated result-set citation is rendered. The returned Result carries
// the query, columns and rewritings only — Tuples stays nil and Citation
// zero. The *TupleCitation passed to fn is only valid during the call; fn
// returning an error aborts the stream.
//
// It is the same pipeline as CitePrepared with fn as its sink: the output
// tuples are gathered and sorted and every rewriting's polynomials gathered
// before the first delivery, then each citation is combined, rendered and
// encoded lazily, right before its delivery, and released right after — the
// first tuple reaches fn before any later tuple's citation has been
// rendered, and the rendered records are never all in memory at once. The
// answer's tuples and polynomials are, so memory stays O(answer) until
// [evaluate-once].
func (e *Engine) CiteEachPrepared(ctx context.Context, p *Prepared, maxTuples int, fn func(*TupleCitation) error) (*Result, error) {
	if fn == nil {
		return nil, fmt.Errorf("core: CiteEachPrepared requires a callback")
	}
	return e.cite(ctx, p, maxTuples, fn)
}

// planStage is the pipeline's rewrite stage, under the stage's span: take
// the prepared query's unfolded rewritings under its own constants.
func (e *Engine) planStage(ob *obsCtx, p *Prepared) ([]*unfolded, []*rewrite.Rewriting, error) {
	rw := ob.begin(obs.StageRewrite)
	var us []*unfolded
	var rws []*rewrite.Rewriting
	var err error
	hit := false
	if p.Satisfiable() {
		us, rws, hit, err = e.rewritingsFor(p)
	}
	ob.end(rw)
	if ob.tr != nil {
		cached := int64(0)
		if hit {
			cached = 1
		}
		ob.tr.SetInt(rw.id, "cached", cached)
		ob.tr.SetInt(rw.id, "rewritings", int64(len(us)))
	}
	return us, rws, err
}

// cite is the citation pipeline, the one implementation of Definitions
// 3.1–3.4 behind every entry point: rewritings of the prepared plan → output
// evaluation → rewriting gather → per-tuple combine and render → delivery.
// With a sink (CiteEachPrepared) each tuple's citation is encoded
// and handed over as soon as it is rendered, then released; without one the
// tuples stay on the Result and Agg is applied across them.
func (e *Engine) cite(ctx context.Context, p *Prepared, maxTuples int, each func(*TupleCitation) error) (res *Result, err error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	mode := "cite"
	if each != nil {
		mode = "stream"
	}
	ob, ctx := e.obsStart(ctx, mode)
	cited := 0 // tuples delivered to the sink, or kept on the Result
	if ob.enabled() {
		defer func() {
			rws := 0
			if res != nil {
				rws = len(res.rewritings)
			}
			ob.finish(cited, rws, err)
		}()
	}

	us, rws, err := e.planStage(&ob, p)
	if err != nil {
		return nil, err
	}
	if !p.Satisfiable() {
		return e.citeUnsat(p)
	}
	res = &Result{rewritings: rws, Columns: p.Columns(), prep: p}

	// Evaluate the query itself for the output tuples (independent of any
	// rewriting, so even an un-rewritable query reports its answers), reading
	// the bindings of every rewriting whose expansion is the query renamed
	// off the same frames. The per-request tuple bound applies here: the
	// citation of a result is per-tuple, so a result too large to return is
	// aborted before any rewriting is evaluated on its own.
	st := e.curState()
	outOpts := eval.Options{Parallel: eval.Auto, MaxTuples: maxTuples}
	ev := ob.begin(obs.StageEval)
	g, out, err := e.evalOutput(ob.ctxFor(ctx, ev), st, p, us, outOpts)
	ob.end(ev)
	if err != nil {
		return nil, err
	}
	ob.tr.SetInt(ev.id, "tuples", int64(len(out.Tuples)))
	// One slab holds every tuple's citation, in the evaluation's sorted key
	// order — the deterministic citation order. The gather and combine
	// stages fill the final slots in place: no per-tuple heap skeletons, no
	// copying append at the end.
	tuples := make([]TupleCitation, len(out.Tuples))
	for i, t := range out.Tuples {
		tuples[i].Tuple = t
	}

	if err = e.gatherStage(ctx, &ob, st, p.rb, us, g, out, tuples); err != nil {
		return nil, err
	}

	// Combine, render and deliver in tuple order. Rendering cancels per
	// tuple and, inside a tuple, per token. Render time is accumulated
	// around combineTuple only — a sink's callback (and its backpressure)
	// must not count as render cost — and closes the stage's span on every
	// exit, so the trace of a stream that ends early still says what its
	// rendering cost.
	rd := ob.begin(obs.StageRender)
	var renderDur time.Duration
	defer func() { ob.endWith(rd, renderDur) }()
	rdCtx := ob.ctxFor(ctx, rd)
	var memo renderMemo
	for i := range tuples {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		tc := &tuples[i]
		var t0 time.Time
		if rd.on {
			t0 = time.Now()
		}
		sc, err := e.combineTuple(rdCtx, st, &memo, tc)
		if err == nil && each != nil {
			tc.Encoded = sc.encode()
		}
		if rd.on {
			renderDur += time.Since(t0)
		}
		if err != nil {
			return nil, err
		}
		if each != nil {
			cited++
			if err := each(tc); err != nil {
				return nil, err
			}
			*tc = TupleCitation{} // delivered: release its polynomials and record
		}
	}
	if each == nil {
		res.Tuples, cited = tuples, len(tuples)
		res.Citation = e.aggregate(tuples)
	}
	return res, nil
}

// HeadColumns labels the output columns of a query head.
func HeadColumns(q *cq.Query) []string {
	cols := make([]string, 0, len(q.Head))
	for _, t := range q.Head {
		if t.IsVar() {
			cols = append(cols, t.Name)
		} else {
			cols = append(cols, t.Value)
		}
	}
	return cols
}

// preferRewritings implements the paper's §2.3 preference model: keep only
// rewritings not dominated by another on the triple (uncovered base
// subgoals, remaining comparison predicates, number of views) — total
// rewritings beat partial ones, λ-absorbed selections beat residual
// predicates, and fewer views beat more.
func preferRewritings(rs []*rewrite.Rewriting) []*rewrite.Rewriting {
	dominates := func(a, b *rewrite.Rewriting) bool {
		if a.NumBase() > b.NumBase() || a.ResidualPredicates() > b.ResidualPredicates() || a.NumViews() > b.NumViews() {
			return false
		}
		return a.NumBase() < b.NumBase() || a.ResidualPredicates() < b.ResidualPredicates() || a.NumViews() < b.NumViews()
	}
	var out []*rewrite.Rewriting
	for i, r := range rs {
		dominated := false
		for j, s := range rs {
			if i != j && dominates(s, r) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, r)
		}
	}
	return out
}

// citeUnsat handles unsatisfiable queries: empty result under the head's
// columns, which normalization keeps, and the neutral citation.
func (e *Engine) citeUnsat(p *Prepared) (*Result, error) {
	return &Result{Columns: HeadColumns(p.norm), Citation: e.aggregate(nil), prep: p}, nil
}

// combineTuple applies +R across the tuple's rewriting polynomials: order
// pruning keeps the maximal operands (§3.4), which are then summed into the
// combined polynomial and rendered under the policy's interpretations. All
// of it is a function of the operand polynomials alone, so a tuple whose
// operands repeat an earlier tuple's takes that tuple's citation from the
// memo. Rendering honors ctx: a canceled request aborts between tokens
// instead of rendering the rest of the tuple's citation.
func (e *Engine) combineTuple(ctx context.Context, st *engineState, memo *renderMemo, tc *TupleCitation) (*sharedCitation, error) {
	key := memo.tupleKey(tc.PerRewriting)
	sc, ok := memo.tuples.get(key)
	if !ok {
		ps := make([]provenance.Poly, len(tc.PerRewriting))
		for i, rc := range tc.PerRewriting {
			ps[i] = rc.Poly
		}
		sc = &sharedCitation{kept: e.policy.Orders.MaximalPolys(ps)}
		combined := provenance.NewPoly()
		for _, i := range sc.kept {
			combined = combined.Plus(ps[i])
		}
		if e.policy.IdempotentPlus {
			combined = combined.Idempotent()
		}
		sc.combined = e.policy.Orders.NormalForm(combined)
		rendered, err := e.renderTuple(ctx, st, ps, sc.kept)
		if err != nil {
			return nil, err
		}
		sc.rendered = rendered
		memo.tuples.put(key, sc)
	}
	tc.Kept, tc.Combined, tc.Rendered, tc.shared = sc.kept, sc.combined, sc.rendered, sc
	return sc, nil
}

// renderTuple renders a tuple's citation: per kept rewriting, monomials
// render as ·-combinations of token citations and are +-combined; the kept
// rewritings are +R-combined. Cancellation fires between tokens.
// The operand lists here and in renderMonomial and aggregate are scratch
// that no combined value keeps: a few operands stay on the stack.
func (e *Engine) renderTuple(ctx context.Context, st *engineState, ps []provenance.Poly, kept []int) (format.Value, error) {
	var rbuf, mbuf [4]format.Value
	perRewriting := rbuf[:0]
	for _, i := range kept {
		monoVals := mbuf[:0]
		for _, t := range ps[i].Terms() {
			v, err := e.renderMonomial(ctx, st, t.Mono)
			if err != nil {
				return format.Value{}, err
			}
			monoVals = append(monoVals, v)
		}
		perRewriting = append(perRewriting, combine(e.policy.Plus, monoVals))
	}
	return combine(e.policy.PlusR, perRewriting), nil
}

// renderMonomial renders the ·-combination of a monomial's token citations.
// Citations are set-like: a token's exponent does not repeat its record.
func (e *Engine) renderMonomial(ctx context.Context, st *engineState, m provenance.Monomial) (format.Value, error) {
	var buf [4]format.Value
	vals := buf[:0]
	for _, pt := range m.Support() {
		obj, err := e.renderTokenCached(ctx, st, pt)
		if err != nil {
			return format.Value{}, err
		}
		vals = append(vals, format.O(obj))
	}
	return combine(e.policy.Times, vals), nil
}

// aggregate applies Agg across tuple citations and injects the policy's
// neutral citations (Definition 3.4).
func (e *Engine) aggregate(tuples []TupleCitation) format.Value {
	var buf [8]format.Value
	vals := buf[:0]
	for _, n := range e.policy.Neutral {
		vals = append(vals, format.O(n))
	}
	for _, tc := range tuples {
		if tc.Rendered.Kind == format.KObject && tc.Rendered.Obj != nil && tc.Rendered.Obj.Len() == 0 {
			continue // empty citation (no rewriting covered the tuple)
		}
		vals = append(vals, tc.Rendered)
	}
	return combine(e.policy.Agg, vals)
}

// CiteTupleString renders a tuple citation polynomial in the paper's
// notation with +R operands parenthesized, e.g.
//
//	(CV1("13") + CV4("gpcr")) · CV2("13")
//
// is displayed in expanded form CV1("13")·CV2("13") + CV4("gpcr")·CV2("13").
// Tuples that share a citation share the string.
func (tc *TupleCitation) CiteTupleString() string {
	if tc.shared == nil {
		return PolyString(tc.Combined)
	}
	return tc.shared.polynomial()
}
