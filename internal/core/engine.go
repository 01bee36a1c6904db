package core

import (
	"context"
	"errors"
	"fmt"
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
// query and the token citation queries read. That holds for every storage
// mode — a plain database, a hash-partitioned one, a persistent backend —
// which differ only in how their SnapshotSource takes the snapshot.
//
// Concurrency model: an Engine is safe for concurrent use. At construction
// (and on every Reset) it takes an immutable storage snapshot and evaluates
// all queries against it, so concurrent writers to the live database never
// corrupt in-flight citations — they simply are not visible until Reset.
// An epoch is that snapshot, its number and its physical-plan cache, captured
// once per Cite call; nothing in it is filled in later, so concurrent
// requests share no lock beyond the caches' own. Rendered citation tokens
// are cached in a sharded LRU keyed by epoch. Reset costs O(relations): it
// swaps in a fresh state atomically, leaving in-flight Cite calls to finish
// consistently against the old epoch.
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

	// parallel configures binding-enumeration workers: 0 adapts the worker
	// count to each plan's cardinalities (eval.Auto), 1 forces sequential,
	// n > 1 fixes the cap. Set via SetEvalParallelism before concurrent use.
	parallel int

	tokenCache *cache.Sharded[*format.Object]

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

	// resilience, when attached via SetResilience on a multi-shard engine,
	// arms snapshot evaluations with the fault-tolerant scatter driver;
	// breakers are its per-shard circuit breakers, shared across requests.
	resilience *ResilienceConfig
	breakers   *eval.Breakers

	// shardWrap, when set via SetShardWrapper, wraps each new snapshot that
	// is an eval.ShardScanner — the fault injector's seam.
	shardWrap func(eval.ShardScanner) eval.ShardScanner

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
	// tokenPrefix is the epoch as the token cache spells it in its keys.
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
		tokenCache: cache.NewSharded[*format.Object](8, tokenCacheSize),
		plans:      cache.NewSharded[*compiledQuery](8, logicalPlanCacheSize),
	}
	defs := make([]*cq.Query, len(views))
	for i, v := range views {
		if v == nil {
			return nil, fmt.Errorf("core: nil citation view")
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

// TokenCacheStats reports the rendered-token cache counters (hits, misses,
// evictions, singleflight waits) accumulated over the engine's lifetime.
func (e *Engine) TokenCacheStats() cache.Stats { return e.tokenCache.Stats() }

// PhysicalPlanStats reports the physical plan-cache counters summed across
// all epochs: hits served from a per-epoch compiled-plan cache, and misses
// that ran an eval.Compile.
func (e *Engine) PhysicalPlanStats() (hits, misses uint64) {
	return e.physHits.Load(), e.physMisses.Load()
}

// SetEvalParallelism sets the worker count for parallel binding
// enumeration: 0 (the default) adapts the count to each compiled plan's
// relation cardinalities and GOMAXPROCS (eval.Auto), 1 forces sequential
// evaluation, and n > 1 fixes the worker cap. Call before sharing the
// engine across goroutines; it is not synchronized with in-flight Cite
// calls.
func (e *Engine) SetEvalParallelism(n int) { e.parallel = n }

// requestOpts resolves one request's evaluation options: a non-zero
// per-request Parallel overrides the engine's configuration, otherwise the
// engine default applies. Unset parallelism is adaptive: the evaluator
// derives the worker count from the plan's first-atom cardinality
// (partitioning deeper atoms when the first is too small to split) instead
// of a blind flag default.
func (e *Engine) requestOpts(o CiteOptions) eval.Options {
	p := e.parallel
	if o.Parallel != 0 {
		p = o.Parallel
	}
	if p == 0 {
		p = eval.Auto
	}
	return eval.Options{Parallel: p}
}

// CiteOptions are the per-request knobs of one citation call. The zero
// value means "use the engine's configuration" for every field.
type CiteOptions struct {
	// Parallel overrides the engine's binding-enumeration worker setting
	// for this request: 1 forces sequential evaluation, n > 1 caps the
	// pool, eval.Auto adapts to plan cardinalities. 0 keeps the engine
	// default.
	Parallel int
	// MaxRewritings tightens the policy's rewriting-enumeration bound for
	// this request; 0 keeps the policy's bound, and a request can never
	// raise a non-zero policy bound (the engine clamps to the minimum), so
	// untrusted per-request values cannot bypass the operator's cost guard.
	// Requests with different effective bounds compile (and cache) separate
	// logical plans.
	MaxRewritings int
	// MaxTuples bounds the number of output tuples the query may produce;
	// past the bound the evaluation aborts with eval.ErrTupleLimit instead
	// of burning through the rest of the enumeration. 0 means unbounded.
	MaxTuples int
	// MinShardCoverage sets the request's degradation policy on a sharded
	// engine with resilience enabled. 0 (the default) requires full shard
	// coverage: a shard still unreachable after its attempt budget fails
	// the request with eval.ErrShardUnavailable. A value k > 0 accepts a
	// partial citation as long as at least k shards contributed; skipped
	// shards are reported in Result.Coverage. Ignored without resilience.
	MinShardCoverage int
	// ShardAttempts overrides the engine resilience configuration's
	// per-shard attempt budget for this request; 0 keeps the configured
	// budget. Ignored without resilience.
	ShardAttempts int
}

// curState returns the engine's current epoch state.
func (e *Engine) curState() *engineState {
	e.stateMu.RLock()
	defer e.stateMu.RUnlock()
	return e.state
}

// Reset re-snapshots the database and drops the epoch's plan and rendering
// caches (call after updating the database). In-flight Cite calls finish
// against the previous snapshot. Taking a snapshot costs O(relations) and
// happens outside the state lock, so concurrent Cite calls keep serving the
// old epoch meanwhile.
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
	e.tokenCache.Purge()
	return nil
}

// buildState snapshots the live store into a new epoch. The optional wrapper
// (fault injection) stands between the engine and every read of a snapshot
// that scans per shard.
func (e *Engine) buildState(epoch uint64) (*engineState, error) {
	view, err := e.src.Snapshot()
	if err != nil {
		return nil, err
	}
	if sc, ok := view.(eval.ShardScanner); ok && e.shardWrap != nil {
		view = e.shardWrap(sc)
	}
	part, _ := view.(eval.Partitioned)
	return &engineState{
		epoch:       epoch,
		tokenPrefix: strconv.FormatUint(epoch, 10) + "|",
		snap:        evalTarget{view: view}.cached(e),
		part:        part,
	}, nil
}

// RewritingCitation is the citation polynomial a single rewriting assigns to
// one output tuple (Definition 3.2: the + over all bindings of that
// rewriting).
type RewritingCitation struct {
	Rewriting *rewrite.Rewriting
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
	// Encoded carries the citation's text forms. CiteEach sets it on every
	// tuple it streams; Cite leaves it nil.
	Encoded *EncodedCitation
	shared  *sharedCitation // the memo entry Kept, Combined and Rendered are from
}

// Result is the full citation outcome for a query (Definition 3.4).
type Result struct {
	// Query is the normalized, minimized query the citation refers to.
	Query *cq.Query
	// Rewritings are the certified rewritings used (may be empty when the
	// views cannot express the query; the citation then degrades to the
	// policy's neutral citations).
	Rewritings []*rewrite.Rewriting
	// Columns labels the output columns.
	Columns []string
	// Tuples holds per-tuple citations in deterministic order.
	Tuples []TupleCitation
	// Citation is the aggregated citation for the entire result set,
	// including the policy's neutral citations.
	Citation format.Value
	// Coverage reports the shard coverage of the request's snapshot
	// evaluations when the engine ran with resilience enabled; nil
	// otherwise. Coverage.Partial() true means some shards were skipped
	// under the request's MinShardCoverage policy and the citation may be
	// incomplete.
	Coverage *eval.Coverage
}

// Cite computes the citation for a query: rewritings are enumerated
// (§2.2), per-binding monomials are combined with · (Definition 3.1), per
// rewriting with + (Definition 3.2), across rewritings with +R (Definition
// 3.3, order-pruned per §3.4), and across tuples with Agg (Definition 3.4).
func (e *Engine) Cite(q *cq.Query) (*Result, error) {
	return e.CiteCtx(context.Background(), q, CiteOptions{})
}

// CiteCtx is Cite under a context with per-request options. Cancellation is
// honored at every stage — output evaluation, rewriting evaluation and
// per-tuple citation assembly — so a canceled request returns the context's
// error promptly instead of finishing the citation nobody is waiting for.
func (e *Engine) CiteCtx(ctx context.Context, q *cq.Query, o CiteOptions) (*Result, error) {
	return e.cite(ctx, q, nil, o, nil)
}

// CitePrepared is CiteCtx for a query already resolved by Prepare (under
// the same options): the caller needed the minimized form before deciding
// to cite — a cache key, a batch group — and the citation does not redo it.
func (e *Engine) CitePrepared(ctx context.Context, p *Prepared, o CiteOptions) (*Result, error) {
	return e.cite(ctx, nil, p, o, nil)
}

// CiteEach is CiteCtx streaming: each output tuple's citation is handed to
// fn (in the same deterministic tuple order Cite produces, byte-identical
// content) instead of being kept on the Result, and no aggregated result-set
// citation is rendered. The returned Result carries the query, columns and
// rewritings only — Tuples stays nil and Citation zero. The *TupleCitation
// passed to fn is only valid during the call; fn returning an error aborts
// the stream.
//
// It is the same pipeline as CiteCtx with fn as its sink: the output tuples
// are gathered and sorted and every rewriting's polynomials gathered before
// the first delivery, then each citation is combined, rendered and encoded
// lazily, right before its delivery, and released right after — the first
// tuple reaches fn before any later tuple's citation has been rendered, and
// the rendered records are never all in memory at once. The answer's tuples
// and polynomials are, so memory stays O(answer) until [evaluate-once].
func (e *Engine) CiteEach(ctx context.Context, q *cq.Query, o CiteOptions, fn func(*TupleCitation) error) (*Result, error) {
	if fn == nil {
		return nil, fmt.Errorf("core: CiteEach requires a callback")
	}
	return e.cite(ctx, q, nil, o, fn)
}

// CiteEachPrepared is CiteEach for a query already resolved by Prepare
// (under the same options), as CitePrepared is CiteCtx for one.
func (e *Engine) CiteEachPrepared(ctx context.Context, p *Prepared, o CiteOptions, fn func(*TupleCitation) error) (*Result, error) {
	if fn == nil {
		return nil, fmt.Errorf("core: CiteEach requires a callback")
	}
	return e.cite(ctx, nil, p, o, fn)
}

// planStage is the pipeline's rewrite stage, under the stage's span: resolve
// the query's logical plan, unless the caller brought it, and take its
// unfolded rewritings under the query's own constants.
func (e *Engine) planStage(ob *obsCtx, q *cq.Query, p *Prepared, o CiteOptions) (*Prepared, []*unfolded, error) {
	rw := ob.begin(obs.StageRewrite)
	if p == nil {
		p = e.logicalPlan(q, o)
	}
	var us []*unfolded
	var err error
	hit := false
	if p.Satisfiable() {
		us, hit, err = e.rewritingsFor(p)
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
	return p, us, err
}

// cite is the citation pipeline, the one implementation of Definitions
// 3.1–3.4 behind every entry point: plan (q set and p nil, or p brought by
// the caller) → output evaluation → rewriting gather → per-tuple combine and
// render → delivery. With a sink (CiteEach) each tuple's citation is encoded
// and handed over as soon as it is rendered, then released; without one the
// tuples stay on the Result and Agg is applied across them.
func (e *Engine) cite(ctx context.Context, q *cq.Query, p *Prepared, o CiteOptions, each func(*TupleCitation) error) (res *Result, err error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if p == nil {
		if err := q.Validate(); err != nil {
			return nil, err
		}
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
				rws = len(res.Rewritings)
			}
			ob.finish(cited, rws, err)
		}()
	}

	p, us, err := e.planStage(&ob, q, p, o)
	if err != nil {
		return nil, err
	}
	if !p.Satisfiable() {
		return e.citeUnsat(p.norm)
	}
	res = &Result{Query: p.min, Columns: HeadColumns(p.min)}

	// Evaluate the query itself for the output tuples (independent of any
	// rewriting, so even an un-rewritable query reports its answers). The
	// per-request tuple bound applies here: the citation of a result is
	// per-tuple, so a result too large to return is aborted before any
	// rewriting work happens.
	st := e.curState()
	resil := e.resilienceFor(st, o)
	outOpts := e.requestOpts(o)
	outOpts.MaxTuples = o.MaxTuples
	outOpts.Resilience = resil
	ev := ob.begin(obs.StageEval)
	out, err := st.snap.eval(ob.ctxFor(ctx, ev), p.min, outOpts)
	ob.end(ev)
	if err != nil {
		return nil, err
	}
	ob.tr.SetInt(ev.id, "tuples", int64(len(out.Tuples)))
	// One slab holds every tuple's citation, in the evaluation's sorted key
	// order — the deterministic citation order. perKey indexes into it, so
	// the gather and combine stages fill the final slots in place: no
	// per-tuple heap skeletons, no copying append at the end.
	tuples := make([]TupleCitation, len(out.Tuples))
	perKey := make(map[string]*TupleCitation, len(out.Tuples))
	for i, t := range out.Tuples {
		tuples[i].Tuple = t
		perKey[out.Keys[i]] = &tuples[i]
	}

	if res.Rewritings, err = e.gatherStage(ctx, &ob, st, o, resil, us, perKey); err != nil {
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
	ro := renderOptsFor(resil)
	memo := newRenderMemo()
	for i := range tuples {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		tc := &tuples[i]
		var t0 time.Time
		if rd.on {
			t0 = time.Now()
		}
		sc, err := e.combineTuple(rdCtx, st, ro, memo, tc)
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
	if resil != nil {
		res.Coverage = resil.Coverage
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

// citeUnsat handles unsatisfiable queries: empty result, neutral citation.
func (e *Engine) citeUnsat(q *cq.Query) (*Result, error) {
	res := &Result{Query: q}
	res.Citation = e.aggregate(nil)
	return res, nil
}

// combineTuple applies +R across the tuple's rewriting polynomials: order
// pruning keeps the maximal operands (§3.4), which are then summed into the
// combined polynomial and rendered under the policy's interpretations. All
// of it is a function of the operand polynomials alone, so a tuple whose
// operands repeat an earlier tuple's takes that tuple's citation from the
// memo. Rendering honors ctx: a canceled request aborts between tokens
// instead of rendering the rest of the tuple's citation.
func (e *Engine) combineTuple(ctx context.Context, st *engineState, ro renderOpts, memo *renderMemo, tc *TupleCitation) (*sharedCitation, error) {
	if ro.degraded {
		// A token of an unreachable shard renders as a per-attempt
		// Unavailable record: every tuple asks the shards again.
		memo = newRenderMemo()
	}
	key := memo.tupleKey(tc.PerRewriting)
	sc := memo.tuples[string(key)] // no-alloc map probe
	if sc == nil {
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
		rendered, err := e.renderTuple(ctx, st, ro, ps, sc.kept)
		if err != nil {
			return nil, err
		}
		sc.rendered = rendered
		memo.tuples[string(key)] = sc
	}
	tc.Kept, tc.Combined, tc.Rendered, tc.shared = sc.kept, sc.combined, sc.rendered, sc
	return sc, nil
}

// renderTuple renders a tuple's citation: per kept rewriting, monomials
// render as ·-combinations of token citations and are +-combined; the kept
// rewritings are +R-combined. Cancellation fires between tokens.
func (e *Engine) renderTuple(ctx context.Context, st *engineState, ro renderOpts, ps []provenance.Poly, kept []int) (format.Value, error) {
	var perRewriting []format.Value
	for _, i := range kept {
		var monoVals []format.Value
		for _, t := range ps[i].Terms() {
			v, err := e.renderMonomial(ctx, st, ro, t.Mono)
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
func (e *Engine) renderMonomial(ctx context.Context, st *engineState, ro renderOpts, m provenance.Monomial) (format.Value, error) {
	var vals []format.Value
	for _, pt := range m.Support() {
		obj, err := e.renderTokenCached(ctx, st, ro, pt)
		if err != nil {
			return format.Value{}, err
		}
		vals = append(vals, format.O(obj))
	}
	return combine(e.policy.Times, vals), nil
}

// renderTokenCached renders a token through the sharded LRU. Keys carry the
// state epoch so a Cite racing a Reset can never serve a rendering from a
// different snapshot.
//
// ctx gates entry per token and flows into the citation-query evaluation,
// so a canceled request aborts its own rendering mid-token. Per-request
// failures — cancellation, attempt deadlines, unreachable shards — are
// returned to the caller and never cached: the singleflight layer below
// retries waiters of a failed flight instead of handing them the leader's
// error, so one doomed request cannot poison the rendering its concurrent
// waiters share. Deterministic rendering failures still cache as embedded
// error records. Under a partial-coverage policy (ro.degraded) a token
// whose shards stay unreachable renders as an explicit per-request
// Unavailable record, outside the cache — the shards may be back for the
// next request.
func (e *Engine) renderTokenCached(ctx context.Context, st *engineState, ro renderOpts, pt provenance.Token) (*format.Object, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	obj, hit, err := e.tokenCache.GetOrCompute(st.tokenPrefix+string(pt), func() (*format.Object, error) {
		return e.renderToken(ctx, st, ro, pt)
	})
	if err != nil {
		if ro.degraded && errors.Is(err, eval.ErrShardUnavailable) {
			return unavailableToken(pt, err), nil
		}
		return nil, err
	}
	if tr, sp := obs.FromContext(ctx); tr != nil {
		if hit {
			tr.AddInt(sp, "token_cache_hits", 1)
		} else {
			tr.AddInt(sp, "token_cache_misses", 1)
		}
	}
	return obj, nil
}

// renderToken renders one token's citation record. The returned error is
// per-request (cancellation, deadline, unavailable shards) and must not be
// cached; every deterministic failure is embedded in the record itself.
func (e *Engine) renderToken(ctx context.Context, st *engineState, ro renderOpts, pt provenance.Token) (*format.Object, error) {
	tok, err := DecodeToken(pt)
	if err != nil {
		return format.NewObject().Set("InvalidToken", format.S(string(pt))), nil
	}
	if tok.Kind == RelToken {
		return format.NewObject().Set("UncitedRelation", format.S(tok.Name)), nil
	}
	v := e.byName[tok.Name]
	if v == nil {
		return format.NewObject().Set("UnknownView", format.S(tok.Name)), nil
	}
	opts := eval.Options{Resilience: ro.resil}
	obj, err := v.renderTokenCtx(ctx, st.snap, tok, opts)
	if err != nil {
		if transientRenderErr(err) {
			return nil, err
		}
		return format.NewObject().
			Set("View", format.S(tok.Name)).
			Set("Error", format.S(err.Error())), nil
	}
	return obj, nil
}

// aggregate applies Agg across tuple citations and injects the policy's
// neutral citations (Definition 3.4).
func (e *Engine) aggregate(tuples []TupleCitation) format.Value {
	var vals []format.Value
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
