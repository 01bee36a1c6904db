package citare

import (
	"context"
	"fmt"

	"citare/internal/core"
	"citare/internal/cq"
	"citare/internal/datalog"
	"citare/internal/format"
	"citare/internal/obs"
	"citare/internal/sqlfe"
	"citare/internal/storage"
)

// Request is one citation request: the query source plus per-request
// options. Exactly one of SQL or Datalog must be set. The zero value of
// every option field means "use the Citer's configuration".
type Request struct {
	// SQL is a conjunctive SQL query over the database schema.
	SQL string
	// Datalog is a query in the paper's notation, e.g.
	//
	//	Q(N) :- Family(F, N, Ty), Ty = "gpcr", FamilyIntro(F, Tx)
	Datalog string

	// Format names the render format the response should use: json,
	// json-compact, xml, bibtex or text. It is validated up front (an
	// unknown name fails with ErrParse before any evaluation) and becomes
	// the Citation's default for Rendered; it does not affect the citation
	// itself. Empty means json.
	Format string

	// MaxTuples bounds the number of answer tuples the query may produce.
	// A query exceeding the bound aborts promptly with ErrLimit instead of
	// enumerating (and citing) a result nobody can page through. 0 means
	// unbounded.
	MaxTuples int

	// Explain asks for a per-stage trace of the request's trip through the
	// pipeline (parse, rewrite, compile, eval, gather, render — with
	// durations, counts, cache outcomes, the strategy chosen and per-shard
	// timings), returned via Citation.Explain. Tracing never changes the citation itself; through
	// a CachedCiter an Explain request bypasses the citation cache.
	Explain bool
}

// resolveMemoSize bounds a Citer's resolve memo (sharded LRU, entries): as
// many request texts as the citation cache holds citations.
const resolveMemoSize = citationCacheSize

// resolve turns a request into the query its text decides: the request shape
// and the render format are validated (per request — Format is not part of
// the text), the query text is parsed, validated and prepared against the
// engine's logical-plan cache; its canonical key is spelled per lookup from
// its shape's template (core.Prepared.AppendCanonical). It is the one place a
// request's text is read: Cite, CiteEach, CiteBatchItems and the CachedCiter
// all start here. The work is done once per text — source language and text
// key a bounded LRU that belongs to the Citer (a Prepared points into its own
// engine's plan cache, so an AsOf Citer resolves for itself) and holds no
// data and no epoch, so Reset and Invalidate leave it alone; a Prepared is
// read-only, so one serves any number of concurrent requests of the same
// text. hit reports a text resolved before.
// Failures are tagged ErrParse and never stored: the same bad text fails again
// (TestResolveMemoStoresNoFailure), and the same good text sees the data of
// whichever epoch it is cited in (TestResolveMemoHoldsNoData).
func (c *Citer) resolve(req Request) (p *core.Prepared, hit bool, err error) {
	if (req.SQL == "") == (req.Datalog == "") {
		return nil, false, fmt.Errorf("%w: provide exactly one of SQL or Datalog", ErrParse)
	}
	if req.Format != "" {
		if _, err := format.RendererByName(req.Format); err != nil {
			return nil, false, parseError(err)
		}
	}
	memoKey := "d" + req.Datalog
	if req.SQL != "" {
		memoKey = "s" + req.SQL
	}
	if p, ok := c.resolves.Get(memoKey); ok {
		return p, true, nil
	}
	q, err := req.parse(c.schema)
	if err != nil {
		return nil, false, err
	}
	p = c.engine.Prepare(q)
	c.resolves.Put(memoKey, p)
	return p, false, nil
}

// parse translates the request's query text into the internal query form and
// validates it. All failures are tagged ErrParse.
func (r Request) parse(schema *storage.Schema) (*cq.Query, error) {
	var (
		q   *cq.Query
		err error
	)
	if r.SQL != "" {
		q, err = sqlfe.Parse(schema, r.SQL)
	} else {
		q, err = datalog.ParseQuery(r.Datalog)
	}
	if err == nil {
		err = q.Validate()
	}
	if err != nil {
		return nil, parseError(err)
	}
	return q, nil
}

// resolveTraced is resolve under the parse span of the trace riding ctx, if
// one does (Start, End and SetInt no-op on a nil trace); the span says whether
// the text had been resolved before, as the rewrite span says of the plan.
// Through a cache (cc non-nil) the span also covers the cache lookup, and ct
// is the citation the cache holds for the request, nil when it holds none;
// the span of such a replay — its only one — carries no attribute, so that
// a replay allocates nothing for its trace.
func (c *Citer) resolveTraced(ctx context.Context, req Request, cc *CachedCiter) (p *core.Prepared, ct *Citation, err error) {
	tr, cur := obs.FromContext(ctx)
	psp := tr.Start(cur, obs.StageParse)
	p, hit, err := c.resolve(req)
	if err == nil {
		ct = cc.lookup(p, req)
	}
	tr.End(psp)
	if ct != nil {
		return p, ct, nil
	}
	cached := int64(0)
	if hit {
		cached = 1
	}
	tr.SetInt(psp, "cached", cached)
	return p, nil, err
}

// renderFormat is the request's effective render format.
func (r Request) renderFormat() string {
	if r.Format == "" {
		return "json"
	}
	return r.Format
}

// Cite evaluates one request: the query is parsed, rewritten over the
// citation views, evaluated against the engine's snapshot, and its citation
// assembled. The context governs the whole pipeline — a canceled or expired
// ctx aborts evaluation at the next shard or frame boundary and returns
// an error tagged ErrCanceled. All errors are tagged with the package's
// taxonomy (ErrParse, ErrSchema, ErrCanceled, ErrLimit, ErrShardUnavailable).
func (c *Citer) Cite(ctx context.Context, req Request) (*Citation, error) {
	// Explain: ensure a trace rides the context (reusing one the caller —
	// e.g. citesrv's slow-query logger — already injected) and attach the
	// rendered report to the result.
	var tr *obs.Trace
	if req.Explain {
		if tr, _ = obs.FromContext(ctx); tr == nil {
			tr = obs.NewTrace()
			ctx = obs.NewContext(ctx, tr, obs.NoSpan)
		}
	}
	p, _, err := c.resolveTraced(ctx, req, nil)
	if err != nil {
		return nil, err
	}
	ct, err := c.cite(ctx, p, req)
	if ct != nil && tr != nil {
		ct.explain = tr.Report()
	}
	return ct, err
}

// cite evaluates a resolved request: the one place a Citation is made.
func (c *Citer) cite(ctx context.Context, p *core.Prepared, req Request) (*Citation, error) {
	res, err := c.engine.CitePrepared(ctx, p, req.MaxTuples)
	if err != nil {
		return nil, classify(err)
	}
	return &Citation{res: res, format: req.renderFormat()}, nil
}

// Tuple is one answer tuple streamed by CiteEach, carrying its citation in
// both the paper's polynomial notation and rendered JSON.
type Tuple struct {
	// Index is the tuple's position in the deterministic result order.
	Index int
	// Values are the tuple's column values (aligned with the query head).
	Values []string
	// Polynomial is the tuple's citation polynomial, e.g.
	// CV1("13")·CV2("13") + CV4("gpcr")·CV2("13").
	Polynomial string
	// CitationJSON is the tuple's rendered citation record as compact JSON.
	CitationJSON string

	// enc is the citation CiteEach took Polynomial and CitationJSON from,
	// shared by every tuple of the request with the same citation.
	enc *core.EncodedCitation
}

// AppendCitationWire appends the tuple's citation record to dst in the
// spelling an NDJSON line embeds it in: no spaces, and <, > and & escaped —
// what encoding/json makes of CitationJSON as a json.RawMessage. Tuples that
// share a citation share the encoding, made once. On a Tuple that did not
// come from CiteEach it appends CitationJSON as it stands.
func (t Tuple) AppendCitationWire(dst []byte) []byte {
	if t.enc == nil {
		return append(dst, t.CitationJSON...)
	}
	return t.enc.AppendWire(dst)
}

// streamedTuple is the i-th tuple of an answer as a stream delivers it. The
// values are copied: tc belongs to the engine during a stream and to every
// reader of the cache during a replay.
func streamedTuple(i int, tc *core.TupleCitation) Tuple {
	enc := tc.Encoding()
	return Tuple{
		Index:        i,
		Values:       append([]string(nil), tc.Tuple...),
		Polynomial:   enc.Polynomial,
		CitationJSON: enc.JSON,
		enc:          enc,
	}
}

// EachTuple hands fn the citation's tuples in their stored order — the order
// CiteEach streams them in — exactly as CiteEach would: same Index, Values,
// Polynomial, CitationJSON and wire spelling, nothing evaluated or rendered. A
// citation's text forms are made once per distinct citation, on its first
// EachTuple, and kept with it. fn returning an error ends the walk with that
// error.
func (ct *Citation) EachTuple(fn func(Tuple) error) error {
	for i := range ct.res.Tuples {
		if err := fn(streamedTuple(i, &ct.res.Tuples[i])); err != nil {
			return err
		}
	}
	return nil
}

// CiteEach evaluates one request and streams each answer tuple's citation
// through fn in the deterministic result order: citations are rendered one
// at a time, right before delivery, so neither the rendered per-tuple list
// nor the aggregated result-set citation is ever built (the answer's tuples
// and citation polynomials are, before the first delivery). fn returning an
// error aborts the stream with that error; context cancellation aborts with
// ErrCanceled.
func (c *Citer) CiteEach(ctx context.Context, req Request, fn func(Tuple) error) error {
	_, err := c.stream(ctx, req, fn, nil, nil)
	return err
}

// stream is CiteEach's one body. Through a cache (cc non-nil) a request whose
// citation the cache holds is a replay of it — replay, when non-nil, is told
// before the first tuple, and replayed reports it; any other request is
// evaluated and stores nothing: a stream never builds the aggregate a cached
// citation carries. Either way the text is resolved once, under the parse
// span of the trace riding ctx (citesrv's stream trailer), so per-stage
// totals cover the whole pipeline.
func (c *Citer) stream(ctx context.Context, req Request, fn func(Tuple) error, cc *CachedCiter, replay func()) (replayed bool, err error) {
	if fn == nil {
		return false, fmt.Errorf("%w: CiteEach requires a callback", ErrParse)
	}
	p, ct, err := c.resolveTraced(ctx, req, cc)
	if err != nil {
		return false, err
	}
	if ct != nil {
		if replay != nil {
			replay()
		}
		return true, ct.EachTuple(fn)
	}
	i := 0
	_, err = c.engine.CiteEachPrepared(ctx, p, req.MaxTuples, func(tc *core.TupleCitation) error {
		t := streamedTuple(i, tc)
		i++
		return fn(t)
	})
	return false, classify(err)
}
