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

	// Parallel overrides the Citer's binding-enumeration workers for this
	// request: 1 forces sequential evaluation, n > 1 caps the worker pool,
	// and 0 keeps the Citer's setting (adaptive by default).
	Parallel int

	// MaxRewritings tightens rewriting enumeration for this request; 0
	// keeps the policy's bound, and a non-zero policy bound can only be
	// lowered, never raised. Tighter bounds trade citation completeness
	// for latency on view-heavy deployments.
	MaxRewritings int

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

	// MinShardCoverage sets the degradation policy on a resilient sharded
	// Citer (WithResilience). 0 — the default — requires full shard
	// coverage: a shard still unreachable after its attempt budget fails
	// the request with ErrShardUnavailable. A value k > 0 accepts a partial
	// citation as long as at least k shards contributed (answered or
	// provably pruned): Cite then returns the degraded Citation together
	// with a *PartialError carrying the Coverage report. Ignored without
	// resilience.
	MinShardCoverage int

	// ShardAttempts overrides the resilient driver's per-shard attempt
	// budget (first try included) for this request; 0 keeps the configured
	// budget. Ignored without resilience.
	ShardAttempts int
}

// parse validates the request shape and translates the query text into the
// internal query form. All failures are tagged ErrParse.
func (r Request) parse(schema *storage.Schema) (*cq.Query, error) {
	if (r.SQL == "") == (r.Datalog == "") {
		return nil, fmt.Errorf("%w: provide exactly one of SQL or Datalog", ErrParse)
	}
	if r.Format != "" {
		if _, err := format.RendererByName(r.Format); err != nil {
			return nil, parseError(err)
		}
	}
	var (
		q   *cq.Query
		err error
	)
	if r.SQL != "" {
		q, err = sqlfe.Parse(schema, r.SQL)
	} else {
		q, err = datalog.ParseQuery(r.Datalog)
	}
	if err != nil {
		return nil, parseError(err)
	}
	if err := q.Validate(); err != nil {
		return nil, parseError(err)
	}
	return q, nil
}

// renderFormat is the request's effective render format.
func (r Request) renderFormat() string {
	if r.Format == "" {
		return "json"
	}
	return r.Format
}

// citeOptions translates the request's knobs to the engine's options.
func (r Request) citeOptions() core.CiteOptions {
	return core.CiteOptions{
		Parallel:         r.Parallel,
		MaxRewritings:    r.MaxRewritings,
		MaxTuples:        r.MaxTuples,
		MinShardCoverage: r.MinShardCoverage,
		ShardAttempts:    r.ShardAttempts,
	}
}

// Cite evaluates one request: the query is parsed, rewritten over the
// citation views, evaluated against the engine's snapshot, and its citation
// assembled. The context governs the whole pipeline — a canceled or expired
// ctx aborts evaluation at the next partition or frame boundary and returns
// an error tagged ErrCanceled. All errors are tagged with the package's
// taxonomy (ErrParse, ErrSchema, ErrCanceled, ErrLimit).
func (c *Citer) Cite(ctx context.Context, req Request) (*Citation, error) {
	// Explain: ensure a trace rides the context (reusing one the caller —
	// e.g. citesrv's slow-query logger — already injected), bracket the
	// parse in its own span, and attach the rendered report to the result.
	var tr *obs.Trace
	if req.Explain {
		if tr, _ = obs.FromContext(ctx); tr == nil {
			tr = obs.NewTrace()
			ctx = obs.NewContext(ctx, tr, obs.NoSpan)
		}
	}
	psp := obs.NoSpan
	if tr != nil {
		_, cur := obs.FromContext(ctx)
		psp = tr.Start(cur, obs.StageParse)
	}
	q, err := req.parse(c.schema)
	tr.End(psp)
	if err != nil {
		return nil, err
	}
	res, err := c.engine.CiteCtx(ctx, q, req.citeOptions())
	if err != nil {
		return nil, classify(err)
	}
	ct := &Citation{res: res, format: req.renderFormat()}
	if tr != nil {
		ct.explain = explainFromReport(tr.Report())
	}
	// A degraded citation is returned, not swallowed: the Citation is valid
	// for the shards that answered, and the paired *PartialError carries the
	// machine-readable Coverage so callers can decide whether it is enough.
	if res.Coverage != nil && res.Coverage.Partial() {
		return ct, &PartialError{Coverage: res.Coverage}
	}
	return ct, nil
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

// CiteEach evaluates one request and streams each answer tuple's citation
// through fn in the deterministic result order: citations are rendered one
// at a time, right before delivery, so neither the rendered per-tuple list
// nor the aggregated result-set citation is ever built (the answer's tuples
// and citation polynomials are, before the first delivery). fn returning an
// error aborts the stream with that error; context cancellation aborts with
// ErrCanceled.
func (c *Citer) CiteEach(ctx context.Context, req Request, fn func(Tuple) error) error {
	if fn == nil {
		return fmt.Errorf("%w: CiteEach requires a callback", ErrParse)
	}
	// When a trace rides the context (citesrv's stream trailer), bracket
	// the parse so per-stage totals cover the whole pipeline; Start no-ops
	// on a nil trace.
	tr, cur := obs.FromContext(ctx)
	psp := tr.Start(cur, obs.StageParse)
	q, err := req.parse(c.schema)
	tr.End(psp)
	if err != nil {
		return err
	}
	i := 0
	res, err := c.engine.CiteEach(ctx, q, req.citeOptions(), func(tc *core.TupleCitation) error {
		t := Tuple{
			Index:        i,
			Values:       append([]string(nil), tc.Tuple...),
			Polynomial:   tc.Encoded.Polynomial,
			CitationJSON: tc.Encoded.JSON,
			enc:          tc.Encoded,
		}
		i++
		return fn(t)
	})
	if err != nil {
		return classify(err)
	}
	// Degraded stream: every delivered tuple is valid, but skipped shards
	// may have withheld others. Reported after the last delivery as a
	// *PartialError so streaming callers (citesrv's NDJSON trailer) can
	// attach the Coverage without a second channel.
	if res != nil && res.Coverage != nil && res.Coverage.Partial() {
		return &PartialError{Coverage: res.Coverage}
	}
	return nil
}
