// Package citare automatically generates citations for queries over
// relational databases, implementing "A Model for Fine-Grained Data
// Citation" (Davidson, Deutch, Milo, Silvello — CIDR 2017).
//
// Database owners attach citations to a small set of (possibly
// λ-parameterized) citation views. A general query is then rewritten over
// those views and the views' citations are combined in a citation semiring —
// · for joint use, + for alternative bindings, +R for alternative rewritings
// and Agg across output tuples — under owner-chosen interpretations and
// preference orders.
//
// Quickstart:
//
//	db := gtopdb.PaperInstance()                  // or your own storage.DB
//	citer, err := citare.NewFromProgram(db, gtopdb.ViewsProgram)
//	res, err := citer.Cite(ctx, citare.Request{
//	        SQL: `SELECT f.FName FROM Family f, FamilyIntro i
//	              WHERE f.FID = i.FID AND f.Type = 'gpcr'`,
//	})
//	fmt.Println(res.CitationJSON())
//
// # Request model
//
// The request API is context-first: every entry point takes a
// context.Context and a Request. The context governs the whole pipeline —
// cancel it (or let its deadline expire) and the evaluation stops at the
// next shard or frame boundary in whichever execution strategy is running,
// returning an error tagged ErrCanceled instead of burning cores on an
// answer nobody is waiting for. The Request carries per-request knobs: the
// render Format, a MaxRewritings bound and a MaxTuples result cap
// (exceeding it fails with ErrLimit).
//
//   - Cite(ctx, req) evaluates one request.
//   - CiteBatch(ctx, reqs) evaluates many at once: requests whose queries
//     canonicalize to the same form share one logical-plan compilation and
//     one evaluation, distinct groups run concurrently, and all of them read
//     one epoch through its shared plan and token caches. Output is
//     identical to independent Cite calls.
//   - CiteBatchItems(ctx, reqs) is the per-item variant: same grouping and
//     sharing, but a failing request yields a typed error in its own slot
//     while the others still evaluate.
//   - CiteEach(ctx, req, fn) streams per-tuple citations in deterministic
//     order. It is Cite's own pipeline with fn as its sink: the answer's
//     tuples and citation polynomials are gathered and sorted first, then
//     each citation is rendered right before its delivery and released
//     right after — the first tuple's citation reaches fn before later
//     tuples render, the rendered per-tuple list and the aggregated
//     result-set citation are never built, and the output is
//     byte-identical to Cite's tuples. citesrv exposes it as NDJSON on
//     POST /v1/cite/stream. Through a CachedCiter, a request whose citation
//     the cache holds is a replay of it (Citation.EachTuple): the same
//     tuples, nothing evaluated.
//
// Failures are classified by a typed taxonomy — ErrParse, ErrSchema,
// ErrCanceled, ErrLimit, ErrShardUnavailable, ErrPartial — inspected with
// errors.Is; the original cause (parser position errors, context errors,
// the *PartialError coverage report) stays reachable via errors.As.
//
// The package wires together the internal engine; the model itself lives in
// internal/core (citation views, semiring, orders, policies), internal/
// rewrite (answering queries using views) and internal/cq (conjunctive-query
// reasoning).
//
// # Concurrency model
//
// Citations are generated on demand at query time, so the whole read path
// is built to serve many queries at once:
//
//   - internal/storage: relations take per-relation RW locks and readers
//     iterate immutable captured views, so concurrent Scans, Lookups and
//     lazy index builds are race-free. DB.Snapshot returns an O(relations)
//     immutable view shared copy-on-write with the live database; writers
//     never invalidate in-flight snapshot readers.
//   - internal/eval: queries compile once into physical plans (variables
//     mapped to integer slots, precomputed access paths, cardinality-aware
//     join order) executed on reusable slot frames. A plan over an
//     unpartitioned store descends sequentially, on the request's own
//     goroutine; citations are plan-independent, so concurrency comes from
//     serving requests side by side, and from sharding.
//   - internal/shard: a shard.DB hash-partitions every relation across N
//     independent storage.DB shards (each with its own locks, indexes and
//     snapshots). A plan compiled over one scatter-gathers: the first join
//     atom is read shard by shard — on several workers when the plan's
//     relations are large enough (eval.Auto) — shards that cannot match a
//     bound shard key are skipped entirely, and results merge
//     deterministically: the binding multiset (Plan.Each) and the sorted
//     output (Plan.EvalCtx) are byte-identical to unsharded evaluation.
//     Build a sharded Citer with NewSharded / NewShardedFromProgram (see
//     shard.FromDB to partition existing data).
//   - internal/core: an Engine snapshots the database at construction and
//     on Reset. An epoch is that snapshot, its number and the physical
//     plans compiled against it, captured once per Cite; citation views are
//     never stored — each rewriting is evaluated through its expansion over
//     base relations (unfolded) on the snapshot, collapsing frames that
//     differ only in a view's existential variables — so nothing in an
//     epoch fills in lazily, its requests share no lock, and Reset is
//     O(relations). Rendered tokens are cached in a sharded LRU keyed by
//     view and λ-values that outlives Reset: an entry serves the snapshot
//     it was rendered at, and over a persistent backend's head a commit
//     that only inserted rows is applied to it by the delta rule. A single
//     Engine serves concurrent Cite calls, and Reset after updates never
//     tears an in-flight citation. Citations reuse two compilation caches,
//     both keyed by query shape — the query with its constants lifted to
//     parameters — so the same lookup about another key binds the plans
//     compiled for the first: the logical plan (minimized query + certified
//     rewritings, engine-lifetime) and the physical eval plans (per epoch,
//     dropped on Reset).
//   - Citer and CachedCiter are therefore safe for concurrent use;
//     CachedCiter additionally collapses concurrent misses on equivalent
//     queries into one engine call.
//
// After updating the database, call (*Citer).Reset or
// (*CachedCiter).Invalidate to publish the new contents.
//
// # Caching
//
// What is a function of less than the whole request is made once, at three
// levels:
//
//   - Request text → resolved request. Every Citer remembers, per query text
//     (and MaxRewritings), the parsed query, its logical plan and its
//     canonical key — a bounded LRU that holds no data, so nothing
//     invalidates it; Reset and Invalidate leave it alone.
//   - Canonical query → citation. A CachedCiter keeps whole citations,
//     shared by equivalent queries; Invalidate drops them all.
//   - Citation → response bytes. A cached citation keeps, from its first
//     cache hit on, the bytes of its /v1/cite response that do not depend
//     on the asking request (Citation.AppendWire); they live and die with
//     the cache entry, and about double what a hit entry retains.
//
// A stream reads the second level and adds none: CachedCiter.CiteEach replays
// a cached citation's tuples and keeps, per distinct per-tuple citation, its
// text forms — never a stream's body.
package citare

import (
	"fmt"

	"citare/internal/backend"
	"citare/internal/cache"
	"citare/internal/core"
	"citare/internal/datalog"
	"citare/internal/eval"
	"citare/internal/format"
	"citare/internal/shard"
	"citare/internal/storage"
)

// Re-exported configuration types: the facade accepts the internal model's
// policy vocabulary directly.
type (
	// Policy configures the combining-function interpretations,
	// idempotence, preference orders and rewriting options (§3.3–§3.4 of
	// the paper).
	Policy = core.Policy
	// Interp selects union or join record combination.
	Interp = core.Interp
	// CitationView is the (V, C_V, F_V) triple of Definition 2.1.
	CitationView = core.CitationView
	// ResilienceConfig tunes the fault-tolerant scatter-gather driver of a
	// sharded Citer (WithResilience): per-shard attempt deadlines, bounded
	// retries with backoff, hedged straggler attempts and circuit breakers.
	ResilienceConfig = core.ResilienceConfig
	// Coverage is the machine-readable shard-coverage report attached to
	// citations computed by a resilient sharded Citer (Citation.Coverage,
	// PartialError.Coverage).
	Coverage = eval.Coverage
	// ShardCoverage is one shard's outcome inside a Coverage report.
	ShardCoverage = eval.ShardCoverage
)

// Interpretation constants.
const (
	Union = core.InterpUnion
	Join  = core.InterpJoin
)

// Citer computes citations for queries against one database and view set.
// It is safe for concurrent use; it cites against a snapshot taken at
// construction, so call Reset to pick up later database updates.
type Citer struct {
	engine *core.Engine
	schema *storage.Schema
	// back is the pluggable storage backend, set only by NewBackend — the
	// handle AsOf builds version-pinned Citers from.
	back backend.Backend
	// opts are the construction options, kept so AsOf can clone the
	// configuration into the pinned Citer.
	opts []Option
	// resolves memoizes resolve by request text.
	resolves *cache.Sharded[*resolved]
}

// Option customizes a Citer.
type Option func(*options)

type options struct {
	policy     Policy
	policySet  bool
	neutral    []*format.Object
	resilience *ResilienceConfig
}

// WithPolicy replaces the default policy.
func WithPolicy(p Policy) Option {
	return func(o *options) {
		o.policy = p
		o.policySet = true
	}
}

// WithNeutralCitation adds a citation that is always included in aggregated
// results (Definition 3.4's neutral element) — typically the database's own
// citation.
func WithNeutralCitation(obj *format.Object) Option {
	return func(o *options) { o.neutral = append(o.neutral, obj) }
}

// WithResilience arms a sharded Citer's scatter-gather evaluations with the
// fault-tolerant driver: per-shard attempt deadlines, bounded retries with
// exponential backoff and seeded jitter, optional hedged duplicate attempts
// for stragglers, and per-shard circuit breakers shared across requests.
// With zero faults the output stays byte-identical to a sharded Citer
// without it, which reads each shard once and fails the request with
// ErrShardUnavailable when a shard read fails. The zero ResilienceConfig
// enables the policy with defaults; on an unsharded (or single-shard) Citer
// the option is inert. Degradation policy is per request: see
// Request.MinShardCoverage.
func WithResilience(cfg ResilienceConfig) Option {
	return func(o *options) { o.resilience = &cfg }
}

// newCiter is the one construction path behind every constructor: fold the
// option list into the effective policy and the remaining knobs, and build
// the engine over the store's snapshot source.
func newCiter(src core.SnapshotSource, back backend.Backend, views []*CitationView, opts []Option) (*Citer, error) {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	pol := core.DefaultPolicy()
	if o.policySet {
		pol = o.policy
	}
	pol.Neutral = append(pol.Neutral, o.neutral...)
	engine, err := core.NewEngine(src, views, pol)
	if err != nil {
		return nil, err
	}
	engine.SetResilience(o.resilience)
	return &Citer{
		engine: engine, schema: src.Schema(), back: back, opts: opts,
		resolves: cache.NewSharded[*resolved](16, resolveMemoSize),
	}, nil
}

// New assembles a Citer over a database and citation views.
func New(db *storage.DB, views []*CitationView, opts ...Option) (*Citer, error) {
	return newCiter(core.DBSource{DB: db}, nil, views, opts)
}

// NewFromProgram assembles a Citer from a citation-view program in the
// datalog surface syntax (see internal/datalog and gtopdb.ViewsProgram).
func NewFromProgram(db *storage.DB, viewsProgram string, opts ...Option) (*Citer, error) {
	views, err := viewsFromProgram(viewsProgram)
	if err != nil {
		return nil, err
	}
	return New(db, views, opts...)
}

// NewSharded assembles a Citer over a hash-partitioned database
// (internal/shard): snapshots and query, rewriting and citation-query
// evaluation fan out per shard and merge deterministically, so citations
// are byte-identical to an unsharded Citer over the same data. Partition an
// existing database with shard.FromDB, or populate a shard.New directly.
func NewSharded(sdb *shard.DB, views []*CitationView, opts ...Option) (*Citer, error) {
	return newCiter(core.ShardSource{DB: sdb}, nil, views, opts)
}

// NewShardedFromProgram is NewSharded from a citation-view program.
func NewShardedFromProgram(sdb *shard.DB, viewsProgram string, opts ...Option) (*Citer, error) {
	views, err := viewsFromProgram(viewsProgram)
	if err != nil {
		return nil, err
	}
	return NewSharded(sdb, views, opts...)
}

// NewBackend assembles a Citer over a versioned storage backend, such as the
// persistent backend.LSM. The engine reads
// through snapshot-isolated backend views (for the LSM backend, straight
// from SSTable iterators; no in-memory copy of the data is built), and the
// Citer keeps the backend handle so AsOf can cite against any committed
// version. After writing to the backend, call Reset to publish the new
// contents, exactly as with a database-backed Citer.
func NewBackend(b backend.Backend, views []*CitationView, opts ...Option) (*Citer, error) {
	return newCiter(backend.Head(b), b, views, opts)
}

// NewBackendFromProgram is NewBackend from a citation-view program.
func NewBackendFromProgram(b backend.Backend, viewsProgram string, opts ...Option) (*Citer, error) {
	views, err := viewsFromProgram(viewsProgram)
	if err != nil {
		return nil, err
	}
	return NewBackend(b, views, opts...)
}

// AsOf returns a Citer pinned to a committed version of the backend: every
// citation it computes reads the data as of that version (the paper's §4
// fixity requirement — a citation must be able to bring back the cited
// data). Only available on Citers built with NewBackend; the pinned Citer
// shares the backend but compiles its own plans, and stays valid for as
// long as the backend is open. The version must be committed — one that the
// backend's Versions lists, 1 ≤ version < Version(); any other version,
// the one still being written included, fails with an error tagged
// ErrRange.
func (c *Citer) AsOf(version uint64) (*Citer, error) {
	if c.back == nil {
		return nil, fmt.Errorf("citare: AsOf requires a backend-built Citer (NewBackend)")
	}
	v, err := c.back.AsOf(version) // validate the version now
	if err != nil {
		if version == 0 || version >= c.back.Version() {
			err = fmt.Errorf("%w: %w", ErrRange, err)
		}
		return nil, err
	}
	v.Release()
	return newCiter(backend.At(c.back, version), c.back, c.engine.Views(), c.opts)
}

// Backend returns the Citer's storage backend (nil unless built with
// NewBackend).
func (c *Citer) Backend() backend.Backend { return c.back }

// viewsFromProgram parses a citation-view program into citation views.
func viewsFromProgram(viewsProgram string) ([]*CitationView, error) {
	prog, err := datalog.ParseProgram(viewsProgram)
	if err != nil {
		return nil, err
	}
	return core.FromProgram(prog)
}

// Engine exposes the underlying citation engine for advanced use.
func (c *Citer) Engine() *core.Engine { return c.engine }

// Reset refreshes the engine's caches after the database was updated.
func (c *Citer) Reset() error { return c.engine.Reset() }

// ResolveStats reports the resolve memo's counters: a hit is a request whose
// query text (under its MaxRewritings) had been parsed, prepared and keyed
// before, a miss one that did that work, an eviction a text dropped for a
// newer one.
func (c *Citer) ResolveStats() cache.Stats { return c.resolves.Stats() }

// Citation is the outcome of citing one query: the answer tuples, the
// per-tuple citations, and the aggregated result-set citation.
type Citation struct {
	res *core.Result
	// format is the request's render format, used by Rendered.
	format string
	// columns, when set, are the asking request's own column labels: a
	// citation served from the cache was computed for an equivalent query
	// whose head variables may be named differently (see forRequest).
	columns []string
	// explain is the per-stage trace report, set only when the request
	// asked for one (Request.Explain).
	explain *Explain
	// wire, set on a citation a CachedCiter keeps, memoizes its response
	// bytes for AppendWire; every forRequest copy shares it.
	wire *wireMemo
}

// Explain returns the request's per-stage trace report, or nil unless the
// request set Request.Explain. The report never changes the citation
// itself: output is byte-identical with Explain on or off.
func (ct *Citation) Explain() *Explain { return ct.explain }

// Columns returns the output column labels.
func (ct *Citation) Columns() []string {
	if ct.columns != nil {
		return ct.columns
	}
	return ct.res.Columns
}

// Rows returns the answer tuples.
func (ct *Citation) Rows() [][]string {
	out := make([][]string, len(ct.res.Tuples))
	for i, tc := range ct.res.Tuples {
		out[i] = append([]string(nil), tc.Tuple...)
	}
	return out
}

// Rewritings lists the rewritings used, rendered in the paper's notation.
func (ct *Citation) Rewritings() []string {
	out := make([]string, len(ct.res.Rewritings))
	for i, r := range ct.res.Rewritings {
		out[i] = r.String()
	}
	return out
}

// TuplePolynomialAt renders the i-th tuple's citation polynomial, e.g.
// CV1("13")·CV2("13") + CV4("gpcr")·CV2("13"). An out-of-range index fails
// with an error tagged ErrRange, so a missing tuple can never be mistaken
// for a tuple with an empty citation.
func (ct *Citation) TuplePolynomialAt(i int) (string, error) {
	if i < 0 || i >= len(ct.res.Tuples) {
		return "", fmt.Errorf("%w: tuple %d of %d", ErrRange, i, len(ct.res.Tuples))
	}
	return ct.res.Tuples[i].CiteTupleString(), nil
}

// TupleCitationJSONAt renders the i-th tuple's citation record as JSON. An
// out-of-range index fails with an error tagged ErrRange, so a missing
// tuple can never be mistaken for a tuple with an empty citation.
func (ct *Citation) TupleCitationJSONAt(i int) (string, error) {
	if i < 0 || i >= len(ct.res.Tuples) {
		return "", fmt.Errorf("%w: tuple %d of %d", ErrRange, i, len(ct.res.Tuples))
	}
	return ct.res.Tuples[i].Rendered.JSON(), nil
}

// CitationJSON renders the aggregated result-set citation as compact JSON.
func (ct *Citation) CitationJSON() string { return ct.res.Citation.JSON() }

// Render renders the aggregated citation in the named format: json,
// json-compact, xml, bibtex or text.
func (ct *Citation) Render(formatName string) (string, error) {
	r, err := format.RendererByName(formatName)
	if err != nil {
		return "", parseError(err)
	}
	return r.Render(ct.res.Citation), nil
}

// Rendered renders the aggregated citation in the originating Request's
// Format (json when the citation did not come from a Request or the
// request left Format empty).
func (ct *Citation) Rendered() (string, error) { return ct.Render(ct.Format()) }

// Format returns the citation's effective render format: the originating
// Request's Format, defaulting to json.
func (ct *Citation) Format() string {
	if ct.format == "" {
		return "json"
	}
	return ct.format
}

// Coverage returns the citation's shard-coverage report, or nil when the
// Citer ran without resilience (or over a single shard). A non-nil report
// with Partial() true accompanies an ErrPartial from Cite: some shards were
// skipped under the request's MinShardCoverage policy and the citation may
// be incomplete.
func (ct *Citation) Coverage() *Coverage { return ct.res.Coverage }

// NumTuples returns the number of answer tuples.
func (ct *Citation) NumTuples() int { return len(ct.res.Tuples) }

// Result exposes the full internal result for advanced consumers.
func (ct *Citation) Result() *core.Result { return ct.res }

// String summarizes the citation for debugging.
func (ct *Citation) String() string {
	return fmt.Sprintf("Citation{%d tuples, %d rewritings}", len(ct.res.Tuples), len(ct.res.Rewritings))
}
