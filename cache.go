package citare

import (
	"context"
	"errors"
	"slices"
	"strconv"
	"sync/atomic"
	"time"

	"citare/internal/cache"
	"citare/internal/obs"
)

// citationCacheSize bounds the citation cache (sharded LRU, entries).
const citationCacheSize = 4096

// CachedCiter wraps a Citer with a citation cache, one of the paper's §4
// directions ("caching and materialization"). Cache keys are the canonical
// form of the normalized, minimized query, so syntactic variants of the same
// query — reordered bodies, renamed variables, redundant atoms — hit the
// same entry. That is safe precisely because citations are plan-independent
// (the paper's note after Example 3.3): equivalent queries have equal
// citations. Requests whose options change the citation or the error
// behavior (MaxRewritings, MaxTuples) key separate entries.
//
// CachedCiter is safe for concurrent use: entries live in a sharded LRU
// whose shards lock independently, and concurrent misses on the same query
// collapse into a single engine call (the engine itself is also safe for
// concurrent use, so distinct queries compute in parallel).
type CachedCiter struct {
	citer   *Citer
	entries *cache.Sharded[*Citation]
	// epoch prefixes cache keys and advances on Invalidate, so a citation
	// computed against the pre-Invalidate engine state can never be served
	// afterwards, even if its computation was in flight across the
	// invalidation.
	epoch atomic.Uint64
	// wire counts what the cached citations' response memos built.
	wire wireStats
}

// NewCached wraps a Citer with a citation cache.
func NewCached(c *Citer) *CachedCiter {
	return &CachedCiter{citer: c, entries: cache.NewSharded[*Citation](16, citationCacheSize)}
}

// Citer returns the underlying (uncached) Citer.
func (c *CachedCiter) Citer() *Citer { return c.citer }

// Cite evaluates one request through the cache: equivalent queries under
// the same output-affecting options share one cached citation, and
// concurrent misses collapse into a single engine call. The context applies
// to the computation on a miss; cancellation surfaces as ErrCanceled and is
// never cached.
func (c *CachedCiter) Cite(ctx context.Context, req Request) (*Citation, error) {
	if req.Explain {
		// Explain is a debugging tool: it wants the real pipeline trace, and
		// a cached Citation carries no trace. Bypass the cache entirely —
		// the citation content is identical either way (Explain parity).
		return c.citer.Cite(ctx, req)
	}
	// Resolved once per text: the cache key is the minimized query's, and a
	// miss cites the same prepared query instead of minimizing again.
	r, key, columns, err := c.key(req)
	if err != nil {
		return nil, err
	}
	if key == "" {
		// Unsatisfiable queries are cheap; skip the cache.
		res, err := c.citer.engine.CitePrepared(ctx, r.p, req.citeOptions())
		if err != nil {
			return nil, classify(err)
		}
		return &Citation{res: res, format: req.renderFormat()}, nil
	}
	compute := func() (*Citation, error) {
		res, err := c.citer.engine.CitePrepared(ctx, r.p, req.citeOptions())
		if err != nil {
			return nil, classify(err)
		}
		ct := &Citation{res: res, format: req.renderFormat()}
		// Degraded citations pair with a *PartialError; returning it as the
		// compute error keeps them out of the cache (GetOrCompute stores
		// nothing on error) while the leader still receives the Citation.
		if res.Coverage != nil && res.Coverage.Partial() {
			return ct, &PartialError{Coverage: res.Coverage}
		}
		ct.wire = &wireMemo{stats: &c.wire}
		return ct, nil
	}
	var ct *Citation
	var hit bool
	for attempt := 0; ; attempt++ {
		ct, hit, err = c.entries.GetOrCompute(key, compute)
		// Concurrent misses share one computation, which runs under the
		// *leader's* context: if the leader's client went away, every waiter
		// inherits its cancellation. A waiter whose own context is still
		// alive must not fail for someone else's disconnect — retry (the
		// retrier usually becomes the new leader); after a few doomed joins,
		// compute directly without the singleflight.
		if err == nil || !errors.Is(err, ErrCanceled) || ctx.Err() != nil {
			break
		}
		if attempt == 2 {
			ct, err = compute()
			break
		}
	}
	// A degraded citation travels as (non-nil Citation, *PartialError) and
	// is never cached — GetOrCompute stores nothing when compute errors, so
	// the next request recomputes against shards that may be back.
	if err != nil && (ct == nil || !errors.Is(err, ErrPartial)) {
		return nil, err
	}
	if hit { // served from the cache, or by a flight another request led
		ct.wire.markHit()
	}
	return ct.forRequest(req, columns), err
}

// key resolves the request and spells its citation-cache key, the one key
// every path of the cache reads and fills under: the cache epoch, the options
// that change the citation or the error behavior (optionsKey), the canonical
// form of the minimized query. key is "" for an unsatisfiable query, which is
// not cached. The epoch is read here, before any citing, so a result computed
// against an older engine state lands under an old-epoch key, invisible to
// readers of the new epoch. The render format and the head's variable names
// (columns) are not part of the key — one selects a renderer, the others label
// an answer equivalent queries share — so whatever the cache returns is
// re-wrapped with the asking request's own (forRequest).
func (c *CachedCiter) key(req Request) (r *resolved, key string, columns []string, err error) {
	if r, _, err = c.citer.resolve(req); err != nil {
		return nil, "", nil, err
	}
	key, columns = c.keyOf(r, req)
	return r, key, columns, nil
}

// keyOf is key for a request already resolved.
func (c *CachedCiter) keyOf(r *resolved, req Request) (key string, columns []string) {
	if key, columns = r.canonical(); key != "" {
		key = optionsKey(c.epoch.Load(), req) + key
	}
	return key, columns
}

// Cached returns the citation the cache holds for the request, as the request
// should see it, and evaluates nothing. It reports false for whatever Cite
// would not answer from the cache either: an Explain request, a text that does
// not resolve, an unsatisfiable query, a key that is absent — never cited,
// cited under other MaxRewritings / MaxTuples / coverage options, degraded and
// so never stored, evicted, or dropped by Invalidate.
//
// It is a lookup like Cite's: a hit refreshes the entry's LRU position and
// counts in Stats' hits, a miss in its misses — with no fill behind it, so
// misses exceed the citations computed by the Cached calls that missed. On a
// hit the trace riding ctx gets the one span a replay has, parse: the time the
// two lookups took. A miss leaves that span to whoever evaluates the request.
func (c *CachedCiter) Cached(ctx context.Context, req Request) (*Citation, bool) {
	if req.Explain {
		return nil, false
	}
	t0 := time.Now()
	_, key, columns, err := c.key(req)
	if err != nil || key == "" {
		return nil, false
	}
	ct, ok := c.entries.Get(key)
	if !ok {
		return nil, false
	}
	tr, cur := obs.FromContext(ctx)
	tr.EndWith(tr.Start(cur, obs.StageParse), time.Since(t0))
	return ct.forRequest(req, columns), true
}

// forRequest returns the citation as the given request should see it. A
// cached citation was computed for whichever equivalent request came first —
// a datalog query and its SQL twin share one entry — so the render format
// and the column labels (the head's variable names) are replaced by the
// asking request's own; everything else is shared.
func (ct *Citation) forRequest(req Request, columns []string) *Citation {
	if ct.format == req.renderFormat() && slices.Equal(ct.Columns(), columns) {
		return ct
	}
	own := *ct
	own.format, own.columns = req.renderFormat(), columns
	return &own
}

// optionsKey prefixes a citation-cache key with the cache epoch and every
// request option that changes the citation or the error behavior. The
// resilience policy knobs are included: a partial-tolerant request must
// never collide with a strict one.
func optionsKey(epoch uint64, req Request) string {
	b := strconv.AppendUint(make([]byte, 0, 48), epoch, 10)
	b = strconv.AppendInt(append(b, "|mr="...), int64(req.MaxRewritings), 10)
	b = strconv.AppendInt(append(b, "|mt="...), int64(req.MaxTuples), 10)
	b = strconv.AppendInt(append(b, "|msc="...), int64(req.MinShardCoverage), 10)
	b = strconv.AppendInt(append(b, "|sa="...), int64(req.ShardAttempts), 10)
	return string(append(b, '|'))
}

// batchMisses classifies a batch against the cache: each request is resolved
// and looked up. A hit's citation or a parse failure's error lands
// in the request's slot of items; the rest come back as the requests still
// to evaluate, with their positions in reqs and their cache keys ("" for an
// unsatisfiable query, which is not cached).
func (c *CachedCiter) batchMisses(reqs []Request) (items []BatchItem, miss []Request, missIdx []int, missKeys []string) {
	items = make([]BatchItem, len(reqs))
	for i, req := range reqs {
		_, key, columns, err := c.key(req)
		if err != nil {
			items[i].Err = err
			continue
		}
		if key != "" {
			if ct, hit := c.entries.Get(key); hit {
				ct.wire.markHit()
				items[i].Citation = ct.forRequest(req, columns)
				continue
			}
		}
		miss = append(miss, req)
		missIdx = append(missIdx, i)
		missKeys = append(missKeys, key)
	}
	return items, miss, missIdx, missKeys
}

// putComputed caches the computed citation of a missed request, unless the
// query is unsatisfiable or the citation degraded: the shards it is missing
// may answer the next request.
func (c *CachedCiter) putComputed(key string, ct *Citation) {
	if key != "" && (ct.Coverage() == nil || !ct.Coverage().Partial()) {
		if ct.wire == nil { // members of one class may share the citation
			ct.wire = &wireMemo{stats: &c.wire}
		}
		c.entries.Put(key, ct)
	}
}

// CiteBatch evaluates a batch through the cache: cached requests are served
// immediately, the remaining distinct queries evaluate through the
// underlying Citer's plan-shared CiteBatch (one compilation and one
// evaluation per equivalence class, concurrent across classes), and their
// results are cached for later requests. Semantics match Citer.CiteBatch:
// all-or-nothing, parse failures abort before any evaluation, and a
// *BatchError names the failing request.
func (c *CachedCiter) CiteBatch(ctx context.Context, reqs []Request) ([]*Citation, error) {
	if len(reqs) == 0 {
		return nil, nil
	}
	items, miss, missIdx, missKeys := c.batchMisses(reqs)
	out := make([]*Citation, len(reqs))
	for i, it := range items {
		if it.Err != nil {
			return nil, &BatchError{Index: i, Err: it.Err}
		}
		out[i] = it.Citation
	}
	if len(miss) == 0 {
		return out, nil
	}
	computed, err := c.citer.CiteBatch(ctx, miss)
	var be *BatchError
	if errors.As(err, &be) {
		// Map the sub-batch index back to the original request slice.
		err = &BatchError{Index: missIdx[be.Index], Err: be.Err}
	}
	if err != nil && (computed == nil || !errors.Is(err, ErrPartial)) {
		return nil, err
	}
	for j, i := range missIdx {
		out[i] = computed[j]
		c.putComputed(missKeys[j], computed[j])
	}
	return out, err
}

// CiteBatchItems evaluates a batch with per-item error isolation through
// the cache: cached requests are served immediately, the remaining distinct
// queries evaluate through the underlying Citer's CiteBatchItems, and the
// successful results are cached for later requests. A failing request yields
// its typed error in its own slot — errors are never cached. See
// Citer.CiteBatchItems.
func (c *CachedCiter) CiteBatchItems(ctx context.Context, reqs []Request) []BatchItem {
	items, miss, missIdx, missKeys := c.batchMisses(reqs)
	if len(miss) == 0 {
		return items
	}
	computed := c.citer.CiteBatchItems(ctx, miss)
	for j, i := range missIdx {
		items[i] = computed[j]
		if computed[j].Err == nil {
			c.putComputed(missKeys[j], computed[j].Citation)
		}
	}
	return items
}

// CiteEach streams per-tuple citations for one request, whose text it
// resolves once. A request whose citation the cache holds (what Cached would
// return) is a replay — Citation.EachTuple: the tuples, order and bytes the
// evaluation would deliver, nothing evaluated or rendered, each distinct
// citation's text forms made once for every stream of the entry. Any other
// request cites the resolved query as Citer.CiteEach would and stores
// nothing: a stream never builds the aggregate a cached citation carries.
func (c *CachedCiter) CiteEach(ctx context.Context, req Request, fn func(Tuple) error) error {
	if fn == nil || req.Explain { // a nil callback is Citer.CiteEach's to reject
		return c.citer.CiteEach(ctx, req, fn)
	}
	r, err := c.citer.resolveTraced(ctx, req)
	if err != nil {
		return err
	}
	if key, columns := c.keyOf(r, req); key != "" {
		if ct, ok := c.entries.Get(key); ok {
			return ct.forRequest(req, columns).EachTuple(fn)
		}
	}
	return c.citer.citeEach(ctx, r, req, fn)
}

// CiteSQL parses and cites a SQL query through the cache.
//
// Deprecated: use Cite with a Request — it adds cancellation, per-request
// options and typed errors.
func (c *CachedCiter) CiteSQL(sql string) (*Citation, error) {
	return c.Cite(context.Background(), Request{SQL: sql})
}

// CiteDatalog parses and cites a datalog query through the cache.
//
// Deprecated: use Cite with a Request — it adds cancellation, per-request
// options and typed errors.
func (c *CachedCiter) CiteDatalog(src string) (*Citation, error) {
	return c.Cite(context.Background(), Request{Datalog: src})
}

// Stats reports cache hits and misses so far (callers that joined an
// in-flight computation count as hits).
func (c *CachedCiter) Stats() (hits, misses int) {
	s := c.entries.Stats()
	return int(s.Hits), int(s.Misses)
}

// CacheStats returns the aggregated hit/miss/evict counters across every
// cache shard.
func (c *CachedCiter) CacheStats() cache.Stats { return c.entries.Stats() }

// CacheShardStats returns each cache shard's counters in shard order.
func (c *CachedCiter) CacheShardStats() []cache.Stats { return c.entries.PerShard() }

// WireStats reports what the cached citations' response memos (see
// Citation.AppendWire) built so far: builds is the number of cached citations
// that were hit and then encoded, bytes the bytes kept for them — the
// answer's part once per citation, the citation string once per render format
// asked for. The count is cumulative, not a gauge: it is not reduced when an
// entry is evicted or purged, so the memos of the live entries retain at most
// this much.
func (c *CachedCiter) WireStats() (builds, bytes uint64) {
	return c.wire.builds.Load(), c.wire.bytes.Load()
}

// Invalidate refreshes the underlying engine and drops all cached
// citations (call after database updates). The engine resets first and the
// epoch advances after, so any citation keyed under the new epoch was
// necessarily computed against the refreshed engine state; stale in-flight
// computations land under the old epoch and are never served again.
func (c *CachedCiter) Invalidate() error {
	if err := c.citer.Reset(); err != nil {
		return err
	}
	c.epoch.Add(1)
	c.entries.Purge()
	return nil
}
