package citare

import (
	"context"
	"errors"
	"slices"
	"strconv"
	"sync/atomic"

	"citare/internal/cache"
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
// behavior (MaxRewritings, MaxTuples) key separate entries. The cache is a
// lookup in front of the Citer's one implementation of each entry point and a
// store behind it: it keeps no batch, key or stream logic of its own.
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
	r, _, err := c.citer.resolve(req)
	if err != nil {
		return nil, err
	}
	key, columns, cacheable := citationKey(c.epoch.Load(), r, req)
	if !cacheable {
		return c.citer.cite(ctx, r.p, req)
	}
	// A degraded citation comes back as the compute error, a *PartialError,
	// beside the Citation: GetOrCompute stores nothing on error, so the next
	// request recomputes against shards that may be back.
	compute := func() (*Citation, error) {
		ct, err := c.citer.cite(ctx, r.p, req)
		if err == nil {
			ct.wire = &wireMemo{stats: &c.wire}
		}
		return ct, err
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
	if ct == nil {
		return nil, err
	}
	if hit { // served from the cache, or by a flight another request led
		ct.wire.markHit()
	}
	return ct.forRequest(req, columns), err
}

// lookup returns the citation the cache holds for a resolved request, as the
// request should see it, or nil for whatever Cite would not answer from the
// cache either: an Explain request, an unsatisfiable query, a key that is
// absent — never cited, cited under other MaxRewritings / MaxTuples /
// coverage options, degraded and so never stored, evicted, or dropped by
// Invalidate. A lookup counts in CacheStats' hits or misses. On a nil
// CachedCiter — a Citer without a cache — it finds nothing.
func (c *CachedCiter) lookup(r *resolved, req Request) *Citation {
	if c == nil || req.Explain {
		return nil
	}
	key, columns, cacheable := citationKey(c.epoch.Load(), r, req)
	if !cacheable {
		return nil
	}
	return c.get(key, req, columns)
}

// get is lookup under a key already spelled.
func (c *CachedCiter) get(key string, req Request, columns []string) *Citation {
	ct, ok := c.entries.Get(key)
	if !ok {
		return nil
	}
	return ct.forRequest(req, columns)
}

// put stores the citation a class of equivalent requests evaluated to,
// under the class's key, with the response memo its later hits share.
func (c *CachedCiter) put(key string, ct *Citation) {
	ct.wire = &wireMemo{stats: &c.wire}
	c.entries.Put(key, ct)
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

// citationKey spells what decides a resolved request's citation — the one key
// the citation cache and batch grouping both read: the cache epoch, every
// request option that changes the citation or the error behavior
// (MaxRewritings, MaxTuples, and the resilience knobs MinShardCoverage /
// ShardAttempts: a partial-tolerant request must never collide with a strict
// one), and the canonical form of the minimized query, which syntactic
// variants — reordered bodies, renamed variables, redundant atoms — share.
// That is safe because citations are plan-independent (the paper's note after
// Example 3.3). The render format and the head's variable names (columns) are
// not part of it: one selects a renderer, the others label an answer
// equivalent queries share, so whatever the key finds is re-wrapped with the
// asking request's own (forRequest). An unsatisfiable query has no canonical
// form; it is keyed by its syntax and is not cacheable — it is cheap to
// evaluate and needs no sharing.
func citationKey(epoch uint64, r *resolved, req Request) (key string, columns []string, cacheable bool) {
	canon, columns := r.canonical()
	var buf [128]byte
	b := strconv.AppendUint(buf[:0], epoch, 10)
	b = strconv.AppendInt(append(b, "|mr="...), int64(req.MaxRewritings), 10)
	b = strconv.AppendInt(append(b, "|mt="...), int64(req.MaxTuples), 10)
	b = strconv.AppendInt(append(b, "|msc="...), int64(req.MinShardCoverage), 10)
	b = strconv.AppendInt(append(b, "|sa="...), int64(req.ShardAttempts), 10)
	if canon == "" {
		return string(append(append(b, "|unsat|"...), r.q.Key()...)), columns, false
	}
	return string(append(append(b, '|'), canon...)), columns, true
}

// CiteBatch evaluates a batch through the cache: it is Citer.CiteBatch with
// the cache in front — a request the cache holds is served from it and joins
// no equivalence class — and behind, where each class that evaluated to a
// full citation is stored once. Degraded citations and unsatisfiable queries
// are never stored.
func (c *CachedCiter) CiteBatch(ctx context.Context, reqs []Request) ([]*Citation, error) {
	return c.citer.citeBatch(ctx, reqs, c)
}

// CiteBatchItems is Citer.CiteBatchItems with the cache in front and behind,
// as in CiteBatch: errors are never cached.
func (c *CachedCiter) CiteBatchItems(ctx context.Context, reqs []Request) []BatchItem {
	return c.citer.citeBatchItems(ctx, reqs, c)
}

// CiteEach streams per-tuple citations for one request, whose text it
// resolves once. A request whose citation the cache holds is a replay —
// Citation.EachTuple: the tuples, order and bytes the evaluation would
// deliver, nothing evaluated or rendered, each distinct citation's text forms
// made once for every stream of the entry. Any other request cites the
// resolved query as Citer.CiteEach would and stores nothing: a stream never
// builds the aggregate a cached citation carries.
func (c *CachedCiter) CiteEach(ctx context.Context, req Request, fn func(Tuple) error) error {
	_, err := c.citer.stream(ctx, req, fn, c, nil)
	return err
}

// Stream is CiteEach for a caller that writes a replay differently from an
// evaluation: replay, when non-nil, is called before the first tuple of a
// stream the cache answers, and replayed reports whether it did. The
// stream's lookup counts in CacheStats like Cite's; on a replay the trace
// riding ctx gets the one span a replay has, parse: the time the text's and
// the citation's lookups took.
func (c *CachedCiter) Stream(ctx context.Context, req Request, fn func(Tuple) error, replay func()) (replayed bool, err error) {
	return c.citer.stream(ctx, req, fn, c, replay)
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
