package citare

import (
	"context"
	"errors"
	"runtime"
	"sync"

	"citare/internal/core"
)

// batchGroup is one equivalence class of a batch: requests whose queries
// canonicalize to the same key (and share the output-affecting options)
// evaluate once and share the resulting citation.
type batchGroup struct {
	p   *core.Prepared // the first member's query, resolved
	req Request        // the first member, whose options evaluate the class
	// key is the class's citationKey; cached says that the batch's cache
	// stores the class's citation under it.
	key     string
	cached  bool
	indices []int // positions in the original request slice
	// columns holds each member's own head labels, parallel to indices:
	// members are equivalent up to renaming variables, and the shared
	// citation carries the first member's names.
	columns [][]string
}

// groupBatch resolves every request of a batch and files it under its
// equivalence class (citationKey), opening the class on first sight; order
// lists the classes in first-member order. A request that does not resolve
// leaves its error (already tagged with the taxonomy) in its slot of errs and
// joins no class. Through a cache (cc non-nil) a request the cache holds fills
// its slot of out and joins no class either; every cacheable request is one
// lookup, hit or miss, as it would be on its own.
func (c *Citer) groupBatch(reqs []Request, cc *CachedCiter) (order []*batchGroup, out []*Citation, errs []error) {
	out, errs = make([]*Citation, len(reqs)), make([]error, len(reqs))
	// The epoch is read once, before any evaluation, so a result computed
	// across an Invalidate lands under the old epoch.
	epoch := uint64(0)
	if cc != nil {
		epoch = cc.epoch.Load()
	}
	groups := make(map[string]*batchGroup, len(reqs))
	for i, req := range reqs {
		r, _, err := c.resolve(req)
		if err != nil {
			errs[i] = err
			continue
		}
		key, columns, cacheable := citationKey(epoch, r, req)
		cached := cc != nil && cacheable
		if cached {
			if ct := cc.get(key, req, columns); ct != nil {
				ct.wire.markHit()
				out[i] = ct
				continue
			}
		}
		g := groups[key]
		if g == nil {
			g = &batchGroup{p: r.p, req: req, key: key, cached: cached}
			groups[key] = g
			order = append(order, g)
		}
		g.indices = append(g.indices, i)
		g.columns = append(g.columns, columns)
	}
	return order, out, errs
}

// CiteBatch evaluates a batch of requests, amortizing work across them:
// requests are grouped by the canonical form of their query, each group's
// logical plan compiles exactly once and its citation evaluates exactly
// once (the group members share the resulting *Citation), distinct groups
// evaluate concurrently, and all of them read one engine epoch through its
// shared plan and token caches. The output is identical to len(reqs)
// independent Cite calls.
//
// The batch is all-or-nothing: a request that fails to parse aborts the
// batch before any evaluation starts (a *BatchError names the first such
// request); otherwise the first failing request in batch order aborts it,
// and the remaining groups are canceled rather than evaluated to
// completion. Canceling ctx aborts every in-flight group with ErrCanceled.
func (c *Citer) CiteBatch(ctx context.Context, reqs []Request) ([]*Citation, error) {
	return c.citeBatch(ctx, reqs, nil)
}

// citeBatch is CiteBatch's one body, through the cache cc when non-nil.
func (c *Citer) citeBatch(ctx context.Context, reqs []Request, cc *CachedCiter) ([]*Citation, error) {
	if len(reqs) == 0 {
		return nil, nil
	}
	// Parse failures are cheap and known up front, so they abort the whole
	// batch before any evaluation is spent on it.
	order, out, errs := c.groupBatch(reqs, cc)
	for i, err := range errs {
		if err != nil {
			return nil, &BatchError{Index: i, Err: err}
		}
	}

	c.evalGroups(ctx, reqs, order, out, errs, true, cc)

	for i, err := range errs {
		if err != nil {
			// Siblings canceled by the batch's own abort are collateral: the
			// earliest non-cancellation failure is the one to report, when
			// there is one.
			if errors.Is(err, ErrCanceled) {
				if first := firstRealError(errs); first != nil {
					return nil, first
				}
			}
			return nil, &BatchError{Index: i, Err: err}
		}
	}
	return out, nil
}

// evalGroups evaluates distinct batch groups concurrently through the engine
// (which is safe for concurrent Cite) with a worker cap; each group's
// members share the single evaluated citation — each under its own render
// format and column labels — landing in their out slots on success and
// their errs slots (taxonomy-tagged) on failure. Through a cache (cc
// non-nil) a cacheable group that evaluated is stored once. With failFast set, the first failing group cancels the shared
// context so sibling groups stop instead of finishing work the batch will
// discard; without it, failures stay confined to their own groups and every
// other group runs to completion (external ctx cancellation still stops
// everything).
func (c *Citer) evalGroups(ctx context.Context, reqs []Request, order []*batchGroup, out []*Citation, errs []error, failFast bool, cc *CachedCiter) {
	ctx, cancelBatch := context.WithCancel(ctx)
	defer cancelBatch()
	workers := min(runtime.GOMAXPROCS(0), len(order))
	sem := make(chan struct{}, max(workers, 1))
	var wg sync.WaitGroup
	for _, g := range order {
		wg.Add(1)
		go func(g *batchGroup) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			shared, err := c.cite(ctx, g.p, g.req)
			if err == nil && g.cached {
				cc.put(g.key, shared)
			}
			for k, i := range g.indices {
				if errs[i] = err; shared != nil {
					out[i] = shared.forRequest(reqs[i], g.columns[k])
				}
			}
			if shared == nil && failFast {
				cancelBatch()
			}
		}(g)
	}
	wg.Wait()
}

// BatchItem is one request's outcome in a per-item batch (CiteBatchItems):
// exactly one of Citation and Err is set.
type BatchItem struct {
	// Citation is the request's citation; nil when the request failed.
	Citation *Citation
	// Err is the request's error, tagged with the package taxonomy
	// (ErrParse, ErrSchema, ErrCanceled, ErrLimit, ErrShardUnavailable);
	// nil on success.
	Err error
}

// CiteBatchItems evaluates a batch of requests with per-item error
// isolation: a failing request — malformed text, schema mismatch, a
// per-request bound exceeded — yields its typed error in its own slot while
// every other request still evaluates, so one bad request in a batch of a
// hundred no longer costs the other ninety-nine. The returned slice always
// has len(reqs) entries, aligned with the requests.
//
// Work is amortized exactly as in CiteBatch: requests sharing a canonical
// query evaluate once, distinct groups run concurrently, and the epoch's
// plan and token caches are shared across the batch. Canceling ctx stops all
// remaining evaluation; unfinished requests report ErrCanceled in their
// slots. Use CiteBatch for the all-or-nothing contract.
func (c *Citer) CiteBatchItems(ctx context.Context, reqs []Request) []BatchItem {
	return c.citeBatchItems(ctx, reqs, nil)
}

// citeBatchItems is CiteBatchItems' one body, through the cache cc when
// non-nil.
func (c *Citer) citeBatchItems(ctx context.Context, reqs []Request, cc *CachedCiter) []BatchItem {
	items := make([]BatchItem, len(reqs))
	if len(reqs) == 0 {
		return items
	}
	order, out, errs := c.groupBatch(reqs, cc)
	c.evalGroups(ctx, reqs, order, out, errs, false, cc)
	for i := range reqs {
		items[i] = BatchItem{Citation: out[i], Err: errs[i]}
	}
	return items
}

// firstRealError returns the first batch error that is not a cancellation,
// wrapped with its index — the failure that triggered the batch abort.
func firstRealError(errs []error) *BatchError {
	for i, err := range errs {
		if err != nil && !errors.Is(err, ErrCanceled) {
			return &BatchError{Index: i, Err: err}
		}
	}
	return nil
}
