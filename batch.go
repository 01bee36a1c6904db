package citare

import (
	"context"
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
// equivalence class (citationKey), opening the class on first sight — an
// unsatisfiable request, which has no key, opens one of its own; order
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
		p, _, err := c.resolve(req)
		if err != nil {
			errs[i] = err
			continue
		}
		key, columns, cacheable := citationKey(epoch, p, req)
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
			g = &batchGroup{p: p, req: req, key: key, cached: cached}
			if cacheable { // an unsatisfiable query has no key: a class of its own
				groups[key] = g
			}
			order = append(order, g)
		}
		g.indices = append(g.indices, i)
		g.columns = append(g.columns, columns)
	}
	return order, out, errs
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

// CiteBatchItems evaluates a batch of requests, amortizing work across them:
// requests are grouped by the canonical form of their query, each group's
// logical plan compiles exactly once and its citation evaluates exactly once
// (the group members share the resulting *Citation), distinct groups
// evaluate concurrently, and all of them read one engine epoch through its
// shared plan and token caches. Errors are per item: a failing request —
// malformed text, schema mismatch, a per-request bound exceeded — yields its
// typed error in its own slot while every other request still evaluates, and
// every successful slot is identical to an independent Cite call. The
// returned slice always has len(reqs) entries, aligned with the requests.
// Canceling ctx stops all remaining evaluation; unfinished requests report
// ErrCanceled in their slots.
func (c *Citer) CiteBatchItems(ctx context.Context, reqs []Request) []BatchItem {
	return c.citeBatchItems(ctx, reqs, nil)
}

// citeBatchItems is CiteBatchItems' one body, through the cache cc when
// non-nil. Distinct groups evaluate concurrently through the engine (which
// is safe for concurrent Cite) with a worker cap; each group's members share
// the single evaluated citation — each under its own render format and
// column labels — and a cacheable group that evaluated is stored once.
func (c *Citer) citeBatchItems(ctx context.Context, reqs []Request, cc *CachedCiter) []BatchItem {
	items := make([]BatchItem, len(reqs))
	if len(reqs) == 0 {
		return items
	}
	order, out, errs := c.groupBatch(reqs, cc)
	sem := make(chan struct{}, max(min(runtime.GOMAXPROCS(0), len(order)), 1))
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
		}(g)
	}
	wg.Wait()
	for i := range reqs {
		items[i] = BatchItem{Citation: out[i], Err: errs[i]}
	}
	return items
}
