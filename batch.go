package citare

import (
	"context"
	"errors"
	"runtime"
	"strconv"
	"sync"

	"citare/internal/core"
)

// batchGroup is one equivalence class of a batch: requests whose queries
// canonicalize to the same key (and share the output-affecting options)
// evaluate once and share the resulting citation.
type batchGroup struct {
	p       *core.Prepared // the first member's query, resolved
	opts    core.CiteOptions
	indices []int // positions in the original request slice
	// columns holds each member's own head labels, parallel to indices:
	// members are equivalent up to renaming variables, and the shared
	// citation carries the first member's names.
	columns [][]string
}

// batchKey is a resolved request's group: syntactic variants of the same
// query — reordered bodies, renamed variables, redundant atoms — share the
// canonical key, suffixed with the options that can change the citation or
// the error behavior (MaxRewritings, MaxTuples, and the resilience policy
// knobs MinShardCoverage/ShardAttempts). Unsatisfiable queries fall back to
// the raw syntactic key — they are cheap to evaluate and need no sharing.
// The query's own column labels, which the canonical key abstracts from,
// come back with it.
func batchKey(r *resolved, req Request) (string, []string) {
	key, columns := r.canonical()
	if key == "" {
		key = "unsat\x00" + r.q.Key()
	}
	return key + "\x00mr=" + strconv.Itoa(req.MaxRewritings) + "\x00mt=" + strconv.Itoa(req.MaxTuples) +
		"\x00msc=" + strconv.Itoa(req.MinShardCoverage) + "\x00sa=" + strconv.Itoa(req.ShardAttempts), columns
}

// groupBatch resolves every request of a batch and files it under its
// equivalence class, opening the class on first sight; order lists the
// classes in first-member order, whose request supplies the class's
// evaluation options. A request that does not resolve leaves its error
// (already tagged with the taxonomy) in its slot of errs and joins no class.
func (c *Citer) groupBatch(reqs []Request) (order []*batchGroup, errs []error) {
	errs = make([]error, len(reqs))
	groups := make(map[string]*batchGroup, len(reqs))
	for i, req := range reqs {
		r, _, err := c.resolve(req)
		if err != nil {
			errs[i] = err
			continue
		}
		key, columns := batchKey(r, req)
		g := groups[key]
		if g == nil {
			g = &batchGroup{p: r.p, opts: req.citeOptions()}
			groups[key] = g
			order = append(order, g)
		}
		g.indices = append(g.indices, i)
		g.columns = append(g.columns, columns)
	}
	return order, errs
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
	if len(reqs) == 0 {
		return nil, nil
	}
	out := make([]*Citation, len(reqs))

	// Parse failures are cheap and known up front, so they abort the whole
	// batch before any evaluation is spent on it.
	order, errs := c.groupBatch(reqs)
	for i, err := range errs {
		if err != nil {
			return nil, &BatchError{Index: i, Err: err}
		}
	}

	c.evalGroups(ctx, reqs, order, out, errs, true)

	var partial *BatchError
	for i, err := range errs {
		if err != nil {
			// A degraded group is a (qualified) success: every slot is
			// filled, so the batch survives and the first partial is
			// reported alongside the full slice.
			if errors.Is(err, ErrPartial) {
				if partial == nil {
					partial = &BatchError{Index: i, Err: err}
				}
				continue
			}
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
	if partial != nil {
		return out, partial
	}
	return out, nil
}

// evalGroups evaluates distinct batch groups concurrently through the engine
// (which is safe for concurrent Cite) with a worker cap; each group's
// members share the single evaluated citation — each under its own render
// format and column labels — landing in their out slots on success and
// their errs slots (taxonomy-tagged) on failure. With failFast
// set, the first failing group cancels the shared context so sibling groups
// stop instead of finishing work the batch will discard; without it,
// failures stay confined to their own groups and every other group runs to
// completion (external ctx cancellation still stops everything).
func (c *Citer) evalGroups(ctx context.Context, reqs []Request, order []*batchGroup, out []*Citation, errs []error, failFast bool) {
	ctx, cancelBatch := context.WithCancel(ctx)
	defer cancelBatch()
	workers := runtime.GOMAXPROCS(0)
	if workers > len(order) {
		workers = len(order)
	}
	if workers < 1 {
		workers = 1
	}
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for _, g := range order {
		wg.Add(1)
		go func(g *batchGroup) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			res, err := c.engine.CitePrepared(ctx, g.p, g.opts)
			shared := &Citation{res: res, format: reqs[g.indices[0]].renderFormat()}
			for k, i := range g.indices {
				if err != nil {
					errs[i] = classify(err)
					continue
				}
				out[i] = shared.forRequest(reqs[i], g.columns[k])
				// A degraded citation fills both slots: the Citation is
				// usable, the *PartialError carries the Coverage report.
				// Partial success never fail-fasts the batch.
				if res.Coverage != nil && res.Coverage.Partial() {
					errs[i] = &PartialError{Coverage: res.Coverage}
				}
			}
			if err != nil && failFast {
				cancelBatch()
			}
		}(g)
	}
	wg.Wait()
}

// BatchItem is one request's outcome in a per-item batch (CiteBatchItems):
// exactly one of Citation and Err is set — except for a degraded citation,
// where Citation holds the usable partial result and Err is the
// *PartialError carrying its Coverage report.
type BatchItem struct {
	// Citation is the request's citation; nil when the request failed.
	Citation *Citation
	// Err is the request's error, tagged with the package taxonomy
	// (ErrParse, ErrSchema, ErrCanceled, ErrLimit, ErrShardUnavailable,
	// ErrPartial); nil on full success.
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
	items := make([]BatchItem, len(reqs))
	if len(reqs) == 0 {
		return items
	}
	out := make([]*Citation, len(reqs))
	order, errs := c.groupBatch(reqs)
	c.evalGroups(ctx, reqs, order, out, errs, false)
	for i := range reqs {
		items[i] = BatchItem{Citation: out[i], Err: errs[i]}
	}
	return items
}

// firstRealError returns the first batch error that is not a cancellation
// (or a partial-coverage report, which never aborts a batch), wrapped with
// its index — the failure that triggered the batch abort.
func firstRealError(errs []error) *BatchError {
	for i, err := range errs {
		if err != nil && !errors.Is(err, ErrCanceled) && !errors.Is(err, ErrPartial) {
			return &BatchError{Index: i, Err: err}
		}
	}
	return nil
}
