package core

import (
	"context"
	"slices"
	"time"

	"citare/internal/cache"
	"citare/internal/cq"
	"citare/internal/eval"
	"citare/internal/obs"
)

// planCacheSize bounds one target's compiled-plan cache (sharded LRU,
// entries): one entry per query shape.
const planCacheSize = 512

// planCache memoizes compiled physical plans by query *shape*: eval.Compile
// reads of a constant only that it is one, so here every constant is lifted
// (cq.Query.Shape with no literals) and one compiled plan serves the output
// query, a rewriting query or a token's instantiated citation query under
// whatever constants the next request brings — eval.Plan.Bind renames them.
// The cache is scoped to one evalTarget of one engine epoch: the underlying
// snapshot is immutable for the epoch, so a cached plan's resolved relation
// views and join order stay valid until Reset drops the whole state (and
// its plans) atomically.
type planCache = cache.Sharded[shapePlan]

// shapePlan is a compiled plan beside the constants it was compiled with,
// in cq.Query.Shape's order — the source side of the next Bind.
type shapePlan struct {
	plan   *eval.Plan
	params []string
}

// evalTarget couples a database view with an optional per-epoch plan cache.
// The view may be a plain snapshot or a hash-partitioned database — plans
// compiled over an eval.Partitioned view scatter-gather automatically, so
// everything downstream of evaluation is shared and the results are
// deterministic and identical either way.
type evalTarget struct {
	view  eval.DBView
	plans *planCache
	// eng links back to the owning engine for the engine-lifetime
	// physical-plan counters and pipeline metrics.
	eng *Engine
}

// newEvalTarget returns an epoch's target over view with a fresh plan cache,
// so that repeated citations of the same shape skip compilation entirely.
// The engine backref feeds its physical plan-cache counters and (when
// attached) per-stage compile metrics.
func newEvalTarget(view eval.DBView, e *Engine) evalTarget {
	return evalTarget{view: view, plans: cache.NewSharded[shapePlan](4, planCacheSize), eng: e}
}

// physShape is a query's physical-plan identity: its cq.Query.Shape key
// with every constant lifted, and those constants in Shape's order. It is
// spelled once per logical plan, rewriting and citation view, not per
// request.
type physShape struct {
	key    string
	params []string
}

func shapeOf(q *cq.Query) physShape {
	key, params := q.Shape(nil)
	return physShape{key: key, params: params}
}

// boundPlan returns the plan of the query rb makes of q, where sh is q's
// physical shape: the plan compiled for the shape, memoized in the target's
// cache, bound to the request's constants. The request's query is never
// built: its constants are q's renamed by rb. When a trace rides ctx (or
// pipeline metrics are attached) the lookup-or-compile is bracketed in a
// "compile" span annotated with the cache outcome and the compiled join
// order; with both disabled it costs two atomic adds over the untraced path.
func (t evalTarget) boundPlan(ctx context.Context, q *cq.Query, sh physShape, rb cq.Rebind) (*eval.Plan, error) {
	tr, cur := obs.FromContext(ctx)
	m := t.eng.metrics
	if tr == nil && m == nil {
		pl, _, err := t.planLookup(q, sh, rb)
		return pl, err
	}
	t0 := time.Now()
	sp := tr.Start(cur, obs.StageCompile)
	pl, hit, err := t.planLookup(q, sh, rb)
	m.Stage(obs.StageCompile).Observe(time.Since(t0))
	if err != nil {
		tr.End(sp)
		return nil, err
	}
	if tr != nil {
		cached := int64(0)
		if hit {
			cached = 1
		}
		tr.SetInt(sp, "cached", cached)
		tr.SetStr(sp, "plan", pl.Describe())
		tr.End(sp)
	}
	return pl, nil
}

// planLookup is the cache-consulting compile: it reports whether the plan
// was served from the per-epoch cache — bound to the request's constants, the
// stored plan itself when they are the ones it was compiled with — and feeds
// the engine-lifetime physical plan-cache counters: a miss is one
// eval.Compile. Concurrent first lookups of a shape share one compilation.
func (t evalTarget) planLookup(q *cq.Query, sh physShape, rb cq.Rebind) (*eval.Plan, bool, error) {
	sp, hit, err := t.plans.GetOrCompute(sh.key, func() (shapePlan, error) {
		pl, err := eval.Compile(t.view, q)
		return shapePlan{plan: pl, params: sh.params}, err
	})
	if hit {
		t.eng.physHits.Add(1)
	} else {
		t.eng.physMisses.Add(1)
	}
	if err != nil {
		return nil, false, err
	}
	if !slices.Equal(sp.params, sh.params) {
		// Compiled for another query of the physical shape: its constants
		// go to the request's, which are q's renamed.
		to := make([]string, len(sh.params))
		for i, v := range sh.params {
			to[i] = rb.Value(v)
		}
		rb = cq.NewRebind(sp.params, to)
	}
	return sp.plan.Bind(rb), hit, nil
}
