package core

import (
	"context"
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
	plans *planCache // nil: compile per call (one-shot targets)
	// eng links back to the owning engine for the engine-lifetime
	// physical-plan counters and pipeline metrics; nil for one-shot
	// targets, which report nothing.
	eng *Engine
}

// cached returns the target with a fresh plan cache attached — used for the
// engine's epoch-scoped targets, where repeated citations of the same query
// skip compilation entirely. The engine backref feeds its physical
// plan-cache counters and (when attached) per-stage compile metrics.
func (t evalTarget) cached(e *Engine) evalTarget {
	t.plans = cache.NewSharded[shapePlan](4, planCacheSize)
	t.eng = e
	return t
}

// plan returns the compiled plan for q, memoized when the target carries a
// cache. When a trace rides ctx (or pipeline metrics are attached) the
// lookup-or-compile is bracketed in a "compile" span annotated with the
// cache outcome and the compiled join order; with both disabled it costs
// two atomic adds over the untraced path.
func (t evalTarget) plan(ctx context.Context, q *cq.Query) (*eval.Plan, error) {
	if t.plans == nil {
		return eval.Compile(t.view, q)
	}
	tr, cur := obs.FromContext(ctx)
	var m *obs.PipelineMetrics
	if t.eng != nil {
		m = t.eng.metrics
	}
	if tr == nil && m == nil {
		pl, _, err := t.planLookup(q)
		return pl, err
	}
	t0 := time.Now()
	sp := tr.Start(cur, obs.StageCompile)
	pl, hit, err := t.planLookup(q)
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
// was served from the per-epoch cache — bound to q's constants, the stored
// plan itself when they are the ones it was compiled with — and feeds the
// engine-lifetime physical plan-cache counters: a miss is one eval.Compile.
// Concurrent first lookups of a shape share one compilation.
func (t evalTarget) planLookup(q *cq.Query) (*eval.Plan, bool, error) {
	key, params := q.Shape(nil)
	sp, hit, err := t.plans.GetOrCompute(key, func() (shapePlan, error) {
		pl, err := eval.Compile(t.view, q)
		return shapePlan{plan: pl, params: params}, err
	})
	if t.eng != nil {
		if hit {
			t.eng.physHits.Add(1)
		} else {
			t.eng.physMisses.Add(1)
		}
	}
	if err != nil {
		return nil, false, err
	}
	return sp.plan.Bind(cq.NewRebind(sp.params, params)), hit, nil
}
