package core

import (
	"context"
	"time"

	"citare/internal/obs"
)

// Pipeline instrumentation.
//
// The engine observes through two channels that share one set of call
// sites: a per-request *obs.Trace carried in the context (populated when
// the caller asked for Explain or the server is feeding its slow-query
// log) and the engine-wide *obs.PipelineMetrics counters/histograms
// attached via SetMetrics. obsCtx bundles both; when neither is present
// every helper short-circuits before touching the clock, so the disabled
// path costs a context lookup and a few nil checks — no allocations, no
// time.Now.

// obsCtx is the per-request observation handle of one cite call.
type obsCtx struct {
	tr   *obs.Trace
	m    *obs.PipelineMetrics
	root obs.SpanID
	t0   time.Time
}

// obsStart opens the root "cite" span (when a trace rides ctx) and starts
// the whole-pipeline clock (when either channel is live). The returned
// context carries the root span so downstream stages nest under it.
func (e *Engine) obsStart(ctx context.Context, mode string) (obsCtx, context.Context) {
	tr, parent := obs.FromContext(ctx)
	o := obsCtx{tr: tr, m: e.metrics, root: obs.NoSpan}
	if tr == nil && o.m == nil {
		return o, ctx
	}
	o.t0 = time.Now()
	if tr != nil {
		o.root = tr.Start(parent, obs.StageCite)
		tr.SetStr(o.root, "mode", mode)
		ctx = obs.NewContext(ctx, tr, o.root)
	}
	return o, ctx
}

// enabled reports whether any observation channel is live.
func (o *obsCtx) enabled() bool { return o.tr != nil || o.m != nil }

// stageTimer brackets one pipeline stage: a child span of the root plus a
// sample for the stage's latency histogram.
type stageTimer struct {
	id   obs.SpanID
	name string
	t0   time.Time
	on   bool
}

// begin opens a stage. A disabled obsCtx returns an inert timer.
func (o *obsCtx) begin(name string) stageTimer {
	if !o.enabled() {
		return stageTimer{id: obs.NoSpan}
	}
	return stageTimer{id: o.tr.Start(o.root, name), name: name, t0: time.Now(), on: true}
}

// end closes the stage span and records its latency histogram sample.
func (o *obsCtx) end(st stageTimer) {
	if st.on {
		o.endWith(st, time.Since(st.t0))
	}
}

// endWith closes the stage at a duration measured by the caller — render,
// whose wall-clock bracket would include a streaming consumer's callbacks.
func (o *obsCtx) endWith(st stageTimer, d time.Duration) {
	if !st.on {
		return
	}
	o.tr.EndWith(st.id, d)
	o.m.Stage(st.name).Observe(d)
}

// ctxFor returns ctx with the stage span as the current span, so nested
// instrumentation (plan compile, strategy choice, per-shard scans) lands
// under the stage in the trace tree.
func (o *obsCtx) ctxFor(ctx context.Context, st stageTimer) context.Context {
	if o.tr == nil {
		return ctx
	}
	return obs.NewContext(ctx, o.tr, st.id)
}

// finish closes the root span and records the whole-cite metrics. err is
// the cite call's outcome; tuples and rewritings describe the result.
func (o *obsCtx) finish(tuples, rewritings int, err error) {
	if !o.enabled() {
		return
	}
	d := time.Since(o.t0)
	if o.tr != nil {
		o.tr.SetInt(o.root, "tuples", int64(tuples))
		o.tr.SetInt(o.root, "rewritings", int64(rewritings))
		if err != nil {
			o.tr.SetStr(o.root, "error", err.Error())
		}
		o.tr.End(o.root)
	}
	if o.m != nil {
		o.m.Cites.Inc()
		o.m.CiteLatency.Observe(d)
		o.m.Tuples.Add(uint64(tuples))
		if err != nil {
			o.m.CiteErrors.Inc()
		}
	}
}
