package obs

import (
	"context"
	"sync"
	"time"
)

// Stage names used by the citation pipeline. Instrumented code and
// consumers (Explain reports, the NDJSON stream trailer) agree on these
// strings.
const (
	StageCite    = "cite"
	StageParse   = "parse"
	StageRewrite = "rewrite"
	StageCompile = "compile"
	StageEval    = "eval"
	StageGather  = "gather"
	StageRender  = "render"
)

// StageViews named the stage that materialized citation views. Nothing runs
// in it any more — rewritings are unfolded and evaluated inside the gather
// stage — so no span or histogram carries the name; the constant stays
// because the benchmark (bench/layers.go) compiles against it and reports
// core.stage_views_us, which therefore reads 0.
const StageViews = "views"

// SpanID identifies one span within its Trace. NoSpan is the absent span;
// every Trace method accepts it and no-ops.
type SpanID int32

// NoSpan is the zero-cost "no current span" sentinel.
const NoSpan SpanID = -1

// Attr is one key/value annotation on a span: either a string or an int64.
type Attr struct {
	Key string
	Str string
	Int int64
	// IsStr selects which of Str/Int holds the value.
	IsStr bool
}

type span struct {
	name   string
	parent SpanID
	start  time.Time
	dur    time.Duration
	attrs  []Attr
}

// Trace records a tree of timed spans for one request. All methods are
// safe for concurrent use (parallel shard evaluations record into the
// same trace) and safe on a nil receiver, which is the disabled state:
// instrumented code calls tr.Start/End/Set* unconditionally and pays only
// a nil check when tracing is off.
type Trace struct {
	mu    sync.Mutex
	spans []span
}

// NewTrace returns an empty trace ready to record spans.
func NewTrace() *Trace {
	return &Trace{spans: make([]span, 0, 16)}
}

// Start opens a span under parent (NoSpan for a root) and returns its ID.
func (t *Trace) Start(parent SpanID, name string) SpanID {
	if t == nil {
		return NoSpan
	}
	now := time.Now()
	t.mu.Lock()
	id := SpanID(len(t.spans))
	t.spans = append(t.spans, span{name: name, parent: parent, start: now})
	t.mu.Unlock()
	return id
}

// End closes the span at the time elapsed since its Start. Ending twice
// keeps the first duration.
func (t *Trace) End(id SpanID) {
	if t == nil || id < 0 {
		return
	}
	now := time.Now()
	t.mu.Lock()
	if int(id) < len(t.spans) && t.spans[id].dur == 0 {
		t.spans[id].dur = now.Sub(t.spans[id].start)
	}
	t.mu.Unlock()
}

// EndWith closes the span at a duration the caller measured. Used where the
// instrumented work is interleaved with consumer callbacks (streaming
// render) and the wall-clock bracket End takes would overcount; spans opened
// under it meanwhile still nest. Ending twice keeps the first duration.
func (t *Trace) EndWith(id SpanID, d time.Duration) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	if int(id) < len(t.spans) && t.spans[id].dur == 0 {
		t.spans[id].dur = d
	}
	t.mu.Unlock()
}

// SetStr sets a string attribute on the span, replacing any prior value.
func (t *Trace) SetStr(id SpanID, key, v string) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	t.set(id, Attr{Key: key, Str: v, IsStr: true}, false)
	t.mu.Unlock()
}

// SetInt sets an integer attribute on the span, replacing any prior value.
func (t *Trace) SetInt(id SpanID, key string, v int64) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	t.set(id, Attr{Key: key, Int: v}, false)
	t.mu.Unlock()
}

// AddInt accumulates into an integer attribute on the span (creating it
// at v if absent). Used for per-span counters like token-cache hits.
func (t *Trace) AddInt(id SpanID, key string, v int64) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	t.set(id, Attr{Key: key, Int: v}, true)
	t.mu.Unlock()
}

// set must be called with t.mu held.
func (t *Trace) set(id SpanID, a Attr, add bool) {
	if int(id) >= len(t.spans) {
		return
	}
	sp := &t.spans[id]
	for i := range sp.attrs {
		if sp.attrs[i].Key == a.Key {
			if add && !a.IsStr {
				sp.attrs[i].Int += a.Int
				sp.attrs[i].IsStr = false
			} else {
				sp.attrs[i] = a
			}
			return
		}
	}
	sp.attrs = append(sp.attrs, a)
}

// Len returns the number of spans recorded so far.
func (t *Trace) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// ReportSpan is one node of a rendered trace tree: the facade's
// ExplainStage, and a span of a citesrv slow-query log entry.
type ReportSpan struct {
	// Name is the stage or span name: "cite", "parse", "rewrite",
	// "compile", "eval", "gather", "render", or a sub-span like
	// "rewriting" (one per rewriting, under "gather") or "shard".
	Name string `json:"name"`
	// DurationNs is the span's wall-clock duration in nanoseconds.
	DurationNs int64 `json:"duration_ns"`
	// Attrs holds the span's annotations: string or int64 values such as
	// "strategy", "workers", "frames", "tuples", "cached", "plan" (the
	// compiled join order), "shard"; on "render" the token cache's
	// "token_cache_hits" and "token_cache_misses", and over a persistent
	// store "token_cache_revalidated" (hits brought forward from an older
	// snapshot) and "token_delta_rows" (rows the delta rule added); on a
	// "gather" the rewritings "read_off" the output evaluation's frames
	// (their expansion is the query renamed) and those "evaluated" through
	// an enumeration of their own; on a "rewriting" span "atoms" (of its
	// expansion), "frames" and "deduped" (frames that repeated a binding),
	// and "strategy" when it was evaluated; on a "shard" span the "shard" it
	// read, the "error" that failed it, and under the attempt policy its
	// "attempts".
	Attrs    map[string]any `json:"attrs,omitempty"`
	Children []*ReportSpan  `json:"children,omitempty"`
}

// Report is a rendered trace: the forest of root spans in start order. It is
// the facade's Explain report and the trace of a citesrv slow-query log
// entry.
type Report struct {
	Stages []*ReportSpan `json:"stages"`
}

// Report renders the trace into a tree. Safe to call while other
// goroutines are still recording (it snapshots under the lock), and safe
// on nil (returns nil).
func (t *Trace) Report() *Report {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	spans := make([]span, len(t.spans))
	copy(spans, t.spans)
	t.mu.Unlock()

	nodes := make([]*ReportSpan, len(spans))
	for i, sp := range spans {
		n := &ReportSpan{Name: sp.name, DurationNs: int64(sp.dur)}
		if len(sp.attrs) > 0 {
			n.Attrs = make(map[string]any, len(sp.attrs))
			for _, a := range sp.attrs {
				if a.IsStr {
					n.Attrs[a.Key] = a.Str
				} else {
					n.Attrs[a.Key] = a.Int
				}
			}
		}
		nodes[i] = n
	}
	rep := &Report{}
	for i, sp := range spans {
		if sp.parent >= 0 && int(sp.parent) < len(nodes) {
			p := nodes[sp.parent]
			p.Children = append(p.Children, nodes[i])
		} else {
			rep.Stages = append(rep.Stages, nodes[i])
		}
	}
	return rep
}

// StageTotalsNs sums span durations by name across the whole tree.
// Streaming clients use this for the trailer's per-stage timing totals.
func (r *Report) StageTotalsNs() map[string]int64 {
	if r == nil {
		return nil
	}
	totals := make(map[string]int64)
	var walk func(ns []*ReportSpan)
	walk = func(ns []*ReportSpan) {
		for _, n := range ns {
			totals[n.Name] += n.DurationNs
			walk(n.Children)
		}
	}
	walk(r.Stages)
	return totals
}

// Find returns the first span with the given name in depth-first order,
// or nil.
func (r *Report) Find(name string) *ReportSpan {
	if r == nil {
		return nil
	}
	var dfs func(ns []*ReportSpan) *ReportSpan
	dfs = func(ns []*ReportSpan) *ReportSpan {
		for _, n := range ns {
			if n.Name == name {
				return n
			}
			if m := dfs(n.Children); m != nil {
				return m
			}
		}
		return nil
	}
	return dfs(r.Stages)
}

type ctxKey struct{}

type ctxVal struct {
	tr *Trace
	sp SpanID
}

// NewContext returns ctx carrying the trace with sp as the current span.
// Instrumented code creates children under the current span, so nesting
// falls out of context propagation.
func NewContext(ctx context.Context, tr *Trace, sp SpanID) context.Context {
	return context.WithValue(ctx, ctxKey{}, ctxVal{tr: tr, sp: sp})
}

// FromContext extracts the trace and current span from ctx, or
// (nil, NoSpan) when tracing is disabled. The lookup does not allocate.
func FromContext(ctx context.Context) (*Trace, SpanID) {
	if v, ok := ctx.Value(ctxKey{}).(ctxVal); ok {
		return v.tr, v.sp
	}
	return nil, NoSpan
}
