package citare

import (
	"citare/internal/obs"
)

// Explain is the structured report of one request's trip through the
// citation pipeline, returned alongside the citation when Request.Explain
// is set. Stages is the span forest in start order; for a single request
// it holds one "cite" root whose children are the pipeline stages
// (parse and rewrite through render), each annotated with durations,
// tuple/frame counts, cache outcomes, the evaluation strategy chosen and
// — under scatter-gather — per-shard timings.
//
// The JSON shape is shared with citesrv's slow-query log entries.
type Explain struct {
	Stages []*ExplainStage `json:"stages"`
}

// ExplainStage is one span of an Explain report.
type ExplainStage struct {
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
	// and "strategy" when it was evaluated; on a "shard"
	// span the "shard" it read, the "error" that failed it, and under the
	// attempt policy (WithResilience) its "attempts".
	Attrs map[string]any `json:"attrs,omitempty"`
	// Children are the nested spans.
	Children []*ExplainStage `json:"children,omitempty"`
}

// Stage returns the first stage with the given name in depth-first order,
// or nil.
func (e *Explain) Stage(name string) *ExplainStage {
	if e == nil {
		return nil
	}
	var dfs func(ns []*ExplainStage) *ExplainStage
	dfs = func(ns []*ExplainStage) *ExplainStage {
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
	return dfs(e.Stages)
}

// StageTotalsNs sums span durations by name across the whole report —
// the aggregate view streaming clients receive in the NDJSON trailer.
func (e *Explain) StageTotalsNs() map[string]int64 {
	if e == nil {
		return nil
	}
	totals := make(map[string]int64)
	var walk func(ns []*ExplainStage)
	walk = func(ns []*ExplainStage) {
		for _, n := range ns {
			totals[n.Name] += n.DurationNs
			walk(n.Children)
		}
	}
	walk(e.Stages)
	return totals
}

// explainFromReport mirrors an internal trace report into the public
// Explain shape.
func explainFromReport(r *obs.Report) *Explain {
	if r == nil {
		return nil
	}
	var conv func(ns []*obs.ReportSpan) []*ExplainStage
	conv = func(ns []*obs.ReportSpan) []*ExplainStage {
		if len(ns) == 0 {
			return nil
		}
		out := make([]*ExplainStage, len(ns))
		for i, n := range ns {
			out[i] = &ExplainStage{
				Name:       n.Name,
				DurationNs: n.DurationNs,
				Attrs:      n.Attrs,
				Children:   conv(n.Children),
			}
		}
		return out
	}
	return &Explain{Stages: conv(r.Stages)}
}
