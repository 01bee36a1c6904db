package obs

// PipelineMetrics bundles the engine-side metrics for the citation
// pipeline. A nil *PipelineMetrics is the disabled state: every method is
// nil-safe and the engine skips all timing when no metrics are attached
// and no trace is in the request context.
type PipelineMetrics struct {
	// Cites counts completed cite evaluations (materialized or streamed);
	// CiteErrors the subset that returned an error.
	Cites      *Counter
	CiteErrors *Counter
	// Tuples counts output tuples produced across all cites.
	Tuples *Counter
	// CiteLatency observes whole-pipeline latency per cite.
	CiteLatency *Histogram

	stage map[string]*Histogram
}

// PipelineStages lists the stages that get a per-stage latency histogram,
// in pipeline order.
var PipelineStages = []string{
	StageRewrite, StageCompile, StageEval, StageGather, StageRender,
}

// NewPipelineMetrics registers the citare_* pipeline metrics on r and
// returns the bundle to attach to an engine via Engine.SetMetrics.
func NewPipelineMetrics(r *Registry) *PipelineMetrics {
	m := &PipelineMetrics{
		Cites:      r.Counter("citare_cites_total", "Completed cite evaluations."),
		CiteErrors: r.Counter("citare_cite_errors_total", "Cite evaluations that returned an error."),
		Tuples:     r.Counter("citare_tuples_total", "Output tuples produced across all cites."),
		CiteLatency: r.Histogram("citare_cite_duration_seconds",
			"End-to-end cite latency.", DefLatencyBuckets),
		stage: make(map[string]*Histogram, len(PipelineStages)),
	}
	for _, s := range PipelineStages {
		m.stage[s] = r.Histogram("citare_stage_duration_seconds",
			"Per-stage cite pipeline latency.", DefLatencyBuckets, Label{Key: "stage", Value: s})
	}
	return m
}

// Stage returns the latency histogram for a pipeline stage, or nil when
// metrics are disabled or the stage has no histogram (both safe to
// Observe on).
func (m *PipelineMetrics) Stage(name string) *Histogram {
	if m == nil {
		return nil
	}
	return m.stage[name]
}
