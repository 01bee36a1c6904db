package obs

// ResilienceMetrics bundles the counters of the shard-scan attempt policy
// (eval.Resilient). Each counter is nil-safe like every registry metric, so
// a zero ResilienceMetrics counts nothing.
type ResilienceMetrics struct {
	// Retries counts re-attempts after a transient per-shard failure.
	Retries *Counter
	// BreakerOpens counts closed→open (and half-open→open) transitions.
	BreakerOpens *Counter
	// BreakerRejects counts attempts rejected by an open breaker.
	BreakerRejects *Counter
	// ShardErrors counts failed per-shard attempts (pre-retry).
	ShardErrors *Counter
	// UnavailableEvals counts shard scans given up after every attempt; each
	// fails its enumeration with ErrShardUnavailable.
	UnavailableEvals *Counter
}

// NewResilienceMetrics registers the citare_resilience_* metrics on r and
// returns the bundle to attach via core.Engine.SetResilience.
func NewResilienceMetrics(r *Registry) *ResilienceMetrics {
	return &ResilienceMetrics{
		Retries:          r.Counter("citare_resilience_retries_total", "Per-shard attempt retries after transient failures."),
		BreakerOpens:     r.Counter("citare_resilience_breaker_opens_total", "Circuit breaker open transitions."),
		BreakerRejects:   r.Counter("citare_resilience_breaker_rejects_total", "Shard attempts rejected by an open breaker."),
		ShardErrors:      r.Counter("citare_resilience_shard_errors_total", "Failed per-shard scan attempts."),
		UnavailableEvals: r.Counter("citare_resilience_unavailable_evals_total", "Evaluations failed with unavailable shards."),
	}
}
