package core

// Fault-tolerance wiring: the engine-level configuration of the attempt
// policy (eval.Resilient) around each partitioned snapshot.
//
// The policy applies to every evaluation of a request — the output query,
// each unfolded rewriting and token rendering — because they all read the
// engine's snapshot, whose shard scans are the seam where faults live. The
// pipeline itself carries no policy: a citation is whole, or the request
// fails with eval.ErrShardUnavailable.

import (
	"context"
	"errors"
	"time"

	"citare/internal/eval"
	"citare/internal/obs"
)

// ResilienceConfig enables and tunes the attempt policy of a sharded
// engine's shard scans. Zero fields pick the eval package's
// defaults; the zero value as a whole is a valid "defaults everywhere"
// configuration. It only affects engines whose store is partitioned over
// more than one shard — elsewhere it is inert.
type ResilienceConfig struct {
	// AttemptTimeout bounds each per-shard scan attempt's wait for the
	// shard's first tuple.
	AttemptTimeout time.Duration
	// MaxAttempts is the per-shard attempt budget (first try included).
	MaxAttempts int
	// BackoffBase and BackoffMax shape the exponential retry backoff.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// BreakerThreshold consecutive failures open a shard's circuit breaker;
	// BreakerCooldown later a half-open probe may close it again. Zero
	// values pick the eval package's defaults.
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// Seed fixes the retry jitter for reproducible chaos runs.
	Seed int64
	// Metrics, when set, receives retry and breaker counters
	// (obs.NewResilienceMetrics).
	Metrics *obs.ResilienceMetrics
}

// SetResilience arms the engine's shard scans with the fault-tolerant
// attempt policy: every snapshot of a multi-shard engine is wrapped in an
// eval.Resilient view — over the fault injector, when one is installed — so
// each shard scan runs with per-shard attempt deadlines, bounded retries,
// and per-shard circuit breakers shared across requests
// and epochs. Pass nil to return to one plain read per shard. It takes
// effect at once: a partitioned engine re-snapshots into a new epoch. Call before
// sharing the engine across goroutines; it is not synchronized with
// in-flight Cite calls.
func (e *Engine) SetResilience(cfg *ResilienceConfig) error {
	e.resil = nil
	if cfg != nil {
		e.resil = &eval.Resilience{
			AttemptTimeout: cfg.AttemptTimeout,
			MaxAttempts:    cfg.MaxAttempts,
			BackoffBase:    cfg.BackoffBase,
			BackoffMax:     cfg.BackoffMax,
			Seed:           cfg.Seed,
			Metrics:        cfg.Metrics,
		}
		if n := e.curState().shards(); n > 0 {
			e.resil.Breakers = eval.NewBreakers(n, cfg.BreakerThreshold, cfg.BreakerCooldown)
		}
	}
	if e.curState().part == nil {
		return nil // nothing to wrap: a source's snapshots are all of one kind
	}
	return e.Reset()
}

// BreakerStates reports each shard's circuit-breaker state, or nil when
// resilience is not configured. Surfaced on citesrv's /stats and /v1/health.
func (e *Engine) BreakerStates() []eval.BreakerInfo {
	if e.resil == nil {
		return nil
	}
	return e.resil.Breakers.States()
}

// SetShardWrapper installs a wrapper applied to every snapshot the engine
// takes that is an eval.Partitioned — the hook the fault injector
// (internal/fault) uses to impose faults at the shard-scan seam. It sits
// under the attempt policy (SetResilience), which therefore retries what it
// injects; other snapshots are left alone. Takes effect at the next Reset.
func (e *Engine) SetShardWrapper(wrap func(eval.Partitioned) eval.Partitioned) {
	e.shardWrap = wrap
}

// transientRenderErr classifies a token-rendering failure as per-request —
// cancellation, deadline, unavailable shards — which must propagate
// un-cached rather than be embedded in the (cached, shared) citation record.
func transientRenderErr(err error) bool {
	return errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, eval.ErrShardUnavailable)
}
