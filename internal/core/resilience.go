package core

// Fault-tolerance wiring: the engine-level configuration of the resilient
// scatter-gather driver (internal/eval), per-request coverage accounting,
// and the graceful-degradation plumbing the cite pipelines share.
//
// Resilience applies to every evaluation of a request — the output query,
// each unfolded rewriting and token rendering — because they all read the
// engine's snapshot, the shard-backend seam where faults live.

import (
	"context"
	"errors"
	"time"

	"citare/internal/eval"
	"citare/internal/format"
	"citare/internal/obs"
	"citare/internal/provenance"
)

// ResilienceConfig enables and tunes the fault-tolerant scatter-gather
// driver for a sharded engine. Zero fields pick the eval package's
// defaults; the zero value as a whole is a valid "defaults everywhere"
// configuration. It only affects engines whose store is partitioned over
// more than one shard — elsewhere it is inert.
type ResilienceConfig struct {
	// AttemptTimeout bounds each per-shard scan attempt.
	AttemptTimeout time.Duration
	// MaxAttempts is the per-shard attempt budget (first try included).
	MaxAttempts int
	// HedgeAfter, when > 0, duplicates a straggling shard scan after this
	// long; the first completed scan wins.
	HedgeAfter time.Duration
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
	// Metrics, when set, receives retry/hedge/breaker counters
	// (obs.NewResilienceMetrics).
	Metrics *obs.ResilienceMetrics
}

// SetResilience configures the fault-tolerant scatter-gather driver: every
// subsequent snapshot evaluation of a multi-shard engine runs with per-shard
// attempt deadlines, bounded retries, optional hedging, and per-shard
// circuit breakers shared across requests. Pass nil to return to the plain
// scatter path. Call before sharing the engine across goroutines; it is not
// synchronized with in-flight Cite calls.
func (e *Engine) SetResilience(cfg *ResilienceConfig) {
	if cfg == nil {
		e.resilience, e.breakers = nil, nil
		return
	}
	c := *cfg
	e.resilience = &c
	if n := e.curState().shards(); n > 0 {
		e.breakers = eval.NewBreakers(n, cfg.BreakerThreshold, cfg.BreakerCooldown)
	}
}

// BreakerStates reports each shard's circuit-breaker state, or nil when
// resilience is not configured. Surfaced on citesrv's /stats and /v1/health.
func (e *Engine) BreakerStates() []eval.BreakerInfo { return e.breakers.States() }

// SetShardWrapper installs a wrapper applied to every snapshot the engine
// takes that is an eval.Partitioned — the hook the fault injector
// (internal/fault) uses to impose faults at the shard-scan seam, seen by the
// engine with or without resilience; other snapshots are left alone. Takes
// effect at the next Reset.
func (e *Engine) SetShardWrapper(wrap func(eval.Partitioned) eval.Partitioned) {
	e.shardWrap = wrap
}

// resilienceFor assembles one request's resilient-driver options: the
// engine configuration plus the request's degradation policy and attempt
// override, with a fresh Coverage accumulator that every snapshot
// evaluation of the request merges into. nil when resilience is off or the
// engine has nothing to scatter over.
func (e *Engine) resilienceFor(st *engineState, o CiteOptions) *eval.Resilience {
	cfg := e.resilience
	if cfg == nil || st.shards() <= 1 {
		return nil
	}
	r := &eval.Resilience{
		MinShardCoverage: o.MinShardCoverage,
		AttemptTimeout:   cfg.AttemptTimeout,
		MaxAttempts:      cfg.MaxAttempts,
		HedgeAfter:       cfg.HedgeAfter,
		BackoffBase:      cfg.BackoffBase,
		BackoffMax:       cfg.BackoffMax,
		Seed:             cfg.Seed,
		Breakers:         e.breakers,
		Metrics:          cfg.Metrics,
		Coverage:         &eval.Coverage{},
	}
	if o.ShardAttempts > 0 {
		r.MaxAttempts = o.ShardAttempts
	}
	return r
}

// fullCoverage returns resil with the degradation policy stripped: stages
// whose partial output would corrupt the citation (rewriting evaluation,
// token rendering) must see every shard they touch or fail, whatever the
// request's output policy allows. The coverage accumulator stays shared.
// nil stays nil.
func fullCoverage(resil *eval.Resilience) *eval.Resilience {
	if resil == nil || resil.MinShardCoverage == 0 {
		return resil
	}
	c := *resil
	c.MinShardCoverage = 0
	return &c
}

// renderOpts carries the per-request rendering knobs through combineTuple →
// renderTuple → renderMonomial → renderTokenCached.
type renderOpts struct {
	// resil, when set, arms token-rendering evaluations (always
	// full-coverage: a token's citation rows are all-or-nothing).
	resil *eval.Resilience
	// degraded allows a token whose shards are unreachable to render as an
	// explicit unavailable record instead of failing the request — set when
	// the request opted into partial coverage.
	degraded bool
}

// renderOptsFor derives the request's rendering knobs from its resilience.
func renderOptsFor(resil *eval.Resilience) renderOpts {
	return renderOpts{
		resil:    fullCoverage(resil),
		degraded: resil != nil && resil.MinShardCoverage > 0,
	}
}

// transientRenderErr classifies a token-rendering failure as per-request —
// cancellation, deadline, unavailable shards — which must propagate
// un-cached rather than be embedded in the (cached, shared) citation record.
func transientRenderErr(err error) bool {
	return errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, eval.ErrShardUnavailable)
}

// unavailableToken renders the degraded record of a token whose citation
// rows could not be fetched. Built per request, outside the token cache: the
// shards may be back for the next request.
func unavailableToken(pt provenance.Token, err error) *format.Object {
	o := format.NewObject()
	if tok, derr := DecodeToken(pt); derr == nil {
		o.Set("View", format.S(tok.Name))
	} else {
		o.Set("Token", format.S(string(pt)))
	}
	return o.Set("Unavailable", format.S(err.Error()))
}
