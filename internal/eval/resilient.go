package eval

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"citare/internal/obs"
	"citare/internal/storage"
)

// The attempt policy is a layer of its own: Resilient wraps a Partitioned so
// that every ShardScan of the inner view is driven by a Resilience —
// per-shard attempt deadlines on the wait for a shard's first tuple, bounded
// retries with exponential backoff and seeded jitter for transient failures
// only, and per-shard circuit breakers shared across enumerations. The
// scatter driver above it (scatter.go) sees one ShardScan per candidate
// shard that either answers or fails; the citation pipeline sees no policy
// at all.
//
// Exactly-once delivery under retries relies on deterministic replay: shard
// scans iterate immutable snapshots in a stable order, so a re-attempt
// re-produces the same tuple sequence, and the scan's cursor skips the
// tuples an earlier attempt already handed to the consumer. With zero
// faults the wrapper delivers exactly what the inner scan does, so results
// stay byte-identical.

// ErrShardUnavailable tags enumeration failures where a shard's scan failed:
// after every attempt of a resilient view, or at once on a plain one.
// Callers classify with errors.Is.
var ErrShardUnavailable = errors.New("eval: shard unavailable")

// UnavailableError is the typed form of ErrShardUnavailable: the shard whose
// scan failed first, and why. Both unwrap from it.
type UnavailableError struct {
	Shard int
	Err   error
}

func (e *UnavailableError) Error() string {
	return fmt.Sprintf("eval: shard %d unavailable: %v", e.Shard, e.Err)
}

func (e *UnavailableError) Unwrap() []error { return []error{ErrShardUnavailable, e.Err} }

// errCircuitOpen is the failure of a scan its shard's open breaker rejected.
var errCircuitOpen = errors.New("eval: circuit open")

// Transienter lets an injected or backend error declare itself retryable.
// Errors not implementing it are permanent unless they are attempt-deadline
// expirations (context.DeadlineExceeded with the parent context still live).
type Transienter interface {
	Transient() bool
}

// Resilience configures the attempt policy of a Resilient view. The zero
// value of each field picks a conservative default.
type Resilience struct {
	// AttemptTimeout bounds each per-shard attempt's wait for the shard's
	// first tuple; the first delivery disarms it, so the consumer's work on
	// delivered tuples never expires an attempt (the caller's context still
	// bounds the whole scan). An expired attempt counts as transient and is
	// retried. 0 means defaultAttemptTimeout.
	AttemptTimeout time.Duration

	// MaxAttempts bounds attempts per shard (first try included). 0 means
	// defaultMaxAttempts; negative means exactly one attempt.
	MaxAttempts int

	// BackoffBase and BackoffMax shape the exponential retry backoff
	// (base·2^(attempt-1), capped, with seeded jitter). Zero values pick
	// defaults.
	BackoffBase time.Duration
	BackoffMax  time.Duration

	// Seed makes the backoff jitter deterministic; chaos tests fix it.
	Seed int64

	// Breakers, when set, gates shards through per-shard circuit breakers
	// shared across enumerations (and typically across requests).
	Breakers *Breakers

	// Metrics, when set, receives retry and breaker counters.
	Metrics *obs.ResilienceMetrics
}

const (
	defaultAttemptTimeout = 2 * time.Second
	defaultMaxAttempts    = 3
	defaultBackoffBase    = 2 * time.Millisecond
	defaultBackoffMax     = 50 * time.Millisecond
)

func (r *Resilience) attemptTimeout() time.Duration {
	if r.AttemptTimeout > 0 {
		return r.AttemptTimeout
	}
	return defaultAttemptTimeout
}

func (r *Resilience) maxAttempts() int {
	switch {
	case r.MaxAttempts > 0:
		return r.MaxAttempts
	case r.MaxAttempts < 0:
		return 1
	}
	return defaultMaxAttempts
}

// backoff returns the sleep before retry number `retry` (1-based), with
// full jitter drawn from rng.
func (r *Resilience) backoff(retry int, rng *rand.Rand) time.Duration {
	base, max := r.BackoffBase, r.BackoffMax
	if base <= 0 {
		base = defaultBackoffBase
	}
	if max <= 0 {
		max = defaultBackoffMax
	}
	d := base << uint(retry-1)
	if d > max || d <= 0 {
		d = max
	}
	// Full jitter in [d/2, d]: desynchronizes shard retries while keeping
	// the schedule deterministic under the seed.
	return d/2 + time.Duration(rng.Int63n(int64(d/2)+1))
}

// Resilient returns p with every ShardScan driven by r's attempt policy;
// everything else — the union view, shard pruning — passes through. When a
// trace rides a scan's context, the current span (the scatter driver's
// per-shard span) gets the scan's "attempts".
func Resilient(p Partitioned, r *Resilience) Partitioned {
	m := r.Metrics
	if m == nil {
		m = &obs.ResilienceMetrics{} // nil counters: every Add is a no-op
	}
	return &resilientDB{Partitioned: p, r: r, m: m}
}

type resilientDB struct {
	Partitioned
	r *Resilience
	m *obs.ResilienceMetrics
}

// ShardScan drives shard si to a verdict: answered after at most
// maxAttempts tries (each under its own first-tuple deadline), or
// failed with the last attempt's error. A scan cut short by its caller —
// ctx done, or fn asking to stop — gives no verdict: it returns without
// touching the breaker's counts, and a half-open probe is released for the
// next request to make.
func (d *resilientDB) ShardScan(ctx context.Context, si int, rel string, cols []int, vals []string, fn func(t storage.Tuple) bool) error {
	r, br := d.r, d.r.Breakers
	if !br.Allow(si) {
		d.m.BreakerRejects.Add(1)
		return errCircuitOpen
	}
	tr, sp := obs.FromContext(ctx)
	c := &shardCursor{fn: fn}
	// Per-shard deterministic jitter stream: independent of goroutine
	// interleaving across shards. Seeding one costs microseconds and 5 KB,
	// more than a pruned point scan, so it waits for the first retry.
	var rng *rand.Rand
	for attempt := 1; ; attempt++ {
		if attempt > 1 {
			d.m.Retries.Add(1)
			if rng == nil {
				rng = rand.New(rand.NewSource(r.Seed*0x9E3779B97F4A7C + int64(si) + 1))
			}
			t := time.NewTimer(r.backoff(attempt-1, rng))
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				br.Release(si)
				return ctx.Err()
			}
		}
		tr.SetInt(sp, "attempts", int64(attempt))
		err := d.attempt(ctx, c, si, rel, cols, vals)
		switch {
		case c.stopped():
			br.Release(si)
			return nil
		case ctx.Err() != nil:
			br.Release(si)
			return ctx.Err()
		case err == nil:
			br.Success(si)
			return nil
		}
		d.m.ShardErrors.Add(1)
		if br.Failure(si) {
			d.m.BreakerOpens.Add(1)
		}
		if attempt >= r.maxAttempts() || !transientErr(err) {
			d.m.UnavailableEvals.Add(1)
			return err
		}
	}
}

// transientErr reports whether a failed attempt is worth retrying: expired
// attempt deadlines are (the parent context was checked separately), and so
// is any error that declares Transient() true.
func transientErr(err error) bool {
	if errors.Is(err, context.DeadlineExceeded) {
		return true
	}
	var t Transienter
	if errors.As(err, &t) {
		return t.Transient()
	}
	return false
}

// attempt runs one attempt on a shard under the policy's deadline. The
// deadline bounds only the wait for the shard's first tuple — the window in
// which a shard fault shows (internal/fault fires before any tuple) — and
// the first delivery disarms it, so a healthy shard whose consumer works
// long on its tuples is never failed; the caller's context still bounds the
// whole scan.
func (d *resilientDB) attempt(ctx context.Context, c *shardCursor, si int, rel string, cols []int, vals []string) error {
	actx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	deadline := time.AfterFunc(d.r.attemptTimeout(), func() { cancel(context.DeadlineExceeded) })
	defer deadline.Stop()
	expired, idx := false, 0
	err := d.Partitioned.ShardScan(actx, si, rel, cols, vals, func(t storage.Tuple) bool {
		if idx == 0 && !deadline.Stop() { // expired before the first tuple
			expired = true
			return false
		}
		idx++
		return c.deliver(idx-1, t)
	})
	if err != nil && ctx.Err() == nil && context.Cause(actx) == context.DeadlineExceeded {
		expired = true
	}
	if expired {
		return context.DeadlineExceeded
	}
	return err
}

// shardCursor hands one ShardScan's tuples to its consumer exactly once
// across attempts, which replay the same tuple sequence: tuple number idx is
// delivered only if no earlier attempt delivered it, and once fn asks to
// stop no attempt delivers again.
type shardCursor struct {
	fn   func(storage.Tuple) bool
	next int  // tuples handed to fn so far
	stop bool // fn returned false
}

func (c *shardCursor) deliver(idx int, t storage.Tuple) bool {
	if c.stop {
		return false
	}
	if idx < c.next {
		return true // an earlier attempt of this shard already delivered it
	}
	c.next = idx + 1
	c.stop = !c.fn(t)
	return !c.stop
}

func (c *shardCursor) stopped() bool { return c.stop }
