package eval

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"citare/internal/obs"
	"citare/internal/storage"
)

// Scatter-gather: one code path (resilientFrames) behind every enumeration
// over a partitioned view. The first join atom is read shard by shard
// through Partitioned.ShardScan — candidate shards only, pruned through
// CandidateShards when the atom binds the shard key — on up to
// Options.Parallel workers, and deeper atoms read through the union view.
// Each candidate shard is driven by an attempt policy:
//
//   - with Options.Resilience nil, one attempt with no deadline, breaker or
//     coverage report: a shard whose scan fails fails the enumeration with
//     the *UnavailableError a one-attempt policy gives;
//   - with it set, per-shard attempt deadlines (Resilience.AttemptTimeout),
//     bounded retries with exponential backoff + seeded jitter for
//     transient failures only, one hedged duplicate attempt per straggling
//     shard (Resilience.HedgeAfter, first complete scan wins), a per-shard
//     circuit breaker (closed/open/half-open) shared across enumerations via
//     Resilience.Breakers, and a graceful-degradation policy: a shard that
//     stays unreachable is either fatal (ErrShardUnavailable, the default)
//     or skipped when the answered+pruned shard count still meets
//     Resilience.MinShardCoverage, with the outcome reported in a
//     machine-readable Coverage.
//
// Exactly-once delivery under retries and hedges relies on deterministic
// replay: shard-local scans iterate immutable snapshots in insertion order,
// so a re-attempt re-produces the same frame sequence and the sink's
// per-shard delivered-frame cursor suppresses frames a previous attempt
// already delivered. With zero faults every policy delivers the same frame
// multiset, so results stay byte-identical.
//
// Faults surface at the ShardScan seam only — the first join atom's
// per-shard scan, modeling a failed or slow request to the shard backend.
// Deeper join atoms read through the union view.

// ErrShardUnavailable tags enumeration failures where one or more shards
// stayed unreachable after every attempt and the coverage policy did not
// allow degrading. Callers classify with errors.Is.
var ErrShardUnavailable = errors.New("eval: shard unavailable")

// UnavailableError is the typed form of ErrShardUnavailable: it carries the
// coverage report describing which shards failed and why.
type UnavailableError struct {
	Coverage *Coverage
}

func (e *UnavailableError) Error() string {
	if e.Coverage == nil {
		return ErrShardUnavailable.Error()
	}
	return fmt.Sprintf("eval: %d of %d shards unavailable after %d attempts",
		e.Coverage.Skipped, e.Coverage.Shards, e.Coverage.Attempts)
}

func (e *UnavailableError) Unwrap() error { return ErrShardUnavailable }

// Transienter lets an injected or backend error declare itself retryable.
// Errors not implementing it are permanent unless they are attempt-deadline
// expirations (context.DeadlineExceeded with the parent context still live).
type Transienter interface {
	Transient() bool
}

// Shard coverage states.
const (
	// ShardAnswered: the shard's scan completed (possibly after retries).
	ShardAnswered = "answered"
	// ShardPruned: the lookup provably excluded the shard; never contacted.
	ShardPruned = "pruned"
	// ShardSkipped: every attempt failed (or the breaker was open) and the
	// coverage policy degraded instead of failing.
	ShardSkipped = "skipped"
)

// ShardCoverage reports one shard's outcome in a resilient enumeration.
type ShardCoverage struct {
	Shard    int    `json:"shard"`
	State    string `json:"state"`
	Attempts int    `json:"attempts,omitempty"`
	Breaker  string `json:"breaker,omitempty"`
	Err      string `json:"err,omitempty"`

	hedged bool // a hedged duplicate scan was launched for this shard
}

// Coverage is the machine-readable report of a resilient evaluation: how
// many shards answered, were pruned, or had to be skipped, and the attempt
// economics. A citation assembled from several evaluations merges their
// coverages (Merge), keeping the worst per-shard state.
type Coverage struct {
	Shards   int `json:"shards"`
	Answered int `json:"answered"`
	Pruned   int `json:"pruned"`
	Skipped  int `json:"skipped"`
	Attempts int `json:"attempts"`
	Retries  int `json:"retries"`
	Hedges   int `json:"hedges"`

	PerShard []ShardCoverage `json:"per_shard,omitempty"`

	// SkippedViews names the citation views of rewritings that were left out
	// of a partial citation because their evaluation hit unavailable shards.
	// Filled by the engine, not by this package.
	SkippedViews []string `json:"skipped_views,omitempty"`
}

// Partial reports whether the coverage describes a degraded result.
func (c *Coverage) Partial() bool {
	return c != nil && (c.Skipped > 0 || len(c.SkippedViews) > 0)
}

// stateRank orders shard states from best to worst for merging.
func stateRank(s string) int {
	switch s {
	case ShardSkipped:
		return 2
	case ShardAnswered:
		return 1
	default: // pruned (or never consulted)
		return 0
	}
}

// Merge folds another evaluation's coverage into c: attempt counters add up,
// and each shard keeps its worst state across the evaluations (a shard that
// answered the output query but failed a rewriting's evaluation is skipped
// overall).
func (c *Coverage) Merge(o *Coverage) {
	if o == nil {
		return
	}
	if o.Shards > c.Shards {
		c.Shards = o.Shards
	}
	c.Attempts += o.Attempts
	c.Retries += o.Retries
	c.Hedges += o.Hedges
	if c.PerShard == nil {
		c.PerShard = make([]ShardCoverage, c.Shards)
		for i := range c.PerShard {
			c.PerShard[i] = ShardCoverage{Shard: i, State: ShardPruned}
		}
	}
	for _, sc := range o.PerShard {
		if sc.Shard >= len(c.PerShard) {
			continue
		}
		dst := &c.PerShard[sc.Shard]
		dst.Attempts += sc.Attempts
		if stateRank(sc.State) > stateRank(dst.State) {
			dst.State = sc.State
			dst.Breaker = sc.Breaker
			dst.Err = sc.Err
		}
	}
	c.SkippedViews = append(c.SkippedViews, o.SkippedViews...)
	c.recount()
}

// recount recomputes the aggregate state counts from PerShard.
func (c *Coverage) recount() {
	c.Answered, c.Pruned, c.Skipped = 0, 0, 0
	for i := range c.PerShard {
		switch c.PerShard[i].State {
		case ShardAnswered:
			c.Answered++
		case ShardSkipped:
			c.Skipped++
		default:
			c.Pruned++
		}
	}
}

// Resilience configures scatter-gather's attempt policy. The zero value
// of each field picks a conservative default; a nil *Resilience in Options
// is one attempt per shard with no deadline (oneAttempt).
type Resilience struct {
	// MinShardCoverage sets the degradation policy: 0 (the default) requires
	// full coverage — any shard still unreachable after its attempt budget
	// fails the enumeration with ErrShardUnavailable. A value k > 0 allows a
	// partial result as long as at least k shards answered or were pruned;
	// the skipped shards are reported in Coverage.
	MinShardCoverage int

	// AttemptTimeout bounds each per-shard attempt; an expired attempt
	// counts as transient and is retried. 0 means defaultAttemptTimeout.
	AttemptTimeout time.Duration

	// MaxAttempts bounds attempts per shard (first try included). 0 means
	// defaultMaxAttempts; negative means exactly one attempt.
	MaxAttempts int

	// HedgeAfter, when > 0, starts one duplicate scan of a shard whose
	// in-flight attempt has not completed after this long; the first
	// complete scan wins and cancels the other.
	HedgeAfter time.Duration

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

	// Metrics, when set, receives retry/hedge/breaker counters.
	Metrics *obs.ResilienceMetrics

	// Coverage, when set, receives this enumeration's coverage report,
	// merged into whatever the caller accumulated so far.
	Coverage *Coverage

	// unbounded runs attempts without a deadline: oneAttempt's, only.
	unbounded bool
}

const (
	defaultAttemptTimeout = 2 * time.Second
	defaultMaxAttempts    = 3
	defaultBackoffBase    = 2 * time.Millisecond
	defaultBackoffMax     = 50 * time.Millisecond
)

// oneAttempt is the policy of a scatter without Options.Resilience: one
// attempt per shard, no deadline, breaker, hedge or coverage report.
var oneAttempt = Resilience{MaxAttempts: -1, unbounded: true}

func (r *Resilience) attemptTimeout() time.Duration {
	if r.AttemptTimeout > 0 {
		return r.AttemptTimeout
	}
	return defaultAttemptTimeout
}

// attemptCtx bounds one attempt by the policy's deadline, if it has one.
func (r *Resilience) attemptCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if r.unbounded {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, r.attemptTimeout())
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

// scatterLookupVals resolves the first step's constant lookup values (only
// constants can be bound at depth 0); nil when the step scans.
func (p *Plan) scatterLookupVals() []string {
	st0 := &p.steps[0]
	if len(st0.lookupCols) == 0 {
		return nil
	}
	vals := make([]string, len(st0.lookupSrc))
	for i, src := range st0.lookupSrc {
		vals[i] = src.konst
	}
	return vals
}

// resilientFrames enumerates the plan scatter-gather across the partitioned
// view's candidate shards, each driven to a terminal state by the attempt
// policy (Options.Resilience, or oneAttempt): the coverage policy decides
// whether missing shards fail the enumeration or degrade it. Shard
// boundaries are cancellation points, and each attempt's exec re-checks ctx
// between candidate tuples. When a trace rides the context, each attempt
// gets its own "shard" span under the current one — the per-shard timing
// breakdown Explain reports.
func (p *Plan) resilientFrames(ctx context.Context, opts Options, fn frameFn) error {
	r := opts.Resilience
	if r == nil {
		r = &oneAttempt
	}
	st0 := &p.steps[0]
	lookupVals := p.scatterLookupVals()
	n := p.part.NumShards()
	cands := p.part.CandidateShards(st0.pred, st0.lookupCols, lookupVals)
	if cands == nil {
		cands = make([]int, n)
		for i := range cands {
			cands[i] = i
		}
	}

	reports := make([]ShardCoverage, n)
	for i := range reports {
		reports[i] = ShardCoverage{Shard: i, State: ShardPruned}
	}
	var totalRetries, totalHedges, totalAttempts int

	if len(cands) > 0 {
		tr, cur := obs.FromContext(ctx)
		tr.SetInt(cur, "shards", int64(len(cands)))
		sink := newSerialSink(fn, n)
		workers := p.scatterWorkers(opts, len(cands))
		tr.SetInt(cur, "workers", int64(workers))

		run := func(si int) {
			reports[si] = p.runResilientShard(ctx, r, sink, si, st0, lookupVals, tr, cur)
		}
		if workers <= 1 {
			for _, si := range cands {
				if sink.stopped() || ctx.Err() != nil {
					break
				}
				run(si)
			}
		} else {
			shardCh := make(chan int)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for si := range shardCh {
						if sink.stopped() {
							continue // drain remaining shard indexes
						}
						run(si)
					}
				}()
			}
			for _, si := range cands {
				shardCh <- si
			}
			close(shardCh)
			wg.Wait()
		}
		if err := sink.err(); err != nil {
			return err
		}
	}
	if err := ctx.Err(); err != nil {
		return err
	}

	cov := &Coverage{Shards: n, PerShard: reports}
	for i := range reports {
		totalAttempts += reports[i].Attempts
		totalRetries += reports[i].Attempts - min(reports[i].Attempts, 1)
	}
	totalHedges = countHedges(reports)
	cov.Attempts, cov.Retries, cov.Hedges = totalAttempts, totalRetries, totalHedges
	cov.recount()

	if r.Coverage != nil {
		r.Coverage.Merge(cov)
	}
	if cov.Skipped == 0 {
		return nil
	}
	if m := r.Metrics; m != nil {
		if r.MinShardCoverage > 0 && cov.Answered+cov.Pruned >= r.MinShardCoverage {
			m.PartialEvals.Add(1)
		} else {
			m.UnavailableEvals.Add(1)
		}
	}
	if r.MinShardCoverage > 0 && cov.Answered+cov.Pruned >= r.MinShardCoverage {
		return nil // degraded result; the caller reads the coverage report
	}
	return &UnavailableError{Coverage: cov}
}

// countHedges counts shards for which a hedged duplicate scan was launched.
func countHedges(reports []ShardCoverage) int {
	n := 0
	for i := range reports {
		if reports[i].hedged {
			n++
		}
	}
	return n
}

// runResilientShard drives one shard to a terminal state: answered after at
// most maxAttempts tries (each under its own deadline, optionally hedged),
// or skipped with the failure recorded. Global aborts (callback errors,
// parent-context cancellation) raise the sink's stop flag and are reported
// by the caller, not in the shard's coverage.
func (p *Plan) runResilientShard(ctx context.Context, r *Resilience, sink *serialSink, si int, st0 *planStep, lookupVals []string, tr *obs.Trace, cur obs.SpanID) ShardCoverage {
	rep := ShardCoverage{Shard: si, State: ShardSkipped}
	if br := r.Breakers; br != nil {
		if !br.Allow(si) {
			rep.Breaker = string(BreakerOpen)
			rep.Err = "circuit open"
			if m := r.Metrics; m != nil {
				m.BreakerRejects.Add(1)
			}
			return rep
		}
		rep.Breaker = string(br.State(si))
	}
	// Per-shard deterministic jitter stream: independent of goroutine
	// interleaving across shards. Seeding one costs microseconds and 5 KB,
	// more than a pruned point scan, so it waits for the first retry.
	var rng *rand.Rand
	maxA := r.maxAttempts()
	var lastErr error
	for attempt := 1; attempt <= maxA; attempt++ {
		if attempt > 1 {
			if m := r.Metrics; m != nil {
				m.Retries.Add(1)
			}
			if rng == nil {
				rng = rand.New(rand.NewSource(r.Seed*0x9E3779B97F4A7C + int64(si) + 1))
			}
			d := r.backoff(attempt-1, rng)
			t := time.NewTimer(d)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				sink.abort(ctx.Err())
				return rep
			}
		}
		rep.Attempts++
		asp := tr.Start(cur, "shard")
		tr.SetInt(asp, "shard", int64(si))
		tr.SetInt(asp, "attempt", int64(attempt))
		err := p.attemptShard(ctx, r, sink, si, st0, lookupVals, &rep)
		if err != nil {
			tr.SetStr(asp, "error", err.Error())
		}
		tr.End(asp)
		if err == nil {
			rep.State = ShardAnswered
			if br := r.Breakers; br != nil {
				br.Success(si)
				rep.Breaker = string(br.State(si))
			}
			return rep
		}
		if err == errStopped || sink.stopped() {
			return rep // global abort; sink.err() carries the cause
		}
		if ctx.Err() != nil {
			sink.abort(ctx.Err())
			return rep
		}
		lastErr = err
		if br := r.Breakers; br != nil {
			if br.Failure(si) {
				if m := r.Metrics; m != nil {
					m.BreakerOpens.Add(1)
				}
			}
			rep.Breaker = string(br.State(si))
		}
		if m := r.Metrics; m != nil {
			m.ShardErrors.Add(1)
		}
		if !transientErr(err) {
			break // permanent: retrying cannot help
		}
	}
	if lastErr != nil {
		rep.Err = lastErr.Error()
	}
	return rep
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

// attemptShard runs one attempt on a shard, bounded by the policy's
// deadline and optionally hedged: when the primary scan has not completed
// after HedgeAfter, one duplicate starts, the first complete scan wins and
// the loser is canceled and joined (no goroutine outlives the attempt). Both
// scans deliver through the cursor-guarded sink, so overlap cannot duplicate
// frames.
func (p *Plan) attemptShard(ctx context.Context, r *Resilience, sink *serialSink, si int, st0 *planStep, lookupVals []string, rep *ShardCoverage) error {
	actx, cancel := r.attemptCtx(ctx)
	defer cancel()
	if r.HedgeAfter <= 0 {
		return p.scanShardOnce(actx, sink, si, st0, lookupVals)
	}

	done := make(chan error, 2)
	scan := func() { done <- p.scanShardOnce(actx, sink, si, st0, lookupVals) }
	launched := 1
	go scan()
	timer := time.NewTimer(r.HedgeAfter)
	defer timer.Stop()
	var firstErr error
	finished := 0
	for finished < launched {
		select {
		case err := <-done:
			finished++
			if err == nil {
				// Winner: cancel and join the loser before returning so no
				// goroutine outlives the attempt.
				cancel()
				for finished < launched {
					<-done
					finished++
				}
				return nil
			}
			if firstErr == nil {
				firstErr = err
			}
		case <-timer.C:
			if launched == 1 {
				launched = 2
				rep.hedged = true
				if m := r.Metrics; m != nil {
					m.Hedges.Add(1)
				}
				go scan()
			}
		}
	}
	return firstErr
}

// scanShardOnce performs one scan of shard si's first-step relation through
// the ShardScan seam, descending deeper steps through a private exec and
// delivering frames through the shard's cursor.
func (p *Plan) scanShardOnce(ctx context.Context, sink *serialSink, si int, st0 *planStep, lookupVals []string) error {
	idx := 0
	e := p.newExec(ctx, func(frame []string, ms []Match) error {
		err := sink.deliverAt(si, idx, frame, ms)
		idx++
		return err
	})
	var iterErr error
	err := p.part.ShardScan(ctx, si, st0.pred, st0.lookupCols, lookupVals, func(t storage.Tuple) bool {
		if ferr := e.feed(0, t); ferr != nil {
			iterErr = ferr
			return false
		}
		return true
	})
	if iterErr != nil {
		return iterErr
	}
	return err
}
