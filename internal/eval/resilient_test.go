package eval_test

// Tests of the scatter-gather attempt policies: no-fault parity between the
// resilient and the one-attempt policy, faults seen without a policy,
// retry/hedge/breaker behavior under the deterministic fault injector,
// exactly-once delivery across retries, the graceful-degradation coverage
// policy, and prompt cancellation mid-backoff and mid-hedge without
// goroutine leaks. External test package: the
// fixtures need internal/shard and internal/fault, which import eval.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"citare/internal/eval"
	"citare/internal/fault"
	"citare/internal/shard"
	"citare/internal/storage"
	"citare/internal/workload"
)

const resilientShards = 4

// resilientFixture builds the chain-join workload over 4 shards plus a
// fault injector wrapping the partitioned view.
func resilientFixture(t testing.TB) (*fault.Injector, eval.Partitioned, *storage.DB) {
	t.Helper()
	db := workload.ChainDB(3, 600, 64, 7)
	sharded, err := shard.FromDB(db, resilientShards)
	if err != nil {
		t.Fatal(err)
	}
	in := fault.NewInjector(42)
	return in, in.Wrap(sharded), db
}

// fastResilience returns driver options tuned for tests: tight backoffs so
// fault paths resolve in milliseconds, but a generous attempt deadline —
// under the race detector a clean shard scan can take tens of milliseconds,
// and a spurious timeout would burn the attempt budget. Tests exercising
// stalls override AttemptTimeout downward themselves.
func fastResilience() *eval.Resilience {
	return &eval.Resilience{
		AttemptTimeout: time.Second,
		MaxAttempts:    3,
		BackoffBase:    time.Millisecond,
		BackoffMax:     4 * time.Millisecond,
		Seed:           1,
	}
}

func tupleFingerprint(res *eval.Result) string {
	s := fmt.Sprintf("%v|", res.Cols)
	for _, tp := range res.Tuples {
		s += tp.Key() + ";"
	}
	return s
}

// TestResilientNoFaultParity: with zero faults injected, the resilient
// policy's output is byte-identical to the one-attempt policy's, on one
// worker and on a pool, and for both entry points.
func TestResilientNoFaultParity(t *testing.T) {
	_, view, _ := resilientFixture(t)
	q := workload.ChainQuery(3)
	for _, par := range []int{1, 4} {
		plain, err := eval.EvalOn(view, q, eval.Options{Parallel: par})
		if err != nil {
			t.Fatal(err)
		}
		r := fastResilience()
		r.Coverage = &eval.Coverage{}
		resil, err := eval.EvalOn(view, q, eval.Options{Parallel: par, Resilience: r})
		if err != nil {
			t.Fatal(err)
		}
		if g, w := tupleFingerprint(resil), tupleFingerprint(plain); g != w {
			t.Fatalf("parallel=%d: resilient result diverged:\n got %s\nwant %s", par, g, w)
		}
		if r.Coverage.Answered != resilientShards || r.Coverage.Skipped != 0 {
			t.Fatalf("parallel=%d: coverage = %+v, want %d answered", par, r.Coverage, resilientShards)
		}

		// Binding multisets must agree too (polynomial correctness).
		plainB := frameMultiset(t, view, q, eval.Options{Parallel: par})
		resilB := frameMultiset(t, view, q, eval.Options{Parallel: par, Resilience: fastResilience()})
		if len(plainB) != len(resilB) {
			t.Fatalf("parallel=%d: binding multisets diverge: %d vs %d distinct", par, len(plainB), len(resilB))
		}
		for k, n := range plainB {
			if resilB[k] != n {
				t.Fatalf("parallel=%d: binding %s: count %d vs %d", par, k, resilB[k], n)
			}
		}
	}
}

// TestResilientRetriesTransient: a shard whose first two calls fail with a
// transient error recovers within the attempt budget; the result is
// complete and the coverage records the retries.
func TestResilientRetriesTransient(t *testing.T) {
	in, view, _ := resilientFixture(t)
	q := workload.ChainQuery(3)
	want, err := eval.EvalOn(view, q, eval.Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	in.SetFault(1, fault.ShardFault{FailOps: 2})
	r := fastResilience()
	r.Coverage = &eval.Coverage{}
	got, err := eval.EvalOn(view, q, eval.Options{Parallel: 1, Resilience: r})
	if err != nil {
		t.Fatal(err)
	}
	if tupleFingerprint(got) != tupleFingerprint(want) {
		t.Fatal("result diverged despite successful retries")
	}
	cov := r.Coverage
	if cov.Answered != resilientShards || cov.Retries != 2 || cov.PerShard[1].Attempts != 3 {
		t.Fatalf("coverage = %+v, want full coverage with 2 retries on shard 1", cov)
	}
}

// TestResilientPermanentFailsFast: a permanently failing shard is not
// retried, and the default policy fails the enumeration with a typed
// ErrShardUnavailable carrying the coverage report.
func TestResilientPermanentFailsFast(t *testing.T) {
	in, view, _ := resilientFixture(t)
	q := workload.ChainQuery(3)
	in.SetFault(2, fault.ShardFault{Permanent: true})
	_, err := eval.EvalOn(view, q, eval.Options{Parallel: 1, Resilience: fastResilience()})
	if !errors.Is(err, eval.ErrShardUnavailable) {
		t.Fatalf("err = %v, want ErrShardUnavailable", err)
	}
	var ue *eval.UnavailableError
	if !errors.As(err, &ue) || ue.Coverage == nil {
		t.Fatalf("err = %v, want *UnavailableError with coverage", err)
	}
	sc := ue.Coverage.PerShard[2]
	if sc.State != eval.ShardSkipped || sc.Attempts != 1 {
		t.Fatalf("shard 2 coverage = %+v, want skipped after exactly 1 attempt (no retry of permanent errors)", sc)
	}
}

// TestResilientNilPolicySeesFaults: the scatter without a resilience
// policy reads every shard through the same seam, once and with no
// deadline — a permanently failing shard fails it with the typed
// *UnavailableError, a transient one too (nothing retries it), and a clean
// shard set answers in full.
func TestResilientNilPolicySeesFaults(t *testing.T) {
	in, view, _ := resilientFixture(t)
	q := workload.ChainQuery(3)
	want, err := eval.EvalOn(view, q, eval.Options{Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []fault.ShardFault{{Permanent: true}, {FailOps: 1}} {
		for _, par := range []int{1, 4} {
			in.SetFault(1, f) // restarts the schedule: FailOps fails the next call
			_, err := eval.EvalOn(view, q, eval.Options{Parallel: par})
			var ue *eval.UnavailableError
			if !errors.Is(err, eval.ErrShardUnavailable) || !errors.As(err, &ue) {
				t.Fatalf("fault %+v, parallel=%d: err = %v, want *UnavailableError", f, par, err)
			}
			if sc := ue.Coverage.PerShard[1]; sc.State != eval.ShardSkipped || sc.Attempts != 1 {
				t.Fatalf("fault %+v, parallel=%d: shard 1 coverage = %+v, want skipped after one attempt", f, par, sc)
			}
		}
	}
	in.Clear()
	got, err := eval.EvalOn(view, q, eval.Options{Parallel: 4})
	if err != nil || tupleFingerprint(got) != tupleFingerprint(want) {
		t.Fatalf("fault-free scatter after clearing: %v", err)
	}
}

// TestResilientStallDegrades is the driver half of the chaos acceptance
// property: with 1 of 4 shards stalled until cancel, MinShardCoverage 3
// returns a partial result promptly with accurate coverage, while the
// default policy fails with ErrShardUnavailable.
func TestResilientStallDegrades(t *testing.T) {
	in, view, _ := resilientFixture(t)
	q := workload.ChainQuery(3)
	full, err := eval.EvalOn(view, q, eval.Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	in.SetFault(0, fault.ShardFault{Stall: true})

	// A stalled attempt only ends when its deadline fires, so bound it
	// tightly here: 3 attempts x 250ms stays well inside the 2s budget while
	// leaving clean shards ample scan headroom.
	stallResilience := func() *eval.Resilience {
		r := fastResilience()
		r.AttemptTimeout = 250 * time.Millisecond
		return r
	}

	// Default policy: fail fast.
	start := time.Now()
	_, err = eval.EvalOn(view, q, eval.Options{Parallel: 4, Resilience: stallResilience()})
	if !errors.Is(err, eval.ErrShardUnavailable) {
		t.Fatalf("default policy err = %v, want ErrShardUnavailable", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("fail-fast took %v", elapsed)
	}

	// MinShardCoverage 3: degrade gracefully.
	r := stallResilience()
	r.MinShardCoverage = resilientShards - 1
	r.Coverage = &eval.Coverage{}
	start = time.Now()
	got, err := eval.EvalOn(view, q, eval.Options{Parallel: 4, Resilience: r})
	if err != nil {
		t.Fatalf("partial policy err = %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("partial eval took %v", elapsed)
	}
	cov := r.Coverage
	if cov.Skipped != 1 || cov.Answered != resilientShards-1 || !cov.Partial() {
		t.Fatalf("coverage = %+v, want 1 skipped / %d answered", cov, resilientShards-1)
	}
	if cov.PerShard[0].State != eval.ShardSkipped || cov.PerShard[0].Attempts != 3 {
		t.Fatalf("shard 0 coverage = %+v, want skipped after 3 attempts", cov.PerShard[0])
	}
	if len(got.Tuples) == 0 || len(got.Tuples) >= len(full.Tuples) {
		t.Fatalf("partial result has %d tuples, full has %d; want a strict non-empty subset", len(got.Tuples), len(full.Tuples))
	}
	for _, tp := range got.Tuples {
		if !slices.Contains(full.Keys, tp.Key()) {
			t.Fatalf("partial result invented tuple %v", tp)
		}
	}
}

// flakyScanner fails one shard's first scan with a transient error midway
// through delivering its tuples — after the driver has already handed
// frames downstream — to prove the retry's replay delivers each frame
// exactly once.
type flakyScanner struct {
	eval.Partitioned
	failShard int
	failAfter int
	calls     int
}

type testTransientErr struct{}

func (testTransientErr) Error() string   { return "flaky: transient mid-scan failure" }
func (testTransientErr) Transient() bool { return true }

func (f *flakyScanner) ShardScan(ctx context.Context, si int, rel string, cols []int, vals []string, fn func(t storage.Tuple) bool) error {
	if si == f.failShard {
		f.calls++ // sequential driver only: no synchronization needed
		if f.calls == 1 {
			n := 0
			_ = f.Partitioned.ShardScan(ctx, si, rel, cols, vals, func(t storage.Tuple) bool {
				if n >= f.failAfter {
					return false
				}
				n++
				return fn(t)
			})
			return testTransientErr{}
		}
	}
	return f.Partitioned.ShardScan(ctx, si, rel, cols, vals, fn)
}

// TestResilientExactlyOnceAcrossRetry: frames delivered before a mid-scan
// transient failure are not re-delivered by the retry — the binding
// multiset is identical to the clean enumeration.
func TestResilientExactlyOnceAcrossRetry(t *testing.T) {
	db := workload.ChainDB(3, 600, 64, 7)
	sharded, err := shard.FromDB(db, resilientShards)
	if err != nil {
		t.Fatal(err)
	}
	q := workload.ChainQuery(3)
	want := frameMultiset(t, sharded, q, eval.Options{Parallel: 1})
	flaky := &flakyScanner{Partitioned: sharded, failShard: 1, failAfter: 40}
	got := frameMultiset(t, flaky, q, eval.Options{Parallel: 1, Resilience: fastResilience()})
	if len(got) != len(want) {
		t.Fatalf("binding multisets diverge: %d vs %d distinct bindings", len(got), len(want))
	}
	for k, n := range want {
		if got[k] != n {
			t.Fatalf("binding %s delivered %d times, want %d", k, got[k], n)
		}
	}
	if flaky.calls < 2 {
		t.Fatalf("flaky shard scanned %d times, want a retry", flaky.calls)
	}
}

// TestResilientHedgingBeatsStraggler: with one shard's first scan slowed by
// an injected one-off latency, a hedged duplicate completes the shard long
// before the straggler would have, with complete results.
func TestResilientHedgingBeatsStraggler(t *testing.T) {
	in, view, _ := resilientFixture(t)
	q := workload.ChainQuery(3)
	want, err := eval.EvalOn(view, q, eval.Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	const lag = 500 * time.Millisecond
	in.SetFault(3, fault.ShardFault{Latency: lag, SlowOps: 1})
	r := fastResilience()
	r.AttemptTimeout = 2 * time.Second
	r.HedgeAfter = 5 * time.Millisecond
	r.Coverage = &eval.Coverage{}
	start := time.Now()
	got, err := eval.EvalOn(view, q, eval.Options{Parallel: 4, Resilience: r})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed >= lag {
		t.Fatalf("hedged eval took %v, want well under the %v straggler lag", elapsed, lag)
	}
	if tupleFingerprint(got) != tupleFingerprint(want) {
		t.Fatal("hedged result diverged from clean result")
	}
	// At minimum the straggler hedged; under heavy slowdown (-race) fast
	// shards can trip the 5ms trigger too, so don't assert an exact count.
	if r.Coverage.Hedges < 1 {
		t.Fatalf("coverage hedges = %d, want >= 1", r.Coverage.Hedges)
	}
}

// TestResilientBreakerOpensAndRecovers: repeated failures open a shard's
// breaker (skipping it instantly), and after the cooldown a half-open probe
// against the recovered shard closes it again.
func TestResilientBreakerOpensAndRecovers(t *testing.T) {
	in, view, _ := resilientFixture(t)
	q := workload.ChainQuery(3)
	// Generous cooldown: the open-state rejection check below must run well
	// inside it even under the race detector's slowdown.
	const cooldown = 1500 * time.Millisecond
	br := eval.NewBreakers(resilientShards, 2, cooldown)
	in.SetFault(0, fault.ShardFault{Permanent: true})

	run := func(minCov int) (*eval.Coverage, error) {
		r := fastResilience()
		r.Breakers = br
		r.MinShardCoverage = minCov
		r.Coverage = &eval.Coverage{}
		_, err := eval.EvalOn(view, q, eval.Options{Parallel: 1, Resilience: r})
		return r.Coverage, err
	}

	// Two failing evals reach the threshold and open the breaker.
	for i := 0; i < 2; i++ {
		if _, err := run(0); !errors.Is(err, eval.ErrShardUnavailable) {
			t.Fatalf("eval %d err = %v, want ErrShardUnavailable", i, err)
		}
	}
	if !br.AnyOpen() {
		t.Fatalf("breaker states = %+v, want shard 0 open", br.States())
	}
	// While open, the shard is rejected without an attempt.
	cov, err := run(resilientShards - 1)
	if err != nil {
		t.Fatalf("partial-policy eval with open breaker: %v", err)
	}
	if sc := cov.PerShard[0]; sc.Attempts != 0 || sc.Breaker != string(eval.BreakerOpen) {
		t.Fatalf("shard 0 coverage = %+v, want breaker-open rejection with 0 attempts", sc)
	}

	// Recover the shard, wait out the cooldown: the half-open probe closes it.
	in.Clear()
	time.Sleep(cooldown + 100*time.Millisecond)
	if cov, err = run(0); err != nil {
		t.Fatalf("post-cooldown eval: %v (coverage %+v)", err, cov)
	}
	if st := br.State(0); st != eval.BreakerClosed {
		t.Fatalf("breaker state after successful probe = %s, want closed", st)
	}
}

// TestBreakersTransitions unit-tests the state machine directly.
func TestBreakersTransitions(t *testing.T) {
	br := eval.NewBreakers(2, 2, 20*time.Millisecond)
	if !br.Allow(0) || br.State(0) != eval.BreakerClosed {
		t.Fatal("fresh breaker must be closed and allowing")
	}
	br.Failure(0)
	if br.State(0) != eval.BreakerClosed {
		t.Fatal("one failure below threshold must not open")
	}
	if opened := br.Failure(0); !opened || br.State(0) != eval.BreakerOpen {
		t.Fatal("threshold failure must open the breaker")
	}
	if br.Allow(0) {
		t.Fatal("open breaker within cooldown must reject")
	}
	time.Sleep(25 * time.Millisecond)
	if !br.Allow(0) || br.State(0) != eval.BreakerHalfOpen {
		t.Fatal("cooldown elapsed: breaker must go half-open and admit one probe")
	}
	if br.Allow(0) {
		t.Fatal("half-open breaker must admit only one probe at a time")
	}
	if opened := br.Failure(0); !opened || br.State(0) != eval.BreakerOpen {
		t.Fatal("failed probe must re-open")
	}
	time.Sleep(25 * time.Millisecond)
	if !br.Allow(0) {
		t.Fatal("second probe must be admitted after re-open cooldown")
	}
	br.Success(0)
	if br.State(0) != eval.BreakerClosed || !br.Allow(0) {
		t.Fatal("successful probe must close the breaker")
	}
	// Untouched shard stays closed; nil receiver is safe.
	if br.State(1) != eval.BreakerClosed {
		t.Fatal("shard 1 must be closed")
	}
	var nilBr *eval.Breakers
	if !nilBr.Allow(0) || nilBr.AnyOpen() || nilBr.States() != nil {
		t.Fatal("nil Breakers must admit everything and report nothing")
	}
	nilBr.Success(0)
	nilBr.Failure(0)
}

// TestResilientCancelMidBackoff: a parent context canceled while a shard
// sits in its retry backoff aborts promptly with the context's error and
// leaks no goroutines.
func TestResilientCancelMidBackoff(t *testing.T) {
	in, view, _ := resilientFixture(t)
	q := workload.ChainQuery(3)
	in.SetFault(1, fault.ShardFault{FailOps: 1 << 30}) // always transiently failing
	r := fastResilience()
	r.MaxAttempts = 1 << 20 // effectively endless retries
	r.BackoffBase = 50 * time.Millisecond
	r.BackoffMax = 50 * time.Millisecond

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pl, err := eval.Compile(view, q)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(20 * time.Millisecond) // lands inside the 50ms backoff
		cancel()
	}()
	start := time.Now()
	_, err = pl.EvalCtx(ctx, eval.Options{Parallel: 4, Resilience: r})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("cancel mid-backoff took %v to return", elapsed)
	}
	waitForGoroutines(t, before)
}

// TestResilientCancelMidHedge: a parent context canceled while a stalled
// shard has both a primary and a hedged scan in flight aborts promptly and
// joins both scans (no leaked goroutines).
func TestResilientCancelMidHedge(t *testing.T) {
	in, view, _ := resilientFixture(t)
	q := workload.ChainQuery(3)
	in.SetFault(2, fault.ShardFault{Stall: true})
	r := fastResilience()
	r.AttemptTimeout = 10 * time.Second // cancellation, not the deadline, must end it
	r.HedgeAfter = 5 * time.Millisecond

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pl, err := eval.Compile(view, q)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(30 * time.Millisecond) // after the hedge launched
		cancel()
	}()
	start := time.Now()
	_, err = pl.EvalCtx(ctx, eval.Options{Parallel: 4, Resilience: r})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("cancel mid-hedge took %v to return", elapsed)
	}
	waitForGoroutines(t, before)
}

// TestInjectorDeterminism: the injector consumes fault schedules by
// per-shard operation count, so the same schedule replays identically.
func TestInjectorDeterminism(t *testing.T) {
	run := func() []string {
		in := fault.NewInjector(7)
		db := workload.ChainDB(2, 50, 16, 3)
		sharded, err := shard.FromDB(db, 2)
		if err != nil {
			t.Fatal(err)
		}
		view := in.Wrap(sharded)
		in.SetFault(0, fault.ShardFault{FailOps: 2})
		var outcomes []string
		for i := 0; i < 4; i++ {
			err := view.ShardScan(context.Background(), 0, "R1", nil, nil, func(storage.Tuple) bool { return true })
			outcomes = append(outcomes, fmt.Sprint(err))
		}
		return outcomes
	}
	a, b := run(), run()
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("injected outcomes not reproducible: %v vs %v", a, b)
	}
	if a[0] == "<nil>" || a[1] == "<nil>" || a[2] != "<nil>" || a[3] != "<nil>" {
		t.Fatalf("FailOps=2 schedule misapplied: %v", a)
	}
}
