package eval_test

// Tests of the attempt policy at the shard-scan seam (Resilient): no-fault
// parity with the plain view, faults seen without a policy, retry and
// breaker behavior under the deterministic fault injector, an attempt
// deadline that bounds only the wait for a shard's first tuple,
// exactly-once delivery across retries as a property over random fault
// schedules, and prompt cancellation mid-backoff without goroutine leaks. External test package: the fixtures need internal/shard
// and internal/fault, which import eval.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"citare/internal/cq"
	"citare/internal/eval"
	"citare/internal/fault"
	"citare/internal/obs"
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
	in := fault.NewInjector()
	return in, in.Wrap(sharded), db
}

// fastResilience returns a policy tuned for tests: tight backoffs so fault
// paths resolve in milliseconds, but a generous attempt deadline — under the
// race detector a clean shard scan can take tens of milliseconds, and a
// spurious timeout would burn the attempt budget. Its counters are live.
func fastResilience() *eval.Resilience {
	return &eval.Resilience{
		AttemptTimeout: time.Second,
		MaxAttempts:    3,
		BackoffBase:    time.Millisecond,
		BackoffMax:     4 * time.Millisecond,
		Seed:           1,
		Metrics:        obs.NewResilienceMetrics(obs.NewRegistry()),
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
// view's output is byte-identical to the plain view's, on one worker and on
// a pool, and for both entry points.
func TestResilientNoFaultParity(t *testing.T) {
	_, view, _ := resilientFixture(t)
	q := workload.ChainQuery(3)
	for _, par := range []int{1, 4} {
		opts := eval.Options{Parallel: par}
		plain, err := eval.EvalView(view, q, opts)
		if err != nil {
			t.Fatal(err)
		}
		r := fastResilience()
		resil, err := eval.EvalView(eval.Resilient(view, r), q, opts)
		if err != nil {
			t.Fatal(err)
		}
		if g, w := tupleFingerprint(resil), tupleFingerprint(plain); g != w {
			t.Fatalf("parallel=%d: resilient result diverged:\n got %s\nwant %s", par, g, w)
		}
		if n := r.Metrics.Retries.Value() + r.Metrics.ShardErrors.Value(); n != 0 {
			t.Fatalf("parallel=%d: %d retries and errors without a fault", par, n)
		}
		// Binding multisets must agree too (polynomial correctness).
		plainB := frameMultiset(t, view, q, opts)
		if resilB := frameMultiset(t, eval.Resilient(view, fastResilience()), q, opts); !reflect.DeepEqual(resilB, plainB) {
			t.Fatalf("parallel=%d: binding multisets diverge: %d vs %d distinct", par, len(plainB), len(resilB))
		}
	}
}

// TestResilientRetriesTransient: a shard whose first two calls fail with a
// transient error recovers within the attempt budget; the result is
// complete and the counters record the retries.
func TestResilientRetriesTransient(t *testing.T) {
	in, view, _ := resilientFixture(t)
	q := workload.ChainQuery(3)
	want, err := eval.EvalView(view, q, eval.Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	in.SetFault(1, fault.ShardFault{FailOps: 2})
	r := fastResilience()
	got, err := eval.EvalView(eval.Resilient(view, r), q, eval.Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	if tupleFingerprint(got) != tupleFingerprint(want) {
		t.Fatal("result diverged despite successful retries")
	}
	if n, e := r.Metrics.Retries.Value(), r.Metrics.ShardErrors.Value(); n != 2 || e != 2 {
		t.Fatalf("%d retries after %d shard errors, want 2 of each on shard 1", n, e)
	}
}

// TestResilientPermanentFailsFast: a permanently failing shard is not
// retried: the enumeration fails with a typed ErrShardUnavailable naming the
// shard and wrapping the injected cause.
func TestResilientPermanentFailsFast(t *testing.T) {
	in, view, _ := resilientFixture(t)
	q := workload.ChainQuery(3)
	in.SetFault(2, fault.ShardFault{Permanent: true})
	r := fastResilience()
	_, err := eval.EvalView(eval.Resilient(view, r), q, eval.Options{Parallel: 1})
	var ue *eval.UnavailableError
	if !errors.Is(err, eval.ErrShardUnavailable) || !errors.As(err, &ue) || ue.Shard != 2 || !errors.Is(err, fault.Err) {
		t.Fatalf("err = %v, want shard 2 unavailable with the injected cause", err)
	}
	if e, n := r.Metrics.ShardErrors.Value(), r.Metrics.Retries.Value(); e != 1 || n != 0 {
		t.Fatalf("%d shard errors, %d retries: want exactly one attempt (no retry of permanent errors)", e, n)
	}
}

// TestResilientNilPolicySeesFaults: the scatter over a plain view reads every
// shard through the same seam, once and with no deadline — a permanently
// failing shard fails it with the typed *UnavailableError, a transient one
// too (nothing retries it), and a clean shard set answers in full.
func TestResilientNilPolicySeesFaults(t *testing.T) {
	in, view, _ := resilientFixture(t)
	q := workload.ChainQuery(3)
	want, err := eval.EvalView(view, q, eval.Options{Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []fault.ShardFault{{Permanent: true}, {FailOps: 1}} {
		for _, par := range []int{1, 4} {
			in.SetFault(1, f) // restarts the schedule: FailOps fails the next call
			_, err := eval.EvalView(view, q, eval.Options{Parallel: par})
			var ue *eval.UnavailableError
			if !errors.Is(err, eval.ErrShardUnavailable) || !errors.As(err, &ue) || ue.Shard != 1 {
				t.Fatalf("fault %+v, parallel=%d: err = %v, want shard 1 unavailable", f, par, err)
			}
		}
	}
	in.Clear()
	got, err := eval.EvalView(view, q, eval.Options{Parallel: 4})
	if err != nil || tupleFingerprint(got) != tupleFingerprint(want) {
		t.Fatalf("fault-free scatter after clearing: %v", err)
	}
}

type testTransientErr struct{}

func (testTransientErr) Error() string   { return "scheduled: transient failure" }
func (testTransientErr) Transient() bool { return true }

// scanFault is one shard's schedule in a scheduledScanner: the first slowOps
// calls wait latency before the first tuple, and the first failOps calls
// fail transiently after handing failAfter tuples to the consumer — midway
// through a scan, unlike the injector, which fails before the first tuple.
type scanFault struct {
	latency   time.Duration
	slowOps   int
	failOps   int
	failAfter int
}

// scheduledScanner is a Partitioned imposing a scanFault per shard, safe for
// the concurrent scans of a scatter pool.
type scheduledScanner struct {
	eval.Partitioned
	faults []scanFault

	mu    sync.Mutex
	calls []int
}

func newScheduledScanner(p eval.Partitioned, faults []scanFault) *scheduledScanner {
	return &scheduledScanner{Partitioned: p, faults: faults, calls: make([]int, len(faults))}
}

func (s *scheduledScanner) ShardScan(ctx context.Context, si int, rel string, cols []int, vals []string, fn func(t storage.Tuple) bool) error {
	s.mu.Lock()
	call := s.calls[si]
	s.calls[si]++
	s.mu.Unlock()
	f := s.faults[si]
	if f.latency > 0 && call < f.slowOps {
		timer := time.NewTimer(f.latency)
		select {
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop()
			return ctx.Err()
		}
	}
	if call >= f.failOps {
		return s.Partitioned.ShardScan(ctx, si, rel, cols, vals, fn)
	}
	n, stopped := 0, false
	err := s.Partitioned.ShardScan(ctx, si, rel, cols, vals, func(t storage.Tuple) bool {
		if n >= f.failAfter {
			return false
		}
		n++
		stopped = !fn(t)
		return !stopped
	})
	if err != nil || stopped {
		return err
	}
	return testTransientErr{}
}

// deliveries sums a frame multiset's counts.
func deliveries(m map[string]int) int {
	n := 0
	for _, c := range m {
		n += c
	}
	return n
}

// exactlyOnceFixture is the sharded two-atom chain the exactly-once tests
// enumerate (~150 first-atom tuples per shard, ~6k frames), and its
// fault-free frame multiset.
func exactlyOnceFixture(t *testing.T) (eval.Partitioned, *cq.Query, map[string]int) {
	t.Helper()
	db := workload.ChainDB(2, 600, 64, 7)
	sharded, err := shard.FromDB(db, resilientShards)
	if err != nil {
		t.Fatal(err)
	}
	q := workload.ChainQuery(2)
	return sharded, q, frameMultiset(t, sharded, q, eval.Options{Parallel: 1})
}

// checkExactlyOnce enumerates q through the resilient view over a
// scheduledScanner imposing faults: a success must deliver exactly want, a
// failure must be ErrShardUnavailable.
func checkExactlyOnce(t *testing.T, p eval.Partitioned, q *cq.Query, want map[string]int, faults []scanFault, par int) (*scheduledScanner, error) {
	t.Helper()
	s := newScheduledScanner(p, faults)
	got, err := enumerate(eval.Resilient(s, fastResilience()), q, eval.Options{Parallel: par})
	if err == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("faults %+v, parallel %d: %d deliveries of %d distinct frames, want %d frames exactly once each", faults, par, deliveries(got), len(got), len(want))
	}
	if err != nil && !errors.Is(err, eval.ErrShardUnavailable) {
		t.Fatalf("faults %+v: err = %v, want ErrShardUnavailable", faults, err)
	}
	return s, err
}

// TestResilientExactlyOnceAcrossRetry is the property's fixed case: shard 1's
// first scan fails after 40 delivered tuples, and the retry replays them
// without re-delivering them.
func TestResilientExactlyOnceAcrossRetry(t *testing.T) {
	sharded, q, want := exactlyOnceFixture(t)
	faults := make([]scanFault, resilientShards)
	faults[1] = scanFault{failOps: 1, failAfter: 40}
	s, err := checkExactlyOnce(t, sharded, q, want, faults, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.calls[1] != 2 {
		t.Fatalf("shard 1 scanned %d times, want a retry", s.calls[1])
	}
}

// TestResilientExactlyOnceProperty: whatever the fault schedule — latency,
// transient failures that clear after some calls, failures midway through a
// scan after tuples were already delivered — on one worker or a pool, an
// enumeration through the resilient view that succeeds delivers exactly the
// fault-free frame multiset: a re-attempt replays the shard and skips what
// an earlier attempt delivered. One that fails, fails with
// ErrShardUnavailable. Run under -race.
func TestResilientExactlyOnceProperty(t *testing.T) {
	sharded, q, want := exactlyOnceFixture(t)
	rng := rand.New(rand.NewSource(35))
	trials, succeeded := 40, 0
	for i := 0; i < trials; i++ {
		faults := make([]scanFault, resilientShards)
		for si := range faults {
			if rng.Intn(2) == 0 {
				continue // a healthy shard
			}
			faults[si] = scanFault{
				latency:   time.Duration(rng.Intn(4)) * time.Millisecond,
				slowOps:   rng.Intn(3),
				failOps:   rng.Intn(4), // 3 exhausts the attempt budget
				failAfter: rng.Intn(80),
			}
		}
		if _, err := checkExactlyOnce(t, sharded, q, want, faults, 1+3*rng.Intn(2)); err == nil {
			succeeded++
		}
	}
	if succeeded < trials/2 {
		t.Fatalf("only %d of %d schedules succeeded: the property was barely exercised", succeeded, trials)
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

	r := fastResilience()
	r.Breakers = br
	view = eval.Resilient(view, r)
	run := func() error {
		_, err := eval.EvalView(view, q, eval.Options{Parallel: 1})
		return err
	}

	// Two failing evals reach the threshold and open the breaker.
	for i := 0; i < 2; i++ {
		if err := run(); !errors.Is(err, eval.ErrShardUnavailable) {
			t.Fatalf("eval %d err = %v, want ErrShardUnavailable", i, err)
		}
	}
	if br.State(0) != eval.BreakerOpen {
		t.Fatalf("breaker states = %+v, want shard 0 open", br.States())
	}
	// While open, the shard is rejected without an attempt.
	if err := run(); !errors.Is(err, eval.ErrShardUnavailable) {
		t.Fatalf("eval with open breaker: err = %v, want ErrShardUnavailable", err)
	}
	if rej, e := r.Metrics.BreakerRejects.Value(), r.Metrics.ShardErrors.Value(); rej != 1 || e != 2 {
		t.Fatalf("%d rejections, %d shard errors: want the third eval rejected without an attempt", rej, e)
	}

	// Recover the shard, wait out the cooldown: the half-open probe closes it.
	in.Clear()
	time.Sleep(cooldown + 100*time.Millisecond)
	if err := run(); err != nil {
		t.Fatalf("post-cooldown eval: %v (breakers %+v)", err, br.States())
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
	br.Release(0) // the probe's request was cut short: no verdict
	if br.State(0) != eval.BreakerHalfOpen || !br.Allow(0) {
		t.Fatal("a released probe must leave the breaker half-open, admitting the next probe")
	}
	if br.Allow(0) {
		t.Fatal("the next probe must again be the only one")
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
	if !nilBr.Allow(0) || nilBr.State(0) != eval.BreakerClosed || nilBr.States() != nil {
		t.Fatal("nil Breakers must admit everything and report nothing")
	}
	nilBr.Success(0)
	nilBr.Failure(0)
	nilBr.Release(0)
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
	pl, err := eval.Compile(eval.Resilient(view, r), q)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(20 * time.Millisecond) // lands inside the 50ms backoff
		cancel()
	}()
	start := time.Now()
	_, err = pl.EvalCtx(ctx, eval.Options{Parallel: 4})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("cancel mid-backoff took %v to return", elapsed)
	}
	waitForGoroutines(t, before)
}

// TestInjectorDeterminism: the injector consumes fault schedules by
// per-shard operation count, so the same schedule replays identically.
func TestInjectorDeterminism(t *testing.T) {
	run := func() []string {
		in := fault.NewInjector()
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

// TestResilientDeadlineSparesSlowConsumer: the attempt deadline bounds only
// the wait for a shard's first tuple, never the consumer's work on delivered
// ones. The 4,000-row chain join over 4 shards has no fault, but each
// shard's join work runs well past a 50 ms attempt deadline; it must answer
// in full, with no retry and no shard error. The race detector slows the
// join about tenfold, so there 1,000 rows take each shard past the deadline.
func TestResilientDeadlineSparesSlowConsumer(t *testing.T) {
	rows := 4000
	if raceEnabled {
		rows = 1000
	}
	db := workload.ChainDB(3, rows, 64, 7)
	sharded, err := shard.FromDB(db, resilientShards)
	if err != nil {
		t.Fatal(err)
	}
	q := workload.ChainQuery(3)
	want, err := eval.EvalOpts(db, q, eval.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, resilientShards} {
		r := fastResilience()
		r.AttemptTimeout = 50 * time.Millisecond
		start := time.Now()
		got, err := eval.EvalView(eval.Resilient(sharded, r), q, eval.Options{Parallel: par})
		if err != nil {
			t.Fatalf("parallel=%d: fault-free scan failed after %v: %v", par, time.Since(start), err)
		}
		if tupleFingerprint(got) != tupleFingerprint(want) {
			t.Fatalf("parallel=%d: %d tuples, want the unsharded %d", par, len(got.Tuples), len(want.Tuples))
		}
		if n, e := r.Metrics.Retries.Value(), r.Metrics.ShardErrors.Value(); n != 0 || e != 0 {
			t.Fatalf("parallel=%d: %d retries after %d shard errors without a fault", par, n, e)
		}
		t.Logf("parallel=%d: %d tuples in %v", par, len(got.Tuples), time.Since(start))
	}
}
