package citare

// Chaos property tests for the attempt policy at the shard-scan seam: with
// zero faults it is invisible (citations byte-identical to the unsharded
// engine across shard counts and strategies), a stalled shard fails the
// request fast with ErrShardUnavailable naming it — a citation is whole or
// not given — the injector sits under the policy, which retries what it
// injects, its breakers outlive Reset, and cancellation cuts through retries promptly without
// leaking goroutines or wedging a breaker. Run with -race (CI's chaos job
// does).

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"citare/internal/citegraph"
	"citare/internal/core"
	"citare/internal/eval"
	"citare/internal/fault"
	"citare/internal/gtopdb"
	"citare/internal/obs"
)

// resilientPaperCiter builds a sharded paper-instance citer with the fault
// injector wrapped around the shard-scan seam and the given resilient
// configuration. The injector applies from the next snapshot, so the epoch
// is cycled once; the attempt policy wraps the injector there.
func resilientPaperCiter(t testing.TB, shards int, in *fault.Injector, cfg ResilienceConfig) *Citer {
	t.Helper()
	c := shardedPaperCiter(t, gtopdb.PaperInstance(), shards, WithResilience(cfg))
	c.engine.SetShardWrapper(in.Wrap)
	if err := c.Reset(); err != nil {
		t.Fatal(err)
	}
	return c
}

// chaosConfig keeps chaos tests fast: short attempt deadlines, token
// backoffs, and a breaker too patient to interfere unless a test wants it.
func chaosConfig() ResilienceConfig {
	return ResilienceConfig{
		AttemptTimeout:   50 * time.Millisecond,
		MaxAttempts:      2,
		BackoffBase:      time.Millisecond,
		BackoffMax:       4 * time.Millisecond,
		BreakerThreshold: 1000,
		Seed:             42,
	}
}

// TestResilienceNoFaultParity: with resilience enabled and no faults
// injected, every query of the gtopdb and advisor workloads produces a
// citation byte-identical to the unsharded engine's, across shard counts —
// the armor must be invisible when nothing attacks.
func TestResilienceNoFaultParity(t *testing.T) {
	db := gtopdb.PaperInstance()
	base, err := NewFromProgram(db, gtopdb.ViewsProgram, WithNeutralCitation(gtopdb.DatabaseCitation()))
	if err != nil {
		t.Fatal(err)
	}
	queries := append(gtopdbWorkload(), advisorWorkload()...)
	for _, shards := range []int{1, 2, 3, 5} {
		c := shardedPaperCiter(t, db, shards, WithResilience(ResilienceConfig{Seed: 7}))
		for _, q := range queries {
			want, err := cite(base, q)
			if err != nil {
				t.Fatalf("unsharded %s: %v", q.src, err)
			}
			got, err := cite(c, q)
			if err != nil {
				t.Fatalf("resilient shards=%d %s: %v", shards, q.src, err)
			}
			if g, w := citationFingerprint(t, got), citationFingerprint(t, want); g != w {
				t.Fatalf("resilient shards=%d, %s:\n got %s\nwant %s", shards, q.src, g, w)
			}
		}
	}
}

// TestChaosWithoutResilienceFailsTyped: a sharded Citer without resilience
// reads every shard once, through the seam the injector wraps — a
// permanently failing shard fails the request and its stream with
// ErrShardUnavailable instead of being read around, and answers again once
// the fault clears.
func TestChaosWithoutResilienceFailsTyped(t *testing.T) {
	ctx := context.Background()
	in := fault.NewInjector()
	c := shardedPaperCiter(t, gtopdb.PaperInstance(), 3)
	c.engine.SetShardWrapper(in.Wrap)
	if err := c.Reset(); err != nil {
		t.Fatal(err)
	}
	req := Request{Datalog: `Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), Ty = "gpcr"`}
	want, err := c.Cite(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	in.SetFault(1, fault.ShardFault{Permanent: true})
	if _, err := c.Cite(ctx, req); !errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("cite with shard 1 failing: %v, want ErrShardUnavailable", err)
	}
	if err := c.CiteEach(ctx, req, func(Tuple) error { return nil }); !errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("stream with shard 1 failing: %v, want ErrShardUnavailable", err)
	}
	in.Clear()
	got, err := c.Cite(ctx, req)
	if err != nil || citationFingerprint(t, got) != citationFingerprint(t, want) {
		t.Fatalf("after the fault cleared: %v", err)
	}
}

// TestChaosStalledShard is the headline chaos property: with 1 of N shards
// stalled (holding every scan until its attempt deadline), the request fails
// fast with ErrShardUnavailable, and the typed error names the stalled shard.
func TestChaosStalledShard(t *testing.T) {
	const shards = 3
	const stalled = 1
	in := fault.NewInjector()
	in.SetFault(stalled, fault.ShardFault{Stall: true})
	c := resilientPaperCiter(t, shards, in, chaosConfig())
	const q = `Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), Ty = "gpcr"`

	// The stall is bounded by the per-attempt deadline, not by the caller's
	// patience — the typed failure arrives in attempt-budget time.
	start := time.Now()
	_, err := c.Cite(context.Background(), Request{Datalog: q})
	if !errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("cite err = %v, want ErrShardUnavailable", err)
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("fail-fast took %v", el)
	}
	var ue *eval.UnavailableError
	if !errors.As(err, &ue) || ue.Shard != stalled || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want shard %d unavailable after its attempt deadline", err, stalled)
	}
}

// shardsScanned lists the shards a traced request scanned, from the "shard"
// spans of its report: every evaluation's — the query's, each unfolded
// rewriting's, each token's.
func shardsScanned(ex *Explain) map[int64]bool {
	seen := map[int64]bool{}
	var walk func([]*ExplainStage)
	walk = func(ns []*ExplainStage) {
		for _, n := range ns {
			if n.Name == "shard" {
				seen[n.Attrs["shard"].(int64)] = true
			}
			walk(n.Children)
		}
	}
	walk(ex.Stages)
	return seen
}

// TestCitegraphChaosParity runs the citegraph workload through the
// resilient sharded engine: fault-free it is byte-identical to the
// unsharded baseline; with the shard that owns the probed key stalled the
// request fails fast with ErrShardUnavailable; a probe of a key on another
// shard succeeds with the unsharded bytes, its every scan pruned away from
// the stalled shard.
func TestCitegraphChaosParity(t *testing.T) {
	const shards = 3
	db := citegraph.Generate(citegraph.ScaleSmall())
	base := citegraphCiter(t, db)

	// Fault-free: the armor is invisible on the citegraph deep joins.
	clean := shardedCitegraphCiter(t, db, shards, WithResilience(ResilienceConfig{Seed: 11}))
	for _, q := range citegraphWorkload() {
		want, err := cite(base, q)
		if err != nil {
			t.Fatalf("unsharded %s: %v", q.src, err)
		}
		got, err := cite(clean, q)
		if err != nil {
			t.Fatalf("resilient %s: %v", q.src, err)
		}
		if g, w := citationFingerprint(t, got), citationFingerprint(t, want); g != w {
			t.Fatalf("%s:\n got %s\nwant %s", q.src, g, w)
		}
	}

	// One shard stalled: the one that owns the hot work's incoming
	// references (Cites is routed by its Cited column), so the hot-key probe
	// has nowhere else to go.
	c := shardedCitegraphCiter(t, db, shards, WithResilience(chaosConfig()))
	sdb := c.engine.Source().(core.ShardSource).DB
	stalled := sdb.ShardFor("Cites", citegraph.HotWork())
	in := fault.NewInjector()
	in.SetFault(stalled, fault.ShardFault{Stall: true})
	c.engine.SetShardWrapper(in.Wrap)
	if err := c.Reset(); err != nil {
		t.Fatal(err)
	}
	q := citegraph.IncomingQuery(citegraph.HotWork())
	if _, err := c.Cite(context.Background(), Request{Datalog: q}); !errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("cite err = %v, want ErrShardUnavailable", err)
	}

	// A request whose every lookup — the query, its unfolded rewriting, the
	// token's citation query — prunes away from the stalled shard never
	// learns of the stall: the unsharded bytes, and no scan of that shard.
	healthy := ""
	for i := 1; healthy == ""; i++ {
		if w := citegraph.WorkID(i); sdb.ShardFor("Cites", w) != stalled {
			healthy = w
		}
	}
	q = citegraph.IncomingQuery(healthy)
	want, err := base.Cite(context.Background(), Request{Datalog: q})
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Cite(context.Background(), Request{Datalog: q, Explain: true})
	if err != nil {
		t.Fatalf("cite pruned away from the stalled shard: %v", err)
	}
	if g, w := citationFingerprint(t, got), citationFingerprint(t, want); g != w {
		t.Fatalf("%s:\n got %s\nwant %s", q, g, w)
	}
	if scanned := shardsScanned(got.Explain()); len(scanned) == 0 || scanned[int64(stalled)] {
		t.Fatalf("shards scanned %v, want some and never the stalled shard %d", scanned, stalled)
	}
}

// TestChaosTransientRecovery: transient failures within the attempt budget
// retry to full success — same bytes as an unfaulted run, and the retries
// visible in the policy's counters. The faults are injected by a wrapper
// installed after construction, so the success proves the injector sits
// under the attempt policy.
func TestChaosTransientRecovery(t *testing.T) {
	const q = `Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), Ty = "gpcr"`
	clean := shardedPaperCiter(t, gtopdb.PaperInstance(), 3, WithResilience(ResilienceConfig{Seed: 9}))
	want, err := clean.Cite(context.Background(), Request{Datalog: q})
	if err != nil {
		t.Fatal(err)
	}
	in := fault.NewInjector()
	in.SetFault(0, fault.ShardFault{FailOps: 1})
	in.SetFault(2, fault.ShardFault{FailOps: 1})
	cfg := chaosConfig()
	cfg.Metrics = obs.NewResilienceMetrics(obs.NewRegistry())
	c := resilientPaperCiter(t, 3, in, cfg)
	got, err := c.Cite(context.Background(), Request{Datalog: q})
	if err != nil {
		t.Fatalf("cite with transient faults: %v", err)
	}
	if g, w := citationFingerprint(t, got), citationFingerprint(t, want); g != w {
		t.Fatalf("retried citation diverged:\n got %s\nwant %s", g, w)
	}
	if r, e := cfg.Metrics.Retries.Value(), cfg.Metrics.ShardErrors.Value(); r != 2 || e != 2 {
		t.Fatalf("%d retries after %d shard errors, want one of each per faulted shard", r, e)
	}
}

// TestBreakerSurvivesReset: breakers belong to the Citer, not to an epoch —
// a breaker a dead shard opened stays open across Reset, and the new epoch's
// requests are still rejected at it without touching the shard.
func TestBreakerSurvivesReset(t *testing.T) {
	in := fault.NewInjector()
	in.SetFault(1, fault.ShardFault{Permanent: true})
	cfg := chaosConfig()
	cfg.BreakerThreshold, cfg.BreakerCooldown = 1, time.Hour
	cfg.Metrics = obs.NewResilienceMetrics(obs.NewRegistry())
	c := resilientPaperCiter(t, 3, in, cfg)
	req := Request{Datalog: `Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), Ty = "gpcr"`}
	if _, err := c.Cite(context.Background(), req); !errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("cite err = %v, want ErrShardUnavailable", err)
	}
	if err := c.Reset(); err != nil {
		t.Fatal(err)
	}
	if st := c.Engine().BreakerStates(); len(st) != 3 || st[1].State != string(eval.BreakerOpen) {
		t.Fatalf("breakers after Reset: %+v, want shard 1 open", st)
	}
	in.Clear()
	if _, err := c.Cite(context.Background(), req); !errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("cite after Reset err = %v, want the open breaker's ErrShardUnavailable", err)
	}
	if n := cfg.Metrics.BreakerRejects.Value(); n != 1 {
		t.Fatalf("%d breaker rejections, want the request after Reset rejected", n)
	}
}

// TestBreakerProbeReleasedOnCancel: a half-open probe that its request cuts
// short gives no verdict on the shard. Once the shard is back, the next
// request probes again and closes the breaker, instead of finding it wedged
// half-open for good.
func TestBreakerProbeReleasedOnCancel(t *testing.T) {
	const cooldown = 20 * time.Millisecond
	in := fault.NewInjector()
	c := resilientPaperCiter(t, 3, in, ResilienceConfig{
		AttemptTimeout: 2 * time.Second, MaxAttempts: 1, BreakerThreshold: 1, BreakerCooldown: cooldown,
	})
	req := Request{Datalog: `Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), Ty = "gpcr"`}
	ctx := context.Background()

	in.SetFault(1, fault.ShardFault{Permanent: true})
	if _, err := c.Cite(ctx, req); !errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("cite err = %v, want ErrShardUnavailable", err)
	}
	time.Sleep(2 * cooldown)
	in.SetFault(1, fault.ShardFault{Latency: 500 * time.Millisecond})
	short, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
	_, err := c.Cite(short, req)
	cancel()
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("cite under a 50ms deadline: %v, want ErrCanceled", err)
	}
	in.Clear()
	time.Sleep(2 * cooldown)
	for i := 0; i < 3; i++ {
		if _, err := c.Cite(ctx, req); err != nil {
			t.Fatalf("cite %d after the shard came back: %v (breakers %+v)", i, err, c.Engine().BreakerStates())
		}
	}
	for _, b := range c.Engine().BreakerStates() {
		if b.State != string(eval.BreakerClosed) {
			t.Fatalf("breakers %+v, want every one closed", c.Engine().BreakerStates())
		}
	}
}

// TestChaosCancelDuringRetry: canceling the request context while the driver
// is waiting out a stalled shard returns ErrCanceled promptly — the retry
// machinery must not outlive its caller — and the goroutine count settles.
func TestChaosCancelDuringRetry(t *testing.T) {
	in := fault.NewInjector()
	in.SetFault(1, fault.ShardFault{Stall: true})
	cfg := chaosConfig()
	cfg.AttemptTimeout = 10 * time.Second // the cancel must cut in, not the deadline
	cfg.BackoffBase, cfg.BackoffMax = time.Second, time.Second
	c := resilientPaperCiter(t, 3, in, cfg)
	const q = `Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), Ty = "gpcr"`

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := c.Cite(ctx, Request{Datalog: q})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("cancel-to-return took %v", el)
	}
	waitGoroutines(t, before)
}

// BenchmarkHedgedStraggler prices hedging against a straggler: scatter-gather
// citations over four shards, one of which answers its first scan 10ms late.
// Unhedged, every citation waits out the lag; hedged after 2ms, the duplicate
// scan lands past the shard's slow budget and wins. SetFault resets the
// shard's op counter, so every iteration sees the same one-slow-scan world.
// TestResilientHedgingBeatsStraggler (internal/eval) asserts the payoff.
func BenchmarkHedgedStraggler(b *testing.B) {
	const q = `Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), Ty = "gpcr"`
	for _, hedge := range []time.Duration{0, 2 * time.Millisecond} {
		b.Run("hedge="+hedge.String(), func(b *testing.B) {
			in := fault.NewInjector()
			c := resilientPaperCiter(b, 4, in, ResilienceConfig{HedgeAfter: hedge, Seed: 20})
			if _, err := c.Cite(context.Background(), Request{Datalog: q}); err != nil { // warm plans and tokens
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				in.SetFault(0, fault.ShardFault{Latency: 10 * time.Millisecond, SlowOps: 1})
				if _, err := c.Cite(context.Background(), Request{Datalog: q}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
