package citare

// Chaos property tests for the fault-tolerant scatter-gather pipeline: with
// zero faults the resilient driver is invisible (citations byte-identical to
// the unsharded engine across shard counts and strategies), a stalled shard
// either fails fast with ErrShardUnavailable or degrades under
// MinShardCoverage with an accurate Coverage report, and cancellation cuts
// through retries promptly without leaking goroutines. Run with -race (CI's
// chaos job does).

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
)

// resilientPaperCiter builds a sharded paper-instance citer with the fault
// injector wrapped around the shard-scan seam and the given resilient
// configuration. The injector applies from the next snapshot, so the epoch
// is cycled once.
func resilientPaperCiter(t *testing.T, shards int, in *fault.Injector, cfg ResilienceConfig) *Citer {
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
			if got.Coverage().Partial() {
				t.Fatalf("shards=%d, %s: fault-free run reported partial coverage %+v", shards, q.src, got.Coverage())
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
	in := fault.NewInjector(42)
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
// stalled (holding every scan until its attempt deadline), the default
// policy fails fast with ErrShardUnavailable, while MinShardCoverage N-1
// returns a degraded citation promptly, paired with a *PartialError whose
// Coverage pins the stalled shard exactly.
func TestChaosStalledShard(t *testing.T) {
	const shards = 3
	const stalled = 1
	in := fault.NewInjector(42)
	in.SetFault(stalled, fault.ShardFault{Stall: true})
	c := resilientPaperCiter(t, shards, in, chaosConfig())
	const q = `Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), Ty = "gpcr"`

	// Default policy: full coverage required. The stall is bounded by the
	// per-attempt deadline, not by the caller's patience — the typed failure
	// arrives in attempt-budget time.
	start := time.Now()
	_, err := c.Cite(context.Background(), Request{Datalog: q})
	if !errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("strict cite err = %v, want ErrShardUnavailable", err)
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("strict fail-fast took %v", el)
	}

	// MinShardCoverage N-1: the surviving shards' citation comes back,
	// tagged partial, with the coverage report naming the stalled shard.
	start = time.Now()
	ct, err := c.Cite(context.Background(), Request{Datalog: q, MinShardCoverage: shards - 1})
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("degraded cite took %v", el)
	}
	var pe *PartialError
	if !errors.As(err, &pe) || ct == nil {
		t.Fatalf("degraded cite = (%v, %v), want citation + *PartialError", ct, err)
	}
	if !errors.Is(err, ErrPartial) {
		t.Fatalf("partial error does not unwrap to ErrPartial: %v", err)
	}
	cov := ct.Coverage()
	if cov == nil || pe.Coverage == nil {
		t.Fatal("degraded citation carries no coverage report")
	}
	if cov.Shards != shards || cov.Skipped != 1 || cov.Answered+cov.Pruned != shards-1 {
		t.Fatalf("coverage %+v, want %d shards with exactly the stalled one skipped", cov, shards)
	}
	if cov.PerShard[stalled].State != eval.ShardSkipped {
		t.Fatalf("stalled shard state %q, want %q (coverage %+v)", cov.PerShard[stalled].State, eval.ShardSkipped, cov)
	}
	if cov.Attempts == 0 || cov.PerShard[stalled].Attempts == 0 {
		t.Fatalf("coverage records no attempts against the stalled shard: %+v", cov)
	}
	for si, sc := range cov.PerShard {
		if si != stalled && sc.State == eval.ShardSkipped {
			t.Fatalf("healthy shard %d reported skipped: %+v", si, cov)
		}
	}
	if len(ct.Rows()) == 0 {
		t.Fatal("degraded citation lost every tuple; surviving shards should still answer")
	}
}

// TestCitegraphChaosParity runs the citegraph workload through the
// resilient sharded engine (ISSUE 9 satellite 2): fault-free it is
// byte-identical to the unsharded baseline; with the shard that owns the
// probed key stalled the strict policy fails fast with ErrShardUnavailable
// while MinShardCoverage N-1 degrades into a partial citation whose coverage
// pins the stalled shard; a strict probe of a key on another shard succeeds.
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
		if got.Coverage().Partial() {
			t.Fatalf("%s: fault-free run reported partial coverage", q.src)
		}
	}

	// One shard stalled: the one that owns the hot work's incoming
	// references (Cites is routed by its Cited column), so the hot-key probe
	// has nowhere else to go.
	c := shardedCitegraphCiter(t, db, shards, WithResilience(chaosConfig()))
	sdb := c.engine.Source().(core.ShardSource).DB
	stalled := sdb.ShardFor("Cites", citegraph.HotWork())
	in := fault.NewInjector(17)
	in.SetFault(stalled, fault.ShardFault{Stall: true})
	c.engine.SetShardWrapper(in.Wrap)
	if err := c.Reset(); err != nil {
		t.Fatal(err)
	}
	q := citegraph.IncomingQuery(citegraph.HotWork())
	if _, err := c.Cite(context.Background(), Request{Datalog: q}); !errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("strict cite err = %v, want ErrShardUnavailable", err)
	}
	ct, err := c.Cite(context.Background(), Request{Datalog: q, MinShardCoverage: shards - 1})
	var pe *PartialError
	if !errors.As(err, &pe) || ct == nil {
		t.Fatalf("degraded cite = (%v, %v), want citation + *PartialError", ct, err)
	}
	cov := ct.Coverage()
	if cov == nil || cov.Shards != shards || cov.Skipped != 1 {
		t.Fatalf("coverage %+v, want %d shards with exactly one skipped", cov, shards)
	}
	if cov.PerShard[stalled].State != eval.ShardSkipped {
		t.Fatalf("stalled shard state %q, want %q", cov.PerShard[stalled].State, eval.ShardSkipped)
	}
	// The VCites rewriting needs the same shard: it is left out, by name.
	if len(ct.Rewritings()) != 0 || len(cov.SkippedViews) != 1 || cov.SkippedViews[0] != "VCites" {
		t.Fatalf("degraded cite kept rewritings %q, skipped views %q; want none kept and VCites skipped", ct.Rewritings(), cov.SkippedViews)
	}

	// A strict request whose every lookup — the query, its unfolded
	// rewriting, the token's citation query — prunes away from the stalled
	// shard never learns of the stall: full coverage, the unsharded bytes.
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
	got, err := c.Cite(context.Background(), Request{Datalog: q})
	if err != nil {
		t.Fatalf("strict cite pruned away from the stalled shard: %v", err)
	}
	if g, w := citationFingerprint(t, got), citationFingerprint(t, want); g != w {
		t.Fatalf("%s:\n got %s\nwant %s", q, g, w)
	}
	if cov := got.Coverage(); cov.Partial() || cov.PerShard[stalled].State != eval.ShardPruned {
		t.Fatalf("coverage %+v, want full with the stalled shard pruned", cov)
	}
}

// TestChaosTransientRecovery: transient failures within the attempt budget
// retry to full success — same bytes as an unfaulted run, full coverage,
// and the retries visible in the coverage accounting.
func TestChaosTransientRecovery(t *testing.T) {
	const q = `Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), Ty = "gpcr"`
	clean := shardedPaperCiter(t, gtopdb.PaperInstance(), 3, WithResilience(ResilienceConfig{Seed: 9}))
	want, err := clean.Cite(context.Background(), Request{Datalog: q})
	if err != nil {
		t.Fatal(err)
	}
	in := fault.NewInjector(9)
	in.SetFault(0, fault.ShardFault{FailOps: 1})
	in.SetFault(2, fault.ShardFault{FailOps: 1})
	c := resilientPaperCiter(t, 3, in, chaosConfig())
	got, err := c.Cite(context.Background(), Request{Datalog: q})
	if err != nil {
		t.Fatalf("cite with transient faults: %v", err)
	}
	if g, w := citationFingerprint(t, got), citationFingerprint(t, want); g != w {
		t.Fatalf("retried citation diverged:\n got %s\nwant %s", g, w)
	}
	cov := got.Coverage()
	if cov.Partial() {
		t.Fatalf("recovered run reported partial coverage: %+v", cov)
	}
	if cov.Retries == 0 {
		t.Fatalf("coverage records no retries despite injected transient faults: %+v", cov)
	}
}

// TestChaosCancelDuringRetry: canceling the request context while the driver
// is waiting out a stalled shard returns ErrCanceled promptly — the retry
// machinery must not outlive its caller — and the goroutine count settles.
func TestChaosCancelDuringRetry(t *testing.T) {
	in := fault.NewInjector(5)
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
