package eval_test

// The chain-join workload's costs: the join itself, unsharded and scattered
// over shards, and what draining it through Plan.Each saves over a
// materialized Result.

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"citare/internal/eval"
	"citare/internal/shard"
	"citare/internal/workload"
)

// bytesPerRun is the heap bytes one call of fn allocates, averaged over runs
// calls after a warm-up call.
func bytesPerRun(runs int, fn func()) uint64 {
	fn()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestStreamedJoinAllocs (B18): draining the chain3-600 join through
// Plan.Each into a counting callback allocates at most half the bytes of
// EvalOpts, which materializes the Result. The enumeration reuses one slot
// frame; the Result pays a tuple copy, a key and a dedupe entry per distinct
// output. Measured 0.26× (438,090 against 1,666,777 B/op).
func TestStreamedJoinAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	db := workload.ChainDB(3, 600, 64, 7)
	q := workload.ChainQuery(3)
	plan, err := eval.Compile(eval.DBViewOf(db), q)
	if err != nil {
		t.Fatal(err)
	}
	materialized := bytesPerRun(5, func() {
		if _, err := eval.EvalOpts(db, q, eval.Options{}); err != nil {
			t.Fatal(err)
		}
	})
	frames := 0
	streamed := bytesPerRun(5, func() {
		frames = 0
		err := plan.Each(context.Background(), eval.Options{}, func([]string) error {
			frames++
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
	if frames == 0 {
		t.Fatal("the chain join delivered no frames")
	}
	ratio := float64(streamed) / float64(max(materialized, 1))
	t.Logf("streamed %d B/op over %d frames, materialized %d B/op: %.2fx", streamed, frames, materialized, ratio)
	if ratio > 0.5 {
		t.Fatalf("draining the join through Plan.Each allocates %.2fx the bytes of EvalOpts, want ≤ 0.50x", ratio)
	}
}

// BenchmarkChainJoin prices the 3-chain join: unsharded as the rows per
// relation grow, and at 1,000 rows scattered over 1, 4 and 8 shards with one
// worker per shard.
func BenchmarkChainJoin(b *testing.B) {
	q := workload.ChainQuery(3)
	run := func(b *testing.B, view eval.DBView, opts eval.Options) {
		var n int
		for i := 0; i < b.N; i++ {
			res, err := eval.EvalView(view, q, opts)
			if err != nil {
				b.Fatal(err)
			}
			n = len(res.Tuples)
		}
		b.ReportMetric(float64(n), "out-tuples")
	}
	for _, rows := range []int{100, 1000, 10000} {
		db := workload.ChainDB(3, rows, 64, 7)
		b.Run(fmt.Sprintf("rows=%d/unsharded", rows), func(b *testing.B) {
			run(b, eval.DBViewOf(db), eval.Options{})
		})
	}
	db := workload.ChainDB(3, 1000, 64, 7)
	for _, n := range []int{1, 4, 8} {
		sdb, err := shard.FromDB(db, n)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("rows=1000/shards=%d", n), func(b *testing.B) {
			run(b, sdb, eval.Options{Parallel: n})
		})
	}
}

// BenchmarkChainStream prices the three ways to read the chain3-600 join:
// EvalOpts (compile, evaluate, materialize), Plan.Each draining its frames,
// and Plan.EvalCtx collecting the distinct tuples on the plan compiled once.
func BenchmarkChainStream(b *testing.B) {
	db := workload.ChainDB(3, 600, 64, 7)
	q := workload.ChainQuery(3)
	plan, err := eval.Compile(eval.DBViewOf(db), q)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("materialized", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := eval.EvalOpts(db, q, eval.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("frames", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := plan.Each(context.Background(), eval.Options{}, func([]string) error { return nil }); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("tuples", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := plan.EvalCtx(context.Background(), eval.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
