package citare

// B14–B16, B20 — shard-scaling benchmarks: per-shard snapshot cost, pruned
// point-lookup citations (a bound shard key touches one shard),
// scatter-gather join throughput vs the unsharded evaluator, and the
// hedging payoff against a straggling shard.

import (
	"fmt"
	"testing"
	"time"

	"citare/internal/eval"
	"citare/internal/fault"
	"citare/internal/gtopdb"
	"citare/internal/shard"
	"citare/internal/workload"
)

var benchShardCounts = []int{1, 4, 8}

// B14 — sharded snapshot cost stays O(shards × relations): taking a
// snapshot of a partitioned database, and the copy-on-write price of the
// first write into one shard afterwards.
func BenchmarkShardedSnapshot(b *testing.B) {
	cfg := gtopdb.DefaultConfig()
	cfg.Families = 2000
	db := gtopdb.Generate(cfg)
	for _, n := range benchShardCounts {
		sdb, err := shard.FromDB(db, n)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("take/shards=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = sdb.Snapshot()
			}
		})
		b.Run(fmt.Sprintf("take+first-write/shards=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = sdb.Snapshot()
				sdb.MustInsert("Family", fmt.Sprintf("s%d_%d", n, i), "N", "type-01")
			}
		})
	}
}

// B15 — pruned point-lookup citations: the query binds Family's shard key,
// so the sharded engine evaluates against a single shard regardless of the
// shard count.
func BenchmarkPrunedPointCite(b *testing.B) {
	cfg := gtopdb.DefaultConfig()
	cfg.Families = 1000
	db := gtopdb.Generate(cfg)
	const q = `Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), F = "500"`

	bench := func(b *testing.B, c *Citer) {
		b.Helper()
		if _, err := c.CiteDatalog(q); err != nil { // warm plans and tokens once
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.CiteDatalog(q); err != nil {
				b.Fatal(err)
			}
		}
	}

	b.Run("unsharded", func(b *testing.B) {
		c, err := NewFromProgram(db, gtopdb.ViewsProgram)
		if err != nil {
			b.Fatal(err)
		}
		bench(b, c)
	})
	for _, n := range benchShardCounts {
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			sdb, err := shard.FromDB(db, n)
			if err != nil {
				b.Fatal(err)
			}
			c, err := NewShardedFromProgram(sdb, gtopdb.ViewsProgram)
			if err != nil {
				b.Fatal(err)
			}
			bench(b, c)
		})
	}
}

// B16 — scatter-gather join throughput: the chain join's first atom is
// partitioned by shard and gathered; workers=shards.
func BenchmarkScatterGatherJoin(b *testing.B) {
	db := workload.ChainDB(3, 1500, 64, 7)
	q := workload.ChainQuery(3)

	b.Run("unsharded", func(b *testing.B) {
		var n int
		for i := 0; i < b.N; i++ {
			res, err := eval.EvalOpts(db, q, eval.Options{})
			if err != nil {
				b.Fatal(err)
			}
			n = len(res.Tuples)
		}
		b.ReportMetric(float64(n), "out-tuples")
	})
	for _, n := range benchShardCounts {
		sdb, err := shard.FromDB(db, n)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			var out int
			for i := 0; i < b.N; i++ {
				res, err := eval.EvalOn(sdb, q, eval.Options{Parallel: n})
				if err != nil {
					b.Fatal(err)
				}
				out = len(res.Tuples)
			}
			b.ReportMetric(float64(out), "out-tuples")
		})
	}
}

// B20 — hedging against a straggler: scatter-gather citations with one of
// four shards answering its first scan 10ms late. Without hedging every
// request eats the full straggler latency; with hedging the duplicate scan
// (which lands past the shard's slow budget and runs fast) wins after
// HedgeAfter. The fault schedule resets per iteration so every request sees
// the same one-slow-scan world.
func BenchmarkHedgedStraggler(b *testing.B) {
	const lag = 10 * time.Millisecond
	db := gtopdb.PaperInstance()
	const q = `Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), Ty = "gpcr"`
	for _, hedge := range []time.Duration{0, 2 * time.Millisecond} {
		name := "hedge=off"
		if hedge > 0 {
			name = fmt.Sprintf("hedge=%s", hedge)
		}
		b.Run(name, func(b *testing.B) {
			sdb, err := shard.FromDB(db, 4)
			if err != nil {
				b.Fatal(err)
			}
			c, err := NewShardedFromProgram(sdb, gtopdb.ViewsProgram,
				WithResilience(ResilienceConfig{HedgeAfter: hedge, Seed: 20}))
			if err != nil {
				b.Fatal(err)
			}
			in := fault.NewInjector(20)
			c.Engine().SetShardWrapper(in.Wrap)
			if err := c.Reset(); err != nil {
				b.Fatal(err)
			}
			if _, err := c.CiteDatalog(q); err != nil { // warm plans and tokens once
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				in.SetFault(0, fault.ShardFault{Latency: lag, SlowOps: 1})
				if _, err := c.CiteDatalog(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
