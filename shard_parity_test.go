package citare

// Property tests for the sharded engine: citations produced through
// shard-partitioned storage with scatter-gather evaluation must be
// byte-identical to the unsharded engine's, on the paper's gtopdb workload
// and the advisor query log, for every shard count. Beside them, how the
// Cites shard key routes citegraph lookups (TestCitegraphShardRouting) and
// what a pruned point citation costs (BenchmarkPrunedPointCite).

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"citare/internal/citegraph"
	"citare/internal/datalog"
	"citare/internal/eval"
	"citare/internal/gtopdb"
	"citare/internal/shard"
	"citare/internal/storage"
)

// gtopdbWorkload is the mixed SQL/datalog query set of the concurrency
// tests plus point lookups that exercise shard pruning.
func gtopdbWorkload() []mixedQuery {
	return append(mixedWorkload(),
		mixedQuery{false, `Q(N) :- Family(F, N, Ty), F = "11"`},
		mixedQuery{false, `Q(Tx) :- FamilyIntro(F, Tx), F = "13"`},
		mixedQuery{true, `SELECT f.FName, i.Text FROM Family f, FamilyIntro i WHERE f.FID = i.FID AND f.FID = '11'`},
	)
}

// advisorWorkload is a query log of family landing pages and type pages —
// the workloads behind the paper's V1 and V5, from which a view advisor
// would mine those views.
func advisorWorkload() []mixedQuery {
	var out []mixedQuery
	for _, fid := range []string{"11", "13", "20"} {
		out = append(out, mixedQuery{false, fmt.Sprintf(`Q(N, Ty) :- Family(%q, N, Ty)`, fid)})
	}
	for _, ty := range []string{"gpcr", "lgic", "nhr"} {
		out = append(out, mixedQuery{false, fmt.Sprintf(`Q(N, Tx) :- Family(F, N, %q), FamilyIntro(F, Tx)`, ty)})
	}
	return out
}

// citationFingerprint renders everything observable about a citation:
// columns, rows, rewritings, per-tuple polynomials and records, and the
// aggregated citation.
func citationFingerprint(t *testing.T, res *Citation) string {
	t.Helper()
	s := fmt.Sprintf("cols=%v rows=%v rewritings=%v|", res.Columns(), res.Rows(), res.Rewritings())
	for i := 0; i < res.NumTuples(); i++ {
		s += tuplePoly(t, res, i) + "§" + tupleJSON(t, res, i) + ";"
	}
	return s + res.CitationJSON()
}

func shardedPaperCiter(t testing.TB, db *storage.DB, shards int, opts ...Option) *Citer {
	t.Helper()
	sdb, err := shard.FromDB(db, shards)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewShardedFromProgram(sdb, gtopdb.ViewsProgram,
		append([]Option{WithNeutralCitation(gtopdb.DatabaseCitation())}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// citegraphWorkload exercises the citegraph policy library: hot-key probes
// on the Zipf head, long-tail resolution, and the deep joins (co-citation,
// two-hop chains, author-transitive provenance, venue roll-ups).
func citegraphWorkload() []mixedQuery {
	cfg := citegraph.ScaleSmall()
	hot, tail := citegraph.HotWork(), citegraph.WorkID(cfg.Works-1)
	return []mixedQuery{
		{false, citegraph.ResolutionQuery(hot)},
		{false, citegraph.ResolutionQuery(tail)},
		{false, citegraph.IncomingQuery(hot)},
		{false, citegraph.CoCitationQuery(hot)},
		{false, citegraph.ChainQuery(tail)},
		{false, citegraph.AuthorProvenanceQuery(citegraph.AuthorID(3))},
		{false, citegraph.VenueRollupQuery(citegraph.VenueID(1))},
	}
}

// citegraphCiter builds the unsharded baseline over a small citegraph
// instance with the full policy library.
func citegraphCiter(t *testing.T, db *storage.DB, opts ...Option) *Citer {
	t.Helper()
	c, err := NewFromProgram(db, citegraph.ViewsProgram,
		append([]Option{WithNeutralCitation(citegraph.DatasetCitation())}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// shardedCitegraphCiter partitions the same instance and builds the sharded
// engine with identical options.
func shardedCitegraphCiter(t *testing.T, db *storage.DB, shards int, opts ...Option) *Citer {
	t.Helper()
	sdb, err := shard.FromDB(db, shards)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewShardedFromProgram(sdb, citegraph.ViewsProgram,
		append([]Option{WithNeutralCitation(citegraph.DatasetCitation())}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestCitegraphShardedParity: the citegraph workload — hot-key skew and deep
// joins included — produces byte-identical citations through the sharded
// engine for 1, 3 and 5 shards, under both Cited and Citing routing
// of the Cites relation.
func TestCitegraphShardedParity(t *testing.T) {
	for _, routing := range []string{"Cited", "Citing"} {
		cfg := citegraph.ScaleSmall()
		cfg.CitesShardKey = routing
		db := citegraph.Generate(cfg)
		base := citegraphCiter(t, db)
		for _, shards := range []int{1, 3, 5} {
			c := shardedCitegraphCiter(t, db, shards)
			for _, q := range citegraphWorkload() {
				want, err := cite(base, q)
				if err != nil {
					t.Fatalf("unsharded %s: %v", q.src, err)
				}
				got, err := cite(c, q)
				if err != nil {
					t.Fatalf("routing=%s shards=%d %s: %v", routing, shards, q.src, err)
				}
				if g, w := citationFingerprint(t, got), citationFingerprint(t, want); g != w {
					t.Fatalf("routing=%s shards=%d %s:\n got %s\nwant %s", routing, shards, q.src, g, w)
				}
			}
		}
	}
}

// TestCitegraphShardRouting (B22) checks, by shard.OpStats' counts alone,
// the routing trade-off the Cites shard key encodes. The same 100 Zipf-drawn
// IncomingTitledQuery lookups (the Cites atom at a deep join step, so every
// probe goes through the union view OpStats counts) run over 4 shards of
// ScaleSmall. Keyed on Cited, a lookup prunes to the one shard owning the
// work, and the Zipf in-degree law piles those lookups onto the hot work's
// shard. Keyed on Citing, every lookup fans out: per-shard load is uniform,
// nothing is pruned. Measured: 100 lookups pruned and per-shard peak/mean
// 1.24x on Cited; 100 fanned out and 1.00x on Citing.
func TestCitegraphShardRouting(t *testing.T) {
	const shards = 4
	type outcome struct {
		pruned, fanout uint64
		imbalance      float64 // per-shard lookups, peak over mean
	}
	route := func(key string) outcome {
		cfg := citegraph.ScaleSmall()
		cfg.CitesShardKey = key
		sdb, err := shard.FromDB(citegraph.Generate(cfg), shards)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range citegraph.ZipfWorks(cfg, 99, 100) {
			q, err := datalog.ParseQuery(citegraph.IncomingTitledQuery(w))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := eval.EvalOn(sdb, q, eval.Options{Parallel: shards}); err != nil {
				t.Fatal(err)
			}
		}
		st := sdb.OpStats()
		var total, peak uint64
		lookups := make([]uint64, len(st.PerShard))
		for i, ps := range st.PerShard {
			lookups[i] = ps.Lookups
			total += ps.Lookups
			peak = max(peak, ps.Lookups)
		}
		mean := float64(total) / float64(len(lookups))
		o := outcome{pruned: st.PrunedLookups, fanout: st.FanoutLookups, imbalance: float64(peak) / mean}
		t.Logf("routing on %s: pruned %d, fan-out %d, per-shard lookups %v (peak/mean %.2fx)", key, o.pruned, o.fanout, lookups, o.imbalance)
		return o
	}
	cited, citing := route("Cited"), route("Citing")
	if cited.pruned == 0 {
		t.Fatal("routing on Cited pruned no lookup: shard-key pruning is off")
	}
	if citing.fanout <= citing.pruned {
		t.Fatalf("routing on Citing: fan-out %d, pruned %d; incoming lookups should fan out", citing.fanout, citing.pruned)
	}
	if cited.imbalance <= citing.imbalance {
		t.Fatalf("per-shard peak/mean %.2fx on Cited against %.2fx on Citing: hot-key routing should skew the load", cited.imbalance, citing.imbalance)
	}
}

// TestShardedEngineParity: for every query of the gtopdb and advisor
// workloads, the sharded engine's full citation output is byte-identical to
// the unsharded engine's, across shard counts.
func TestShardedEngineParity(t *testing.T) {
	db := gtopdb.PaperInstance()
	base, err := NewFromProgram(db, gtopdb.ViewsProgram, WithNeutralCitation(gtopdb.DatabaseCitation()))
	if err != nil {
		t.Fatal(err)
	}
	workloads := []struct {
		name    string
		queries []mixedQuery
	}{
		{"gtopdb", gtopdbWorkload()},
		{"advisor", advisorWorkload()},
	}
	for _, shards := range []int{1, 2, 3, 5} {
		c := shardedPaperCiter(t, db, shards)
		for _, wl := range workloads {
			for _, q := range wl.queries {
				want, err := cite(base, q)
				if err != nil {
					t.Fatalf("unsharded %s: %v", q.src, err)
				}
				got, err := cite(c, q)
				if err != nil {
					t.Fatalf("shards=%d %s: %v", shards, q.src, err)
				}
				if g, w := citationFingerprint(t, got), citationFingerprint(t, want); g != w {
					t.Fatalf("%s workload, shards=%d, %s:\n got %s\nwant %s", wl.name, shards, q.src, g, w)
				}
			}
		}
	}
}

// TestShardedEngineParityGenerated repeats the parity check on a larger
// generated instance where shard pruning and fan-out actually distribute
// work (the paper instance is tiny).
func TestShardedEngineParityGenerated(t *testing.T) {
	cfg := gtopdb.DefaultConfig()
	cfg.Families = 150
	db := gtopdb.Generate(cfg)
	base, err := NewFromProgram(db, gtopdb.ViewsProgram)
	if err != nil {
		t.Fatal(err)
	}
	queries := []mixedQuery{
		{false, `Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), Ty = "type-01"`},
		{false, `Q(N) :- Family(F, N, Ty), F = "37"`},
		{false, `Q(N, Pn) :- Family(F, N, Ty), FC(F, P), Person(P, Pn, A), Ty = "type-02"`},
	}
	sdb, err := shard.FromDB(db, 4)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewShardedFromProgram(sdb, gtopdb.ViewsProgram)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		want, err := cite(base, q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := cite(c, q)
		if err != nil {
			t.Fatal(err)
		}
		if g, w := citationFingerprint(t, got), citationFingerprint(t, want); g != w {
			t.Fatalf("%s:\n got %s\nwant %s", q.src, g, w)
		}
	}
}

// TestShardedReset: writes to the live sharded database become visible
// exactly at Reset, like the unsharded engine.
func TestShardedReset(t *testing.T) {
	db := gtopdb.PaperInstance()
	sdb, err := shard.FromDB(db, 3)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewShardedFromProgram(sdb, gtopdb.ViewsProgram)
	if err != nil {
		t.Fatal(err)
	}
	const q = `Q(N) :- Family(F, N, Ty), Ty = "gpcr"`
	before, err := c.Cite(context.Background(), Request{Datalog: q})
	if err != nil {
		t.Fatal(err)
	}
	sdb.MustInsert("Family", "777", "Shardin", "gpcr")
	mid, err := c.Cite(context.Background(), Request{Datalog: q})
	if err != nil {
		t.Fatal(err)
	}
	if len(mid.Rows()) != len(before.Rows()) {
		t.Fatalf("write visible before Reset: %d rows, want %d", len(mid.Rows()), len(before.Rows()))
	}
	if err := c.Reset(); err != nil {
		t.Fatal(err)
	}
	after, err := c.Cite(context.Background(), Request{Datalog: q})
	if err != nil {
		t.Fatal(err)
	}
	if len(after.Rows()) != len(before.Rows())+1 {
		t.Fatalf("after Reset: %d rows, want %d", len(after.Rows()), len(before.Rows())+1)
	}
}

// TestShardedConcurrentCiteAndReset stresses the sharded engine under
// concurrent mixed-frontend citations racing Resets and live shard writes.
// Run with -race (CI does).
func TestShardedConcurrentCiteAndReset(t *testing.T) {
	db := gtopdb.PaperInstance()
	sdb, err := shard.FromDB(db, 4)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewShardedFromProgram(sdb, gtopdb.ViewsProgram,
		WithNeutralCitation(gtopdb.DatabaseCitation()))
	if err != nil {
		t.Fatal(err)
	}
	queries := gtopdbWorkload()
	const goroutines = 16
	const rounds = 6
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if g == 0 && r%2 == 1 {
					sdb.MustInsert("Family", fmt.Sprintf("x%d_%d", g, r), "Stress", "gpcr")
					if err := c.Reset(); err != nil {
						t.Error(err)
						return
					}
					continue
				}
				q := queries[(g+r)%len(queries)]
				if _, err := cite(c, q); err != nil {
					t.Errorf("%s: %v", q.src, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestShardedCachedCiter drives the cached facade over a sharded engine and
// checks hits accumulate and invalidation picks up shard writes.
func TestShardedCachedCiter(t *testing.T) {
	db := gtopdb.PaperInstance()
	sdb, err := shard.FromDB(db, 2)
	if err != nil {
		t.Fatal(err)
	}
	base, err := NewShardedFromProgram(sdb, gtopdb.ViewsProgram)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCached(base)
	const q = `Q(N) :- Family(F, N, Ty), Ty = "gpcr"`
	first, err := c.Cite(context.Background(), Request{Datalog: q})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Cite(context.Background(), Request{Datalog: q}); err != nil {
		t.Fatal(err)
	}
	if c.CacheStats().Hits == 0 {
		t.Fatal("no cache hits on repeated sharded citation")
	}
	sdb.MustInsert("Family", "888", "CacheFam", "gpcr")
	if err := c.Invalidate(); err != nil {
		t.Fatal(err)
	}
	refreshed, err := c.Cite(context.Background(), Request{Datalog: q})
	if err != nil {
		t.Fatal(err)
	}
	if len(refreshed.Rows()) != len(first.Rows())+1 {
		t.Fatalf("invalidate did not surface shard write: %d rows, want %d",
			len(refreshed.Rows()), len(first.Rows())+1)
	}
}

// BenchmarkPrunedPointCite prices a point citation whose query binds
// Family's shard key, on the 1,000-family instance with warm plans and
// tokens: the sharded engine reads one shard whatever the shard count, so
// its cost should stay flat from 1 to 8 shards and near the unsharded one.
func BenchmarkPrunedPointCite(b *testing.B) {
	const q = `Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), F = "500"`
	cfg := gtopdb.DefaultConfig()
	cfg.Families = 1000
	db := gtopdb.Generate(cfg)
	bench := func(b *testing.B, c *Citer) {
		if _, err := c.Cite(context.Background(), Request{Datalog: q}); err != nil { // warm plans and tokens
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.Cite(context.Background(), Request{Datalog: q}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("unsharded", func(b *testing.B) {
		c, err := NewFromProgram(db, gtopdb.ViewsProgram, WithNeutralCitation(gtopdb.DatabaseCitation()))
		if err != nil {
			b.Fatal(err)
		}
		bench(b, c)
	})
	for _, n := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			bench(b, shardedPaperCiter(b, db, n))
		})
	}
}
