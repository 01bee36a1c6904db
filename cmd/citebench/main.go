// Command citebench regenerates the experiment suite of EXPERIMENTS.md: the
// E-group (the paper's worked examples, printed with their outputs) and the
// B-group (measured microbenchmarks for the §4 open problems).
//
//	citebench                     # run everything
//	citebench -exp E3             # one experiment
//	citebench -quick              # fewer timing iterations
//	citebench -json BENCH_3.json  # machine-readable ns/op + allocs/op
//
// The committed BENCH_<pr>.json artifacts form the repo's perf trajectory;
// -regress compares a chain of them, each adjacent pair, as a regression
// gate:
//
//	citebench -regress BENCH_2.json,BENCH_3.json        # warn on >1.5× allocs/op
//	citebench -regress BENCH_3.json,BENCH_5.json,BENCH_6.json,BENCH_7.json
//	citebench -strict -regress OLD,...,NEW              # exit 1 on regression
//
// The allocs/op comparison is deterministic across machines; ns/op is
// reported for context only (single-core CI runners make timing noisy).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"citare"
	"citare/internal/backend"
	"citare/internal/citegraph"
	"citare/internal/core"
	"citare/internal/cq"
	"citare/internal/datalog"
	"citare/internal/eval"
	"citare/internal/fault"
	"citare/internal/gtopdb"
	"citare/internal/lsm"
	"citare/internal/obs"
	"citare/internal/rewrite"
	"citare/internal/shard"
	"citare/internal/storage"
	"citare/internal/workload"
)

var quick bool

func main() {
	exp := flag.String("exp", "", "run a single experiment (E1..E12, B1..B25)")
	jsonPath := flag.String("json", "", "write machine-readable benchmark results (ns/op, allocs/op) to this file and exit")
	regress := flag.String("regress", "", "compare committed bench JSON files OLD,...,NEW pairwise and report allocs/op regressions")
	strict := flag.Bool("strict", false, "with -regress: exit nonzero on regression (default warn-only, for single-core runners)")
	flag.BoolVar(&quick, "quick", false, "fewer timing iterations")
	flag.Parse()

	if *regress != "" {
		ok, err := checkRegression(*regress)
		if err != nil {
			fmt.Fprintln(os.Stderr, "citebench:", err)
			os.Exit(1)
		}
		if !ok && *strict {
			os.Exit(1)
		}
		return
	}
	if *jsonPath != "" {
		if err := writeBenchJSON(*jsonPath); err != nil {
			fmt.Fprintln(os.Stderr, "citebench:", err)
			os.Exit(1)
		}
		return
	}

	experiments := []struct {
		id   string
		name string
		run  func() error
	}{
		{"E1", "Example 2.1 — citations of the five views", runE1},
		{"E2", "Example 2.2 — rewritings of the gpcr-with-intro query", runE2},
		{"E3", "Example 2.3 — rewritings incl. the single-view Q4", runE3},
		{"E4", "Examples 3.1–3.3 — citation semiring (· , + , +R)", runE4},
		{"E7", "Example 3.4 — idempotence collapses the result citation", runE7},
		{"E8", "Example 3.5 — union vs join interpretations", runE8},
		{"E9", "Examples 3.6–3.8 — preference orders", runE9},
		{"E12", "§4 fixity — versioned citations", runE12},
		{"B1", "rewriting cost vs #views", runB1},
		{"B2", "rewriting cost vs query size", runB2},
		{"B3", "citation cost vs database scale", runB3},
		{"B4", "citation size ablation (idempotence, orders)", runB4},
		{"B9", "minimality checks vs raw covers", runB9},
		{"B14", "sharded snapshot cost vs shard count", runB14},
		{"B15", "pruned point-lookup citations", runB15},
		{"B16", "scatter-gather join throughput", runB16},
		{"B17", "batch throughput: CiteBatch vs independent Cite", runB17},
		{"B18", "streamed vs materialized join: bytes/op and allocs/op", runB18},
		{"B19", "instrumentation overhead: disabled vs metrics vs explain", runB19},
		{"B20", "hedging payoff against a straggling shard", runB20},
		{"B21", "citegraph deep-join citation latency at stress scale", runB21},
		{"B22", "citegraph hot-key skew vs uniform shard routing", runB22},
		{"B24", "citegraph batch vs streaming client patterns", runB24},
		{"B25", "LSM persistence: write throughput, cold open, read delta", runB25},
	}
	failed := 0
	for _, e := range experiments {
		if *exp != "" && !strings.EqualFold(*exp, e.id) {
			continue
		}
		fmt.Printf("\n== %s: %s ==\n", e.id, e.name)
		if err := e.run(); err != nil {
			failed++
			fmt.Printf("   FAILED: %v\n", err)
		}
	}
	if failed > 0 {
		os.Exit(1)
	}
}

func plainPolicy() citare.Policy {
	return citare.Policy{Times: citare.Join, Plus: citare.Union, PlusR: citare.Union, Agg: citare.Union}
}

func runE1() error {
	db := gtopdb.PaperInstance()
	views := gtopdb.MustPaperViews()
	for _, tc := range []struct {
		view   string
		params []string
	}{
		{"V1", []string{"11"}},
		{"V2", []string{"11"}},
		{"V3", nil},
		{"V4", []string{"gpcr"}},
		{"V5", []string{"gpcr"}},
	} {
		var cv *core.CitationView
		for _, v := range views {
			if v.Name() == tc.view {
				cv = v
			}
		}
		obj, err := cv.RenderToken(db, core.NewViewToken(tc.view, tc.params...))
		if err != nil {
			return err
		}
		fmt.Printf("   F%s(C%s(%s)) = %s\n", tc.view, tc.view, strings.Join(tc.params, ","), obj.JSON())
	}
	return nil
}

func printRewritings(queryText string) error {
	q, err := datalog.ParseQuery(queryText)
	if err != nil {
		return err
	}
	views := gtopdb.MustPaperViews()
	defs := make([]*cq.Query, len(views))
	for i, v := range views {
		defs[i] = v.Def
	}
	rs, err := rewrite.Enumerate(q, defs, rewrite.Options{})
	if err != nil {
		return err
	}
	fmt.Printf("   query: %s\n", q)
	for _, r := range rs {
		fmt.Printf("   %-55s  views=%d residual=%d total=%v\n",
			r, r.NumViews(), r.ResidualPredicates(), r.IsTotal())
	}
	return nil
}

func runE2() error {
	return printRewritings(`Q(N) :- Family(F, N, Ty), Ty = "gpcr", FamilyIntro(F, Tx)`)
}

func runE3() error {
	return printRewritings(`Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), Ty = "gpcr"`)
}

func runE4() error {
	c, err := citare.NewFromProgram(gtopdb.PaperInstance(), gtopdb.ViewsProgram, citare.WithPolicy(plainPolicy()))
	if err != nil {
		return err
	}
	res, err := c.Cite(context.Background(), citare.Request{Datalog: `Q(N) :- Family(F, N, Ty), Ty = "gpcr", FamilyIntro(F, Tx)`})
	if err != nil {
		return err
	}
	for i, row := range res.Rows() {
		poly, _ := res.TuplePolynomialAt(i) // in range: i walks the rows
		fmt.Printf("   cite(%v) = %s\n", row, poly)
	}
	return nil
}

func runE7() error {
	pol := plainPolicy()
	pol.IdempotentPlus = true
	pol.PreferredRewritings = true
	c, err := citare.NewFromProgram(gtopdb.PaperInstance(), gtopdb.ViewsProgram, citare.WithPolicy(pol))
	if err != nil {
		return err
	}
	res, err := c.Cite(context.Background(), citare.Request{Datalog: `Q(N) :- Family(F, N, Ty), Ty = "gpcr"`})
	if err != nil {
		return err
	}
	fmt.Printf("   %d tuples, one aggregated citation:\n   %s\n", res.NumTuples(), res.CitationJSON())
	return nil
}

func runE8() error {
	for _, times := range []citare.Interp{citare.Union, citare.Join} {
		pol := plainPolicy()
		pol.Times = times
		pol.PreferredRewritings = true
		c, err := citare.NewFromProgram(gtopdb.PaperInstance(), gtopdb.ViewsProgram, citare.WithPolicy(pol))
		if err != nil {
			return err
		}
		res, err := c.Cite(context.Background(), citare.Request{Datalog: `Q(N) :- Family(F, N, Ty), F = "11", FamilyIntro(F, Tx)`})
		if err != nil {
			return err
		}
		record, _ := res.TupleCitationJSONAt(0) // "" for an empty answer
		fmt.Printf("   · as %-5v : %s\n", times, record)
	}
	return nil
}

func runE9() error {
	q := `Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), Ty = "gpcr"`
	views := gtopdb.MustPaperViews()
	configs := []struct {
		name   string
		orders core.Orders
	}{
		{"none", nil},
		{"fewest-views (Ex 3.6)", core.Orders{core.ByViewCount{}}},
		{"fewest-uncovered (Ex 3.7)", core.Orders{core.ByUncovered{}}},
		{"view-inclusion (Ex 3.8)", core.Orders{core.NewByViewInclusion(views)}},
	}
	for _, cfg := range configs {
		pol := plainPolicy()
		pol.Orders = cfg.orders
		c, err := citare.NewFromProgram(gtopdb.PaperInstance(), gtopdb.ViewsProgram, citare.WithPolicy(pol))
		if err != nil {
			return err
		}
		res, err := c.Cite(context.Background(), citare.Request{Datalog: q})
		if err != nil {
			return err
		}
		poly, _ := res.TuplePolynomialAt(0) // "" for an empty answer
		fmt.Printf("   %-26s cite(first tuple) = %s\n", cfg.name, poly)
	}
	return nil
}

func runE12() error {
	dir, err := os.MkdirTemp("", "citebench-e12-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	b, err := backend.OpenLSM(dir, gtopdb.Schema(), lsm.Options{})
	if err != nil {
		return err
	}
	defer b.Close()
	releases := [][][]string{
		{{"Family", "11", "Calcitonin", "gpcr"}, {"FC", "11", "p1"}, {"Person", "p1", "Hay", "U. Auckland"}},
		{{"FC", "11", "p2"}, {"Person", "p2", "Poyner", "Aston U."}},
	}
	for i, writes := range releases {
		for _, w := range writes {
			if err := b.Insert(w[0], w[1:]...); err != nil {
				return err
			}
		}
		if _, err := b.Commit(fmt.Sprintf("release-%d", i+1)); err != nil {
			return err
		}
	}
	head, err := citare.NewBackendFromProgram(b, gtopdb.ViewsProgram)
	if err != nil {
		return err
	}
	for _, ver := range b.Versions() {
		c, err := head.AsOf(ver)
		if err != nil {
			return err
		}
		res, err := c.Cite(context.Background(), citare.Request{Datalog: `Q(N) :- Family(F, N, Ty), F = "11"`})
		if err != nil {
			return err
		}
		record, _ := res.TupleCitationJSONAt(0) // "" for an empty answer
		fmt.Printf("   version %d (%s): %s\n", ver, b.Label(ver), record)
	}
	return nil
}

// timed runs fn `iters` times and reports the average duration.
func timed(iters int, fn func() error) (time.Duration, error) {
	if quick && iters > 3 {
		iters = 3
	}
	start := time.Now()
	for i := 0; i < iters; i++ {
		if err := fn(); err != nil {
			return 0, err
		}
	}
	return time.Since(start) / time.Duration(iters), nil
}

func runB1() error {
	const chain = 6
	q := workload.ChainQuery(chain)
	fmt.Println("   | #views | rewritings | time/op |")
	fmt.Println("   |-------:|-----------:|--------:|")
	for _, n := range []int{6, 11, 15, 18, 21} {
		views := workload.WindowViews(chain, n)
		var count int
		d, err := timed(10, func() error {
			rs, err := rewrite.Enumerate(q, views, rewrite.Options{})
			count = len(rs)
			return err
		})
		if err != nil {
			return err
		}
		fmt.Printf("   | %6d | %10d | %7s |\n", len(views), count, d.Round(time.Microsecond))
	}
	return nil
}

func runB2() error {
	fmt.Println("   | subgoals | rewritings | time/op |")
	fmt.Println("   |---------:|-----------:|--------:|")
	for _, k := range []int{1, 2, 3, 4, 5, 6} {
		q := workload.ChainQuery(k)
		views := workload.WindowViews(k, 2*k)
		var count int
		d, err := timed(10, func() error {
			rs, err := rewrite.Enumerate(q, views, rewrite.Options{})
			count = len(rs)
			return err
		})
		if err != nil {
			return err
		}
		fmt.Printf("   | %8d | %10d | %7s |\n", k, count, d.Round(time.Microsecond))
	}
	return nil
}

func runB3() error {
	fmt.Println("   | families | out-tuples | time/op |")
	fmt.Println("   |---------:|-----------:|--------:|")
	for _, fams := range []int{50, 200, 800} {
		cfg := gtopdb.DefaultConfig()
		cfg.Families = fams
		db := gtopdb.Generate(cfg)
		c, err := citare.NewFromProgram(db, gtopdb.ViewsProgram)
		if err != nil {
			return err
		}
		var tuples int
		d, err := timed(10, func() error {
			res, err := c.Cite(context.Background(), citare.Request{Datalog: `Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), Ty = "type-01"`})
			if err == nil {
				tuples = res.NumTuples()
			}
			return err
		})
		if err != nil {
			return err
		}
		fmt.Printf("   | %8d | %10d | %7s |\n", fams, tuples, d.Round(time.Microsecond))
	}
	return nil
}

func runB4() error {
	cfg := gtopdb.DefaultConfig()
	cfg.Families = 200
	db := gtopdb.Generate(cfg)
	queryText := `Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), Ty = "type-01"`
	policies := []struct {
		name string
		pol  citare.Policy
	}{
		{"raw", plainPolicy()},
		{"idempotent", func() citare.Policy { p := plainPolicy(); p.IdempotentPlus = true; return p }()},
		{"idempotent+orders", func() citare.Policy {
			p := plainPolicy()
			p.IdempotentPlus = true
			p.PreferredRewritings = true
			p.Orders = core.Orders{core.ByUncovered{}, core.ByViewCount{}}
			return p
		}()},
	}
	fmt.Println("   | policy             | monomials | citation bytes | time/op |")
	fmt.Println("   |--------------------|----------:|---------------:|--------:|")
	for _, pc := range policies {
		c, err := citare.NewFromProgram(db, gtopdb.ViewsProgram, citare.WithPolicy(pc.pol))
		if err != nil {
			return err
		}
		var monomials, bytes int
		d, err := timed(5, func() error {
			res, err := c.Cite(context.Background(), citare.Request{Datalog: queryText})
			if err != nil {
				return err
			}
			monomials, bytes = 0, len(res.CitationJSON())
			for ti := 0; ti < res.NumTuples(); ti++ {
				monomials += res.Result().Tuples[ti].Combined.NumMonomials()
			}
			return nil
		})
		if err != nil {
			return err
		}
		fmt.Printf("   | %-18s | %9d | %14d | %7s |\n", pc.name, monomials, bytes, d.Round(time.Microsecond))
	}
	return nil
}

func runB9() error {
	const chain = 5
	q := workload.ChainQuery(chain)
	views := workload.WindowViews(chain, 12)
	fmt.Println("   | mode               | rewritings | time/op |")
	fmt.Println("   |--------------------|-----------:|--------:|")
	for _, mode := range []struct {
		name string
		opts rewrite.Options
	}{
		{"certified+minimal", rewrite.Options{AllowPartial: true}},
		{"raw covers", rewrite.Options{AllowPartial: true, SkipMinimality: true}},
	} {
		var count int
		d, err := timed(5, func() error {
			rs, err := rewrite.Enumerate(q, views, mode.opts)
			count = len(rs)
			return err
		})
		if err != nil {
			return err
		}
		fmt.Printf("   | %-18s | %10d | %7s |\n", mode.name, count, d.Round(time.Microsecond))
	}
	return nil
}

func runB14() error {
	cfg := gtopdb.DefaultConfig()
	cfg.Families = 2000
	db := gtopdb.Generate(cfg)
	fmt.Println("   | shards | snapshot | snapshot+first-write |")
	fmt.Println("   |-------:|---------:|---------------------:|")
	for _, n := range []int{1, 4, 8} {
		sdb, err := shard.FromDB(db, n)
		if err != nil {
			return err
		}
		take, err := timed(200, func() error {
			_ = sdb.Snapshot()
			return nil
		})
		if err != nil {
			return err
		}
		i := 0
		write, err := timed(50, func() error {
			_ = sdb.Snapshot()
			i++
			return sdb.Insert("Family", fmt.Sprintf("w%d_%d", n, i), "N", "type-01")
		})
		if err != nil {
			return err
		}
		fmt.Printf("   | %6d | %8s | %20s |\n", n, take.Round(time.Microsecond), write.Round(time.Microsecond))
	}
	return nil
}

func runB15() error {
	cfg := gtopdb.DefaultConfig()
	cfg.Families = 1000
	db := gtopdb.Generate(cfg)
	const q = `Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), F = "500"`
	fmt.Println("   | engine      | time/op |")
	fmt.Println("   |-------------|--------:|")
	run := func(name string, c *citare.Citer) error {
		if _, err := c.Cite(context.Background(), citare.Request{Datalog: q}); err != nil { // warm plans and tokens once
			return err
		}
		d, err := timed(50, func() error {
			_, err := c.Cite(context.Background(), citare.Request{Datalog: q})
			return err
		})
		if err != nil {
			return err
		}
		fmt.Printf("   | %-11s | %7s |\n", name, d.Round(time.Microsecond))
		return nil
	}
	c, err := citare.NewFromProgram(db, gtopdb.ViewsProgram)
	if err != nil {
		return err
	}
	if err := run("unsharded", c); err != nil {
		return err
	}
	for _, n := range []int{4, 8} {
		sdb, err := shard.FromDB(db, n)
		if err != nil {
			return err
		}
		sc, err := citare.NewShardedFromProgram(sdb, gtopdb.ViewsProgram)
		if err != nil {
			return err
		}
		if err := run(fmt.Sprintf("shards=%d", n), sc); err != nil {
			return err
		}
	}
	return nil
}

func runB16() error {
	db := workload.ChainDB(3, 1000, 64, 7)
	q := workload.ChainQuery(3)
	fmt.Println("   | engine      | out-tuples | time/op |")
	fmt.Println("   |-------------|-----------:|--------:|")
	var tuples int
	d, err := timed(5, func() error {
		res, err := eval.EvalOpts(db, q, eval.Options{})
		if err == nil {
			tuples = len(res.Tuples)
		}
		return err
	})
	if err != nil {
		return err
	}
	fmt.Printf("   | %-11s | %10d | %7s |\n", "unsharded", tuples, d.Round(time.Millisecond))
	for _, n := range []int{4, 8} {
		sdb, err := shard.FromDB(db, n)
		if err != nil {
			return err
		}
		d, err := timed(5, func() error {
			res, err := eval.EvalOn(sdb, q, eval.Options{Parallel: n})
			if err == nil {
				tuples = len(res.Tuples)
			}
			return err
		})
		if err != nil {
			return err
		}
		fmt.Printf("   | shards=%-4d | %10d | %7s |\n", n, tuples, d.Round(time.Millisecond))
	}
	return nil
}

// runB17 measures batch throughput: k requests through CiteBatch (grouped
// by canonical query, one evaluation per equivalence class, concurrent
// groups) against the same k requests as independent Cite calls.
func runB17() error {
	cfg := gtopdb.DefaultConfig()
	cfg.Families = 500
	db := gtopdb.Generate(cfg)
	const k = 16
	const joinQ = `Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), Ty = "type-01"`
	variants := []string{
		joinQ,
		`Q(Name, Text) :- FamilyIntro(Fid, Text), Family(Fid, Name, Kind), Kind = "type-01"`,
	}
	mixed := []string{
		joinQ,
		`Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), F = "250"`,
		`Q(N) :- Family(F, N, Ty), Ty = "type-02"`,
		`Q(N, Pn) :- Family(F, N, Ty), FC(F, P), Person(P, Pn, A), F = "100"`,
	}
	build := func(pool []string) []citare.Request {
		reqs := make([]citare.Request, k)
		for i := range reqs {
			reqs[i] = citare.Request{Datalog: pool[i%len(pool)]}
		}
		return reqs
	}
	ctx := context.Background()
	fmt.Println("   | workload        | mode        | time/batch |")
	fmt.Println("   |-----------------|-------------|-----------:|")
	for _, wl := range []struct {
		name string
		pool []string
	}{
		{"equivalent k=16", variants},
		{"mixed k=16", mixed},
	} {
		reqs := build(wl.pool)
		citer, err := citare.NewFromProgram(db, gtopdb.ViewsProgram)
		if err != nil {
			return err
		}
		if _, err := citer.Cite(ctx, citare.Request{Datalog: joinQ}); err != nil {
			return err // warm plans and tokens
		}
		dBatch, err := timed(20, func() error {
			_, err := citer.CiteBatch(ctx, reqs)
			return err
		})
		if err != nil {
			return err
		}
		dSolo, err := timed(20, func() error {
			for _, req := range reqs {
				if _, err := citer.Cite(ctx, req); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		fmt.Printf("   | %-15s | %-11s | %10s |\n", wl.name, "CiteBatch", dBatch.Round(time.Microsecond))
		fmt.Printf("   | %-15s | %-11s | %10s |\n", wl.name, "independent", dSolo.Round(time.Microsecond))
	}
	return nil
}

// runB18 measures the streamed chain3-600 join — Plan.Each into a counting
// callback — against the materialized path on allocation footprint. The
// enumeration reuses one slot frame, so draining the whole join allocates a
// near-constant amount; the materialized Result pays one tuple copy, one key
// and one dedup entry per distinct output.
func runB18() error {
	db := workload.ChainDB(3, 600, 64, 7)
	q := workload.ChainQuery(3)
	pl, err := eval.Compile(eval.DBViewOf(db), q)
	if err != nil {
		return err
	}
	fmt.Println("   | path                  | rows | bytes/op | allocs/op |")
	fmt.Println("   |-----------------------|-----:|---------:|----------:|")
	report := func(name string, rows int, r testing.BenchmarkResult) {
		fmt.Printf("   | %-21s | %4d | %8d | %9d |\n", name, rows, r.AllocedBytesPerOp(), r.AllocsPerOp())
	}
	var outRows int
	materialized := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := eval.EvalOpts(db, q, eval.Options{})
			if err != nil {
				b.Fatal(err)
			}
			outRows = len(res.Tuples)
		}
	})
	report("materialized result", outRows, materialized)
	var frameRows int
	streamed := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			n := 0
			err := pl.Each(context.Background(), eval.Options{}, func([]string, []eval.Match) error {
				n++
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
			frameRows = n
		}
	})
	report("streamed frames", frameRows, streamed)
	ratio := float64(streamed.AllocedBytesPerOp()) / float64(max(materialized.AllocedBytesPerOp(), 1))
	fmt.Printf("   streamed/materialized bytes/op = %.2fx (target ≤ 0.50x)\n", ratio)
	if ratio > 0.5 {
		return fmt.Errorf("streamed join allocates %.2fx of the materialized path's bytes/op, want ≤ 0.50x", ratio)
	}
	return nil
}

// runB19 measures instrumentation overhead on the cite hot path: the same
// point-lookup citation with observability disabled (no metrics, no
// trace — the production default), with the engine's pipeline metrics
// attached, and with a full per-stage Explain trace. The disabled and
// metered paths ride atomic counters and nil-check short-circuits, so
// neither may allocate beyond the uninstrumented engine; only Explain is
// allowed to pay for its span tree.
func runB19() error {
	cfg := gtopdb.DefaultConfig()
	cfg.Families = 500
	gdb := gtopdb.Generate(cfg)
	const pointQ = `Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), F = "250"`
	newCiter := func() (*citare.Citer, error) {
		c, err := citare.NewFromProgram(gdb, gtopdb.ViewsProgram)
		if err != nil {
			return nil, err
		}
		_, err = c.Cite(context.Background(), citare.Request{Datalog: pointQ}) // warm plans and tokens: steady state
		return c, err
	}
	disabled, err := newCiter()
	if err != nil {
		return err
	}
	metered, err := newCiter()
	if err != nil {
		return err
	}
	metered.Engine().SetMetrics(obs.NewPipelineMetrics(obs.NewRegistry()))
	bench := func(c *citare.Citer, req citare.Request) testing.BenchmarkResult {
		return testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := c.Cite(context.Background(), req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	plainReq := citare.Request{Datalog: pointQ}
	off := bench(disabled, plainReq)
	on := bench(metered, plainReq)
	explained := bench(metered, citare.Request{Datalog: pointQ, Explain: true})
	fmt.Println("   | instrumentation       |    ns/op | allocs/op |")
	fmt.Println("   |-----------------------|---------:|----------:|")
	for _, row := range []struct {
		name string
		r    testing.BenchmarkResult
	}{{"disabled", off}, {"metrics", on}, {"metrics+explain", explained}} {
		fmt.Printf("   | %-21s | %8.0f | %9d |\n", row.name,
			float64(row.r.T.Nanoseconds())/float64(row.r.N), row.r.AllocsPerOp())
	}
	// Metrics ride atomics and pre-registered histograms: the delta over
	// the disabled path must be noise, not structure.
	if delta := on.AllocsPerOp() - off.AllocsPerOp(); delta > 4 {
		return fmt.Errorf("metrics add %d allocs/op over the disabled path, want ~0", delta)
	}
	fmt.Printf("   explain overhead: %+d allocs/op over disabled (span tree, report not built)\n",
		explained.AllocsPerOp()-off.AllocsPerOp())
	return nil
}

// runB20 measures the hedging payoff against a straggler: a scatter-gather
// citation over four shards where one shard answers its first scan 10ms
// late on every request. Unhedged, each citation waits out the full lag;
// with HedgeAfter=2ms, a duplicate attempt (which lands past the shard's
// slow budget and runs fast) wins long before the straggler answers.
func runB20() error {
	const lag = 10 * time.Millisecond
	cfg := gtopdb.DefaultConfig()
	cfg.Families = 500
	gdb := gtopdb.Generate(cfg)
	const joinQ = `Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), Ty = "type-01"`
	bench := func(hedge time.Duration) (testing.BenchmarkResult, error) {
		sdb, err := shard.FromDB(gdb, 4)
		if err != nil {
			return testing.BenchmarkResult{}, err
		}
		c, err := citare.NewShardedFromProgram(sdb, gtopdb.ViewsProgram,
			citare.WithResilience(citare.ResilienceConfig{HedgeAfter: hedge, Seed: 20}))
		if err != nil {
			return testing.BenchmarkResult{}, err
		}
		in := fault.NewInjector(20)
		c.Engine().SetShardWrapper(in.Wrap)
		if err := c.Reset(); err != nil {
			return testing.BenchmarkResult{}, err
		}
		if _, err := c.Cite(context.Background(), citare.Request{Datalog: joinQ}); err != nil { // warm plans and tokens once
			return testing.BenchmarkResult{}, err
		}
		return testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				// SetFault resets the shard's op counter, so every iteration
				// sees the same one-slow-scan world.
				in.SetFault(0, fault.ShardFault{Latency: lag, SlowOps: 1})
				if _, err := c.Cite(context.Background(), citare.Request{Datalog: joinQ}); err != nil {
					b.Fatal(err)
				}
			}
		}), nil
	}
	off, err := bench(0)
	if err != nil {
		return err
	}
	on, err := bench(2 * time.Millisecond)
	if err != nil {
		return err
	}
	fmt.Println("   | hedging   |    ns/op |")
	fmt.Println("   |-----------|---------:|")
	fmt.Printf("   | off       | %8.0f |\n", float64(off.T.Nanoseconds())/float64(off.N))
	fmt.Printf("   | after 2ms | %8.0f |\n", float64(on.T.Nanoseconds())/float64(on.N))
	// The hedged path must dodge most of the straggler latency: anything
	// short of a 2x speedup means the duplicate attempt never won.
	if offNs, onNs := float64(off.T.Nanoseconds())/float64(off.N), float64(on.T.Nanoseconds())/float64(on.N); onNs*2 > offNs {
		return fmt.Errorf("hedging payoff %.2fx, want ≥ 2x against a %v straggler", offNs/onNs, lag)
	}
	return nil
}

// runB21 measures deep-join citation latency on the OpenCitations-shaped
// citegraph workload at stress scale (~1M tuples; -quick drops to the small
// instance). The cold pass pays plan compilation, the snapshot's lazily built
// indexes and token-cache fill; the steady-state table then
// shows the long-tail service mix: µs-scale resolutions, ms-scale incoming
// probes, and the multi-join provenance chains. The hot work's full incoming
// citation is deliberately absent: rendering it materializes the hot key's
// complete reference list once per result tuple (quadratic in in-degree,
// minutes at stress scale) — B22 measures the hot key at the routing layer
// and the soak suite streams it instead.
func runB21() error {
	cfg := citegraph.ScaleStress()
	if quick {
		cfg = citegraph.ScaleSmall()
	}
	start := time.Now()
	db := citegraph.Generate(cfg)
	genD := time.Since(start)
	fmt.Printf("   instance: works=%d authors=%d venues=%d → %d tuples, generated in %v\n",
		cfg.Works, cfg.Authors, cfg.Venues, cfg.TupleCount(), genD.Round(time.Millisecond))
	c, err := citare.NewFromProgram(db, citegraph.ViewsProgram,
		citare.WithNeutralCitation(citegraph.DatasetCitation()))
	if err != nil {
		return err
	}
	hot := citegraph.HotWork()
	mid := citegraph.WorkID(cfg.Works / 120) // off the hot key, still well-cited
	tail := citegraph.WorkID(cfg.Works - 1)
	cases := []struct {
		name    string
		datalog string
		iters   int
	}{
		{"resolution/hot", citegraph.ResolutionQuery(hot), 50},
		{"resolution/tail", citegraph.ResolutionQuery(tail), 50},
		{"incoming/mid", citegraph.IncomingQuery(mid), 10},
		{"co-citation/mid", citegraph.CoCitationQuery(mid), 3},
		{"chain/tail", citegraph.ChainQuery(tail), 3},
		{"author-provenance", citegraph.AuthorProvenanceQuery(citegraph.AuthorID(7)), 3},
		{"venue-rollup", citegraph.VenueRollupQuery(citegraph.VenueID(3)), 5},
	}
	rows := make(map[string]int, len(cases))
	coldStart := time.Now()
	for _, tc := range cases {
		res, err := c.Cite(context.Background(), citare.Request{Datalog: tc.datalog})
		if err != nil {
			return fmt.Errorf("%s: %w", tc.name, err)
		}
		rows[tc.name] = res.NumTuples()
	}
	fmt.Printf("   cold pass (plan compilation + token-cache fill): %v\n",
		time.Since(coldStart).Round(time.Millisecond))
	if rows["resolution/hot"] == 0 || rows["incoming/mid"] == 0 {
		return fmt.Errorf("citegraph workload returned no rows (resolution=%d incoming=%d)",
			rows["resolution/hot"], rows["incoming/mid"])
	}
	fmt.Println("   | query             | rows |     time/op |")
	fmt.Println("   |-------------------|-----:|------------:|")
	for _, tc := range cases {
		d, err := timed(tc.iters, func() error {
			_, err := c.Cite(context.Background(), citare.Request{Datalog: tc.datalog})
			return err
		})
		if err != nil {
			return fmt.Errorf("%s: %w", tc.name, err)
		}
		fmt.Printf("   | %-17s | %4d | %11v |\n", tc.name, rows[tc.name], d.Round(time.Microsecond))
	}
	return nil
}

// runB22 measures the routing trade-off the Cites shard key encodes. Keyed on
// Cited, an incoming-reference lookup prunes to exactly one shard — but the
// Zipf in-degree law concentrates those lookups on the hot work's shard.
// Keyed on Citing, the same lookups fan out to every shard: per-shard load is
// uniform but no lookup is pruned. The experiment runs the same Zipf-drawn
// incoming mix against both layouts and reports per-shard touch counts from
// shard.OpStats.
func runB22() error {
	cfg := citegraph.ScaleStress()
	mixN := 400
	if quick {
		cfg = citegraph.ScaleSmall()
		mixN = 100
	}
	const shards = 4
	type outcome struct {
		imbalance float64
		pruned    uint64
		fanout    uint64
	}
	results := make(map[string]outcome, 2)
	for _, routing := range []string{"Cited", "Citing"} {
		rcfg := cfg
		rcfg.CitesShardKey = routing
		sdb, err := shard.FromDB(citegraph.Generate(rcfg), shards)
		if err != nil {
			return err
		}
		// IncomingTitledQuery anchors the join on Work, so every Cites probe
		// is a deep union-view lookup — the instrumented path OpStats counts.
		queries := make([]*cq.Query, mixN)
		for i, w := range citegraph.ZipfWorks(rcfg, 99, mixN) {
			if queries[i], err = datalog.ParseQuery(citegraph.IncomingTitledQuery(w)); err != nil {
				return err
			}
		}
		d, err := timed(3, func() error {
			for _, q := range queries {
				if _, err := eval.EvalOn(sdb, q, eval.Options{Parallel: shards}); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		stats := sdb.OpStats()
		var total, peak uint64
		for _, ps := range stats.PerShard {
			total += ps.Lookups
			if ps.Lookups > peak {
				peak = ps.Lookups
			}
		}
		mean := float64(total) / float64(len(stats.PerShard))
		o := outcome{imbalance: float64(peak) / mean, pruned: stats.PrunedLookups, fanout: stats.FanoutLookups}
		results[routing] = o
		fmt.Printf("   routing=%s: %v per %d-query mix, pruned=%d fanout=%d, per-shard lookups=%v (peak/mean %.2fx)\n",
			routing, d.Round(time.Microsecond), mixN, o.pruned, o.fanout,
			func() []uint64 {
				ls := make([]uint64, len(stats.PerShard))
				for i, ps := range stats.PerShard {
					ls[i] = ps.Lookups
				}
				return ls
			}(), o.imbalance)
	}
	cited, citing := results["Cited"], results["Citing"]
	if cited.pruned == 0 {
		return fmt.Errorf("routing on Cited pruned no lookups — shard-key pruning is off")
	}
	if citing.fanout <= citing.pruned {
		return fmt.Errorf("routing on Citing should fan incoming lookups out (fanout=%d pruned=%d)",
			citing.fanout, citing.pruned)
	}
	if cited.imbalance <= citing.imbalance {
		return fmt.Errorf("hot-key routing should skew per-shard load: imbalance %.2fx (Cited) vs %.2fx (Citing)",
			cited.imbalance, citing.imbalance)
	}
	fmt.Printf("   skew confirmed: pruned hot-key routing %.2fx vs uniform fan-out %.2fx\n",
		cited.imbalance, citing.imbalance)
	return nil
}

// runB24 compares the three client patterns citesrv exposes over the same
// Zipf-drawn citegraph mix: k independent materialized Cites (the /v1/cite
// loop), one CiteBatchItems call (the /v1/cite/batch body, which groups
// equivalent requests), and per-tuple streaming CiteEach (the NDJSON
// /v1/cite/stream path, which never builds a Result). Streaming must not
// allocate more bytes/op than materializing; batching must not lose to the
// independent loop.
func runB24() error {
	cfg := citegraph.ScaleSmall()
	db := citegraph.Generate(cfg)
	c, err := citare.NewFromProgram(db, citegraph.ViewsProgram,
		citare.WithNeutralCitation(citegraph.DatasetCitation()))
	if err != nil {
		return err
	}
	mix := workload.CiteGraphMix(cfg, 31, 16)
	reqs := make([]citare.Request, len(mix))
	for i, q := range mix {
		reqs[i] = citare.Request{Datalog: q}
		if _, err := c.Cite(context.Background(), reqs[i]); err != nil { // warm views + plans
			return err
		}
	}
	ctx := context.Background()
	independent := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, req := range reqs {
				if _, err := c.Cite(ctx, req); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	batched := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j, item := range c.CiteBatchItems(ctx, reqs) {
				if item.Err != nil {
					b.Fatalf("batch item %d: %v", j, item.Err)
				}
			}
		}
	})
	streamed := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, req := range reqs {
				if err := c.CiteEach(ctx, req, func(citare.Tuple) error { return nil }); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	fmt.Printf("   k=%d mixed citegraph requests per op\n", len(reqs))
	fmt.Println("   | client pattern        |    ns/op |  bytes/op | allocs/op |")
	fmt.Println("   |-----------------------|---------:|----------:|----------:|")
	for _, row := range []struct {
		name string
		r    testing.BenchmarkResult
	}{{"independent Cite", independent}, {"CiteBatchItems", batched}, {"streaming CiteEach", streamed}} {
		fmt.Printf("   | %-21s | %8.0f | %9d | %9d |\n", row.name,
			float64(row.r.T.Nanoseconds())/float64(row.r.N), row.r.AllocedBytesPerOp(), row.r.AllocsPerOp())
	}
	if streamed.AllocedBytesPerOp() > independent.AllocedBytesPerOp() {
		return fmt.Errorf("streaming allocates %d bytes/op vs %d materialized — CiteEach built Results",
			streamed.AllocedBytesPerOp(), independent.AllocedBytesPerOp())
	}
	if batchNs, indNs := float64(batched.T.Nanoseconds())/float64(batched.N),
		float64(independent.T.Nanoseconds())/float64(independent.N); batchNs > indNs*1.2 {
		return fmt.Errorf("CiteBatchItems %.0f ns/op vs %.0f independent — batching lost its grouping payoff", batchNs, indNs)
	}
	return nil
}

// runB25 measures the persistence tax of the LSM backend at stress scale
// (-quick drops to the small instance): WAL-append write throughput for the
// bulk load, the cold-open path — manifest + SSTable open time plus the
// first citation, which evaluates straight off the SSTables — and
// the steady-state read delta between an in-memory Citer and the
// LSM-backed one serving the identical citegraph workload.
func runB25() error {
	cfg := citegraph.ScaleStress()
	if quick {
		cfg = citegraph.ScaleSmall()
	}
	dir, err := os.MkdirTemp("", "citebench-lsm-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	db := citegraph.Generate(cfg)

	// Write path: every insert is a WAL append + memtable put (+ periodic
	// flush to SSTable); the closing flush makes the load fully durable.
	lb, err := backend.OpenLSM(dir, citegraph.Schema(cfg), lsm.Options{MemtableBytes: 64 << 20})
	if err != nil {
		return err
	}
	n := 0
	start := time.Now()
	for _, rs := range db.Schema().Relations() {
		var ierr error
		db.Relation(rs.Name).Scan(func(t storage.Tuple) bool {
			if ierr = lb.Insert(rs.Name, t...); ierr != nil {
				return false
			}
			n++
			return true
		})
		if ierr != nil {
			return ierr
		}
	}
	if _, err := lb.Commit("base"); err != nil {
		return err
	}
	writeD := time.Since(start)
	st := lb.Store().Stats()
	fmt.Printf("   write: %d tuples in %v — %.0f tuples/s WAL-append + memtable (%d flushes, %d compactions so far)\n",
		n, writeD.Round(time.Millisecond), float64(n)/writeD.Seconds(), st.Flushes, st.Compactions)
	closeStart := time.Now()
	if err := lb.Close(); err != nil {
		return err
	}
	fmt.Printf("   close (final flush + WAL sync): %v\n", time.Since(closeStart).Round(time.Millisecond))

	// Cold open: manifest read, SSTable footers/indexes/blooms, WAL replay
	// (empty after a clean close) — no data reload.
	openStart := time.Now()
	re, err := backend.OpenLSM(dir, nil, lsm.Options{})
	if err != nil {
		return err
	}
	defer re.Close()
	openD := time.Since(openStart)
	rst := re.Store().Stats()
	tables := 0
	for _, l := range rst.Levels {
		tables += l.Tables
	}
	lsmCiter, err := citare.NewBackendFromProgram(re, citegraph.ViewsProgram,
		citare.WithNeutralCitation(citegraph.DatasetCitation()))
	if err != nil {
		return err
	}
	hot := citegraph.HotWork()
	mid := citegraph.WorkID(cfg.Works / 120)
	coldStart := time.Now()
	if _, err := lsmCiter.Cite(context.Background(), citare.Request{Datalog: citegraph.ResolutionQuery(hot)}); err != nil {
		return err
	}
	fmt.Printf("   cold open: %v to open (%d SSTables), %v to first citation (evaluated off SSTables)\n",
		openD.Round(time.Millisecond), tables, time.Since(coldStart).Round(time.Millisecond))

	// Read delta: identical queries, identical data, in-memory vs LSM-backed
	// citer, both past their cold pass. Citations of the working set come out
	// of the plan and token caches on both sides; what is left of the delta
	// is one block-cache lookup per base-relation probe.
	memCiter, err := citare.NewFromProgram(db, citegraph.ViewsProgram,
		citare.WithNeutralCitation(citegraph.DatasetCitation()))
	if err != nil {
		return err
	}
	cases := []struct {
		name    string
		datalog string
		iters   int
	}{
		{"resolution/hot", citegraph.ResolutionQuery(hot), 50},
		{"incoming/mid", citegraph.IncomingQuery(mid), 10},
		{"venue-rollup", citegraph.VenueRollupQuery(citegraph.VenueID(3)), 5},
	}
	fmt.Println("   | query          |   memory/op |      lsm/op | delta |")
	fmt.Println("   |----------------|------------:|------------:|------:|")
	for _, tc := range cases {
		warm := func(c *citare.Citer) error {
			_, err := c.Cite(context.Background(), citare.Request{Datalog: tc.datalog})
			return err
		}
		if err := warm(memCiter); err != nil {
			return fmt.Errorf("%s: %w", tc.name, err)
		}
		if err := warm(lsmCiter); err != nil {
			return fmt.Errorf("%s: %w", tc.name, err)
		}
		memD, err := timed(tc.iters, func() error { return warm(memCiter) })
		if err != nil {
			return err
		}
		lsmD, err := timed(tc.iters, func() error { return warm(lsmCiter) })
		if err != nil {
			return err
		}
		fmt.Printf("   | %-14s | %11v | %11v | %4.2fx |\n", tc.name,
			memD.Round(time.Microsecond), lsmD.Round(time.Microsecond),
			float64(lsmD)/float64(memD))
	}
	return nil
}

// allocRegressionTolerance is the allocs/op ratio (new/old) above which a
// benchmark counts as regressed. Generous on purpose: allocation counts are
// deterministic but small suites jitter a little with map layouts and LRU
// state, and the gate should only catch real structural regressions.
const allocRegressionTolerance = 1.5

// checkRegression compares a chain of committed bench JSON artifacts
// ("OLD,...,NEW", oldest first) pairwise on allocs/op, printing a table per
// adjacent pair and reporting whether every benchmark shared by a pair
// stayed within tolerance. ns/op is shown for context only.
func checkRegression(spec string) (ok bool, err error) {
	parts := strings.Split(spec, ",")
	if len(parts) < 2 {
		return false, fmt.Errorf("-regress wants OLD.json,...,NEW.json (at least two files), got %q", spec)
	}
	ok = true
	for i := 0; i+1 < len(parts); i++ {
		fmt.Printf("== %s -> %s ==\n", parts[i], parts[i+1])
		pairOK, err := checkRegressionPair(parts[i], parts[i+1])
		if err != nil {
			return false, err
		}
		ok = ok && pairOK
	}
	return ok, nil
}

// checkRegressionPair gates one OLD→NEW step of the perf trajectory.
func checkRegressionPair(oldPath, newPath string) (ok bool, err error) {
	load := func(path string) (map[string]benchJSON, error) {
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var list []benchJSON
		if err := json.Unmarshal(raw, &list); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		m := make(map[string]benchJSON, len(list))
		for _, b := range list {
			m[b.Name] = b
		}
		return m, nil
	}
	oldM, err := load(oldPath)
	if err != nil {
		return false, err
	}
	newM, err := load(newPath)
	if err != nil {
		return false, err
	}
	names := make([]string, 0, len(newM))
	for name := range newM {
		if _, shared := oldM[name]; shared {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return false, fmt.Errorf("no shared benchmarks between %s and %s", oldPath, newPath)
	}
	ok = true
	// A benchmark that vanished from NEW is a gate hole, not a pass: flag it.
	for name := range oldM {
		if _, still := newM[name]; !still {
			ok = false
			fmt.Printf("%-45s MISSING from %s\n", name, newPath)
		}
	}
	fmt.Printf("%-45s %12s %12s %7s\n", "benchmark", "allocs(old)", "allocs(new)", "ratio")
	for _, name := range names {
		o, n := oldM[name], newM[name]
		// Compare against at least 1 alloc so an old 0-alloc benchmark that
		// starts allocating still trips the gate instead of dividing to 0.
		oldAllocs := max(o.AllocsPerOp, 1)
		ratio := float64(n.AllocsPerOp) / float64(oldAllocs)
		status := ""
		if ratio > allocRegressionTolerance {
			ok = false
			status = "  REGRESSION"
		}
		fmt.Printf("%-45s %12d %12d %6.2fx%s  (%.0f→%.0f ns/op)\n",
			name, o.AllocsPerOp, n.AllocsPerOp, ratio, status, o.NsPerOp, n.NsPerOp)
	}
	if !ok {
		fmt.Printf("allocs/op regression beyond %.1fx tolerance (or missing benchmark) detected\n", allocRegressionTolerance)
	}
	return ok, nil
}

// benchJSON is one benchmark's machine-readable result.
type benchJSON struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// writeBenchJSON measures the recorded benchmark suite with
// testing.Benchmark and writes the results as JSON, so every PR's perf
// trajectory lands in a diffable BENCH_<pr>.json artifact.
func writeBenchJSON(path string) error {
	cfg := gtopdb.DefaultConfig()
	cfg.Families = 500
	gdb := gtopdb.Generate(cfg)
	chainDB := workload.ChainDB(3, 600, 64, 7)
	chainQ := workload.ChainQuery(3)
	chainPlan, err := eval.Compile(eval.DBViewOf(chainDB), chainQ)
	if err != nil {
		return err
	}
	sdb4, err := shard.FromDB(gdb, 4)
	if err != nil {
		return err
	}
	chain4, err := shard.FromDB(chainDB, 4)
	if err != nil {
		return err
	}
	citer, err := citare.NewFromProgram(gdb, gtopdb.ViewsProgram)
	if err != nil {
		return err
	}
	shardedCiter, err := citare.NewShardedFromProgram(sdb4, gtopdb.ViewsProgram)
	if err != nil {
		return err
	}
	const pointQ = `Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), F = "250"`
	const joinQ = `Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), Ty = "type-01"`
	// Materialize views once so steady-state cost is measured.
	if _, err := citer.Cite(context.Background(), citare.Request{Datalog: pointQ}); err != nil {
		return err
	}
	if _, err := shardedCiter.Cite(context.Background(), citare.Request{Datalog: pointQ}); err != nil {
		return err
	}
	// A separate instrumented citer so `citer` stays uninstrumented for
	// every other entry; `obs/cite-disabled` vs `obs/cite-metrics` is the
	// regression-gated instrumentation-overhead pair (B19).
	obsCiter, err := citare.NewFromProgram(gdb, gtopdb.ViewsProgram)
	if err != nil {
		return err
	}
	if _, err := obsCiter.Cite(context.Background(), citare.Request{Datalog: pointQ}); err != nil {
		return err
	}
	obsCiter.Engine().SetMetrics(obs.NewPipelineMetrics(obs.NewRegistry()))

	// Resilient twins for the fault-tolerance entries: one fault-free (the
	// resilience=on/off pair bounds the driver's hot-path overhead) and two
	// with a scheduled straggler shard (the B20 hedging payoff pair). Each
	// gets its own shard.FromDB so engines never share snapshot state.
	resilientCiter := func(hedge time.Duration, in *fault.Injector) (*citare.Citer, error) {
		rs, err := shard.FromDB(gdb, 4)
		if err != nil {
			return nil, err
		}
		c, err := citare.NewShardedFromProgram(rs, gtopdb.ViewsProgram,
			citare.WithResilience(citare.ResilienceConfig{HedgeAfter: hedge, Seed: 20}))
		if err != nil {
			return nil, err
		}
		if in != nil {
			c.Engine().SetShardWrapper(in.Wrap)
			if err := c.Reset(); err != nil {
				return nil, err
			}
		}
		if _, err := c.Cite(context.Background(), citare.Request{Datalog: joinQ}); err != nil { // warm plans and tokens once
			return nil, err
		}
		return c, nil
	}
	resilCiter, err := resilientCiter(0, nil)
	if err != nil {
		return err
	}
	hedgeOffIn := fault.NewInjector(20)
	hedgeOffCiter, err := resilientCiter(0, hedgeOffIn)
	if err != nil {
		return err
	}
	hedgeOnIn := fault.NewInjector(20)
	hedgeOnCiter, err := resilientCiter(2*time.Millisecond, hedgeOnIn)
	if err != nil {
		return err
	}

	// Citegraph entries (B21–B24) ride the small instance so the recorded
	// suite stays fast and allocation-deterministic; the ~1M-tuple stress
	// scale lives in the interactive B21/B22 runs.
	cgCfg := citegraph.ScaleSmall()
	cgCiter, err := citare.NewFromProgram(citegraph.Generate(cgCfg), citegraph.ViewsProgram,
		citare.WithNeutralCitation(citegraph.DatasetCitation()))
	if err != nil {
		return err
	}
	cgQueries := []string{
		citegraph.ResolutionQuery(citegraph.HotWork()),
		citegraph.IncomingQuery(citegraph.HotWork()),
		citegraph.CoCitationQuery(citegraph.HotWork()),
		citegraph.AuthorProvenanceQuery(citegraph.AuthorID(3)),
	}
	for _, q := range cgQueries { // compile citegraph plans + fill token caches
		if _, err := cgCiter.Cite(context.Background(), citare.Request{Datalog: q}); err != nil {
			return err
		}
	}
	cgBatch := make([]citare.Request, 8)
	for i, q := range workload.CiteGraphMix(cgCfg, 31, 8) {
		cgBatch[i] = citare.Request{Datalog: q}
		if _, err := cgCiter.Cite(context.Background(), cgBatch[i]); err != nil {
			return err
		}
	}
	// The B22 routing pair: the same Zipf-drawn incoming mix against a
	// Cites table sharded on Cited (pruned, hot-key skewed) vs Citing
	// (uniform, full fan-out).
	routedLookups := func(routing string) (*shard.DB, []*cq.Query, error) {
		rcfg := cgCfg
		rcfg.CitesShardKey = routing
		sdb, err := shard.FromDB(citegraph.Generate(rcfg), 4)
		if err != nil {
			return nil, nil, err
		}
		qs := make([]*cq.Query, 8)
		for i, w := range citegraph.ZipfWorks(rcfg, 99, len(qs)) {
			if qs[i], err = datalog.ParseQuery(citegraph.IncomingTitledQuery(w)); err != nil {
				return nil, nil, err
			}
		}
		return sdb, qs, nil
	}
	citedSdb, citedQs, err := routedLookups("Cited")
	if err != nil {
		return err
	}
	citingSdb, citingQs, err := routedLookups("Citing")
	if err != nil {
		return err
	}
	// B25 persistence entries: the small citegraph instance in a temp LSM
	// store. One populated store backs the reopen and read-delta entries;
	// a second, write-only store takes the WAL-append and commit entries so
	// the read store's level layout stays fixed across iterations.
	lsmDir, err := os.MkdirTemp("", "citebench-lsm-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(lsmDir)
	readDir, writeDir := lsmDir+"/read", lsmDir+"/write"
	seed, err := backend.OpenLSM(readDir, citegraph.Schema(cgCfg), lsm.Options{})
	if err != nil {
		return err
	}
	cgDB := citegraph.Generate(cgCfg)
	for _, rs := range cgDB.Schema().Relations() {
		var ierr error
		cgDB.Relation(rs.Name).Scan(func(t storage.Tuple) bool {
			ierr = seed.Insert(rs.Name, t...)
			return ierr == nil
		})
		if ierr != nil {
			return ierr
		}
	}
	if _, err := seed.Commit("base"); err != nil {
		return err
	}
	if err := seed.Close(); err != nil {
		return err
	}
	lsmBack, err := backend.OpenLSM(readDir, nil, lsm.Options{})
	if err != nil {
		return err
	}
	defer lsmBack.Close()
	lsmCiter, err := citare.NewBackendFromProgram(lsmBack, citegraph.ViewsProgram,
		citare.WithNeutralCitation(citegraph.DatasetCitation()))
	if err != nil {
		return err
	}
	if _, err := lsmCiter.Cite(context.Background(), citare.Request{Datalog: cgQueries[0]}); err != nil { // first citation off SSTables
		return err
	}
	writeBack, err := backend.OpenLSM(writeDir, citegraph.Schema(cgCfg), lsm.Options{})
	if err != nil {
		return err
	}
	defer writeBack.Close()
	lsmNext := 2000000 // WorkIDs far past anything the generator handed out

	mustCite := func(b *testing.B, c *citare.Citer, q string) {
		if _, err := c.Cite(context.Background(), citare.Request{Datalog: q}); err != nil {
			b.Fatal(err)
		}
	}
	batchReqs := func(k int, pool []string) []citare.Request {
		reqs := make([]citare.Request, k)
		for i := range reqs {
			reqs[i] = citare.Request{Datalog: pool[i%len(pool)]}
		}
		return reqs
	}
	suite := []struct {
		name string
		fn   func(b *testing.B)
	}{
		{"rewrite-enumeration/chain5-views12", func(b *testing.B) {
			q := workload.ChainQuery(5)
			views := workload.WindowViews(5, 12)
			for i := 0; i < b.N; i++ {
				if _, err := rewrite.Enumerate(q, views, rewrite.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"cite/gtopdb-join/families=500", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mustCite(b, citer, joinQ)
			}
		}},
		{"cite/point-lookup/unsharded/families=500", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mustCite(b, citer, pointQ)
			}
		}},
		{"cite/point-lookup/shards=4/families=500", func(b *testing.B) { // B15
			for i := 0; i < b.N; i++ {
				mustCite(b, shardedCiter, pointQ)
			}
		}},
		{"snapshot/unsharded/families=500", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = gdb.Snapshot()
			}
		}},
		{"snapshot/shards=4/families=500", func(b *testing.B) { // B14
			for i := 0; i < b.N; i++ {
				_ = sdb4.Snapshot()
			}
		}},
		{"join/chain3-600/unsharded", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := eval.EvalOpts(chainDB, chainQ, eval.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"stream/chain3-600/frames", func(b *testing.B) { // B18
			for i := 0; i < b.N; i++ {
				err := chainPlan.Each(context.Background(), eval.Options{}, func([]string, []eval.Match) error { return nil })
				if err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"stream/chain3-600/tuples", func(b *testing.B) { // B18
			for i := 0; i < b.N; i++ {
				// The distinct-tuple side of the same enumeration: EvalCtx is
				// Each with set semantics, on the plan compiled once.
				if _, err := chainPlan.EvalCtx(context.Background(), eval.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"cite-each/gtopdb-join/families=500", func(b *testing.B) { // B18 cite level
			req := citare.Request{Datalog: joinQ}
			for i := 0; i < b.N; i++ {
				if err := citer.CiteEach(context.Background(), req, func(citare.Tuple) error { return nil }); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"join/chain3-600/scatter-gather/shards=4", func(b *testing.B) { // B16
			for i := 0; i < b.N; i++ {
				if _, err := eval.EvalOn(chain4, chainQ, eval.Options{Parallel: 4}); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"cite-batch/equivalent-k=16/families=500", func(b *testing.B) { // B17
			reqs := batchReqs(16, []string{
				joinQ,
				`Q(Name, Text) :- FamilyIntro(Fid, Text), Family(Fid, Name, Kind), Kind = "type-01"`,
			})
			for i := 0; i < b.N; i++ {
				if _, err := citer.CiteBatch(context.Background(), reqs); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"cite-batch/independent-k=16/families=500", func(b *testing.B) { // B17 baseline
			reqs := batchReqs(16, []string{
				joinQ,
				`Q(Name, Text) :- FamilyIntro(Fid, Text), Family(Fid, Name, Kind), Kind = "type-01"`,
			})
			for i := 0; i < b.N; i++ {
				for _, req := range reqs {
					if _, err := citer.Cite(context.Background(), req); err != nil {
						b.Fatal(err)
					}
				}
			}
		}},
		{"cite-batch/mixed-k=16/families=500", func(b *testing.B) { // B17
			reqs := batchReqs(16, []string{
				joinQ,
				pointQ,
				`Q(N) :- Family(F, N, Ty), Ty = "type-02"`,
				`Q(N, Pn) :- Family(F, N, Ty), FC(F, P), Person(P, Pn, A), F = "100"`,
			})
			for i := 0; i < b.N; i++ {
				if _, err := citer.CiteBatch(context.Background(), reqs); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"obs/cite-disabled/families=500", func(b *testing.B) { // B19 baseline
			req := citare.Request{Datalog: pointQ}
			for i := 0; i < b.N; i++ {
				if _, err := citer.Cite(context.Background(), req); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"obs/cite-metrics/families=500", func(b *testing.B) { // B19
			req := citare.Request{Datalog: pointQ}
			for i := 0; i < b.N; i++ {
				if _, err := obsCiter.Cite(context.Background(), req); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"obs/cite-explain/families=500", func(b *testing.B) { // B19
			req := citare.Request{Datalog: pointQ, Explain: true}
			for i := 0; i < b.N; i++ {
				if _, err := obsCiter.Cite(context.Background(), req); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"obs/registry-hot-path", func(b *testing.B) { // B19: zero-alloc instruments
			reg := obs.NewRegistry()
			c := reg.Counter("bench_ops_total", "Bench counter.")
			h := reg.Histogram("bench_latency_seconds", "Bench histogram.", obs.DefLatencyBuckets)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Inc()
				h.Observe(time.Duration(i))
			}
		}},
		// Resilience-overhead pair: the same scatter-gather join with the
		// resilient driver off vs on, zero faults injected — the fault
		// tolerance must be near-free when nothing fails.
		{"cite/gtopdb-join/shards=4/resilience=off", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mustCite(b, shardedCiter, joinQ)
			}
		}},
		{"cite/gtopdb-join/shards=4/resilience=on", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mustCite(b, resilCiter, joinQ)
			}
		}},
		// B20 — hedging payoff: one of four shards answers its first scan
		// 10ms late every request (SetFault resets the shard's op counter, so
		// each iteration sees the same one-slow-scan world). Without hedging
		// every citation eats the straggler latency; with hedging the
		// duplicate scan lands past the slow budget and wins after 2ms.
		{"resilience/slow-shard-10ms/hedge=off/shards=4", func(b *testing.B) { // B20 baseline
			for i := 0; i < b.N; i++ {
				hedgeOffIn.SetFault(0, fault.ShardFault{Latency: 10 * time.Millisecond, SlowOps: 1})
				mustCite(b, hedgeOffCiter, joinQ)
			}
		}},
		{"resilience/slow-shard-10ms/hedge=2ms/shards=4", func(b *testing.B) { // B20
			for i := 0; i < b.N; i++ {
				hedgeOnIn.SetFault(0, fault.ShardFault{Latency: 10 * time.Millisecond, SlowOps: 1})
				mustCite(b, hedgeOnCiter, joinQ)
			}
		}},
		// Citegraph stress-workload entries (B21, B22, B24) at small scale:
		// deep joins, hot-key skew and the batch / streaming clients.
		{"citegraph/cite/resolution-hot/scale=small", func(b *testing.B) { // B21
			for i := 0; i < b.N; i++ {
				mustCite(b, cgCiter, cgQueries[0])
			}
		}},
		{"citegraph/cite/incoming-hot/scale=small", func(b *testing.B) { // B21 hot key
			for i := 0; i < b.N; i++ {
				mustCite(b, cgCiter, cgQueries[1])
			}
		}},
		{"citegraph/cite/cocite-hot/scale=small", func(b *testing.B) { // B21 deep join
			for i := 0; i < b.N; i++ {
				mustCite(b, cgCiter, cgQueries[2])
			}
		}},
		{"citegraph/cite/author-provenance/scale=small", func(b *testing.B) { // B21 deep join
			for i := 0; i < b.N; i++ {
				mustCite(b, cgCiter, cgQueries[3])
			}
		}},
		{"citegraph/lookup/incoming-mix/routing=cited/shards=4", func(b *testing.B) { // B22 pruned+skewed
			for i := 0; i < b.N; i++ {
				for _, q := range citedQs {
					if _, err := eval.EvalOn(citedSdb, q, eval.Options{Parallel: 4}); err != nil {
						b.Fatal(err)
					}
				}
			}
		}},
		{"citegraph/lookup/incoming-mix/routing=citing/shards=4", func(b *testing.B) { // B22 uniform fan-out
			for i := 0; i < b.N; i++ {
				for _, q := range citingQs {
					if _, err := eval.EvalOn(citingSdb, q, eval.Options{Parallel: 4}); err != nil {
						b.Fatal(err)
					}
				}
			}
		}},
		{"citegraph/cite-batch/items-k=8/mix", func(b *testing.B) { // B24 batch client
			for i := 0; i < b.N; i++ {
				for j, item := range cgCiter.CiteBatchItems(context.Background(), cgBatch) {
					if item.Err != nil {
						b.Fatalf("batch item %d: %v", j, item.Err)
					}
				}
			}
		}},
		{"citegraph/cite-each/incoming-hot/scale=small", func(b *testing.B) { // B24 streaming client
			req := citare.Request{Datalog: cgQueries[1]}
			for i := 0; i < b.N; i++ {
				if err := cgCiter.CiteEach(context.Background(), req, func(citare.Tuple) error { return nil }); err != nil {
					b.Fatal(err)
				}
			}
		}},
		// LSM persistence entries (B25): the write path (WAL append +
		// memtable put), the durable-commit fsync, reopen-from-disk cost,
		// and the read-delta twin of citegraph/cite/resolution-hot.
		{"lsm/insert/wal-append/scale=small", func(b *testing.B) { // B25 write path
			for i := 0; i < b.N; i++ {
				w := citegraph.WorkID(lsmNext)
				lsmNext++
				if err := writeBack.Insert("Work", w, "Bench "+w, citegraph.VenueID(0), "2026"); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"lsm/commit/fsync", func(b *testing.B) { // B25 durability point
			for i := 0; i < b.N; i++ {
				w := citegraph.WorkID(lsmNext)
				lsmNext++
				if err := writeBack.Insert("Work", w, "Bench "+w, citegraph.VenueID(0), "2026"); err != nil {
					b.Fatal(err)
				}
				if _, err := writeBack.Commit("bench-" + w); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"lsm/reopen/scale=small", func(b *testing.B) { // B25 cold open
			for i := 0; i < b.N; i++ {
				re, err := backend.OpenLSM(readDir, nil, lsm.Options{})
				if err != nil {
					b.Fatal(err)
				}
				if err := re.Close(); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"lsm/cite/resolution-hot/scale=small", func(b *testing.B) { // B25 read delta vs citegraph/cite/resolution-hot
			for i := 0; i < b.N; i++ {
				mustCite(b, lsmCiter, cgQueries[0])
			}
		}},
	}

	out := make([]benchJSON, 0, len(suite))
	for _, s := range suite {
		r := testing.Benchmark(s.fn)
		out = append(out, benchJSON{
			Name:        s.name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		})
		fmt.Printf("   %-40s %12.0f ns/op %10d allocs/op\n", s.name, out[len(out)-1].NsPerOp, out[len(out)-1].AllocsPerOp)
	}
	raw, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
