package citare

// Benchmark harness for the experiment suite of DESIGN.md / EXPERIMENTS.md.
//
// The paper (a CIDR vision paper) has no quantitative tables or figures; its
// §4 names the quantities a practical implementation must control — cost of
// rewriting enumeration, cost of citation construction, and citation size
// under idempotence and order pruning. Each benchmark below regenerates one
// row group of EXPERIMENTS.md (B1–B10).

import (
	"fmt"
	"testing"

	"citare/internal/core"
	"citare/internal/cq"
	"citare/internal/datalog"
	"citare/internal/eval"
	"citare/internal/gtopdb"
	"citare/internal/provenance"
	"citare/internal/rewrite"
	"citare/internal/sqlfe"
	"citare/internal/storage"
	"citare/internal/workload"
)

// B1 — rewriting enumeration cost vs. number of views (§4: "it is
// infeasible … to go through all rewritings").
func BenchmarkRewriteViews(b *testing.B) {
	const chain = 6
	q := workload.ChainQuery(chain)
	// A 6-chain admits 6+5+…+1 = 21 window views; the sweep starts at 6
	// (the smallest set that can cover the whole chain).
	for _, nViews := range []int{6, 11, 15, 18, 21} {
		views := workload.WindowViews(chain, nViews)
		b.Run(fmt.Sprintf("views=%d", len(views)), func(b *testing.B) {
			var total int
			for i := 0; i < b.N; i++ {
				rs, err := rewrite.Enumerate(q, views, rewrite.Options{})
				if err != nil {
					b.Fatal(err)
				}
				total = len(rs)
			}
			b.ReportMetric(float64(total), "rewritings")
		})
	}
}

// B2 — rewriting enumeration cost vs. query size.
func BenchmarkRewriteQuerySize(b *testing.B) {
	for _, k := range []int{1, 2, 3, 4, 5, 6} {
		q := workload.ChainQuery(k)
		views := workload.WindowViews(k, 2*k)
		b.Run(fmt.Sprintf("subgoals=%d", k), func(b *testing.B) {
			var total int
			for i := 0; i < b.N; i++ {
				rs, err := rewrite.Enumerate(q, views, rewrite.Options{})
				if err != nil {
					b.Fatal(err)
				}
				total = len(rs)
			}
			b.ReportMetric(float64(total), "rewritings")
		})
	}
}

// B3 — end-to-end citation construction vs. database scale.
func BenchmarkCitePerTuple(b *testing.B) {
	for _, fams := range []int{50, 200, 800} {
		cfg := gtopdb.DefaultConfig()
		cfg.Families = fams
		db := gtopdb.Generate(cfg)
		b.Run(fmt.Sprintf("families=%d", fams), func(b *testing.B) {
			c, err := NewFromProgram(db, gtopdb.ViewsProgram)
			if err != nil {
				b.Fatal(err)
			}
			var tuples int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := c.CiteDatalog(`Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), Ty = "type-01"`)
				if err != nil {
					b.Fatal(err)
				}
				tuples = res.NumTuples()
			}
			b.ReportMetric(float64(tuples), "tuples")
		})
	}
}

// B4 — citation size ablation: raw semiring vs. idempotent + vs. idempotent
// with order pruning (§3.4).
func BenchmarkCitationSize(b *testing.B) {
	cfg := gtopdb.DefaultConfig()
	cfg.Families = 200
	db := gtopdb.Generate(cfg)
	queryText := `Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), Ty = "type-01"`
	policies := []struct {
		name string
		pol  Policy
	}{
		{"raw", Policy{Times: Join, Plus: Union, PlusR: Union, Agg: Union}},
		{"idempotent", Policy{Times: Join, Plus: Union, PlusR: Union, Agg: Union, IdempotentPlus: true}},
		{"idempotent+orders", Policy{Times: Join, Plus: Union, PlusR: Union, Agg: Union,
			IdempotentPlus: true, Orders: core.Orders{core.ByUncovered{}, core.ByViewCount{}},
			PreferredRewritings: true}},
	}
	for _, pc := range policies {
		b.Run(pc.name, func(b *testing.B) {
			c, err := NewFromProgram(db, gtopdb.ViewsProgram, WithPolicy(pc.pol))
			if err != nil {
				b.Fatal(err)
			}
			var monomials, bytes int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := c.CiteDatalog(queryText)
				if err != nil {
					b.Fatal(err)
				}
				monomials, bytes = 0, len(res.CitationJSON())
				for ti := 0; ti < res.NumTuples(); ti++ {
					monomials += res.Result().Tuples[ti].Combined.NumMonomials()
				}
			}
			b.ReportMetric(float64(monomials), "monomials")
			b.ReportMetric(float64(bytes), "citation-bytes")
		})
	}
}

// B5 — interpretation cost: union vs. join for · and +R.
func BenchmarkPolicies(b *testing.B) {
	db := gtopdb.Generate(gtopdb.DefaultConfig())
	for _, times := range []Interp{Union, Join} {
		for _, plusR := range []Interp{Union, Join} {
			name := fmt.Sprintf("times=%s/plusR=%s", times, plusR)
			b.Run(name, func(b *testing.B) {
				pol := Policy{Times: times, Plus: Union, PlusR: plusR, Agg: Union, IdempotentPlus: true}
				c, err := NewFromProgram(db, gtopdb.ViewsProgram, WithPolicy(pol))
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := c.CiteDatalog(`Q(N) :- Family(F, N, Ty), Ty = "type-02", FamilyIntro(F, Tx)`); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// B6 — evaluation-engine join throughput (substrate).
func BenchmarkEvalJoin(b *testing.B) {
	for _, rows := range []int{100, 1000, 10000} {
		db := workload.ChainDB(3, rows, 64, 7)
		q := workload.ChainQuery(3)
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
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
	}
}

// B7 — provenance-semiring overhead (substrate; §3.1's foundation).
func BenchmarkProvenance(b *testing.B) {
	db := workload.ChainDB(2, 2000, 64, 9)
	q := workload.ChainQuery(2)
	b.Run("none", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := eval.EvalOpts(db, q, eval.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("nat", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, err := provenance.Annotate[int](db, q, provenance.NatSemiring{},
				func(string, storage.Tuple) int { return 1 })
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("lineage", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, err := provenance.Annotate[provenance.Lineage](db, q, provenance.LineageSemiring{},
				func(rel string, t storage.Tuple) provenance.Lineage {
					return provenance.LineageOf(provenance.TupleToken(rel, t))
				})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("why", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, err := provenance.Annotate[provenance.Witnesses](db, q, provenance.WhySemiring{},
				func(rel string, t storage.Tuple) provenance.Witnesses {
					return provenance.WitnessesOf([]provenance.Token{provenance.TupleToken(rel, t)})
				})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("poly", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := provenance.PolyProvenance(db, q); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// B8 — parser throughput for both front ends.
func BenchmarkParseDatalog(b *testing.B) {
	src := `Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), FC(F, C), Person(C, Pn, A), Ty = "gpcr"`
	for i := 0; i < b.N; i++ {
		if _, err := datalog.ParseQuery(src); err != nil {
			b.Fatal(err)
		}
	}
}

// B8 (continued) — views-program parsing.
func BenchmarkParseProgram(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := datalog.ParseProgram(gtopdb.ViewsProgram); err != nil {
			b.Fatal(err)
		}
	}
}

// B8 (continued) — SQL front end.
func BenchmarkParseSQL(b *testing.B) {
	schema := gtopdb.Schema()
	src := `SELECT f.FName, i.Text FROM Family f JOIN FamilyIntro i ON f.FID = i.FID, FC c, Person p WHERE c.FID = f.FID AND c.PID = p.PID AND f.Type = 'gpcr'`
	for i := 0; i < b.N; i++ {
		if _, err := sqlfe.Parse(schema, src); err != nil {
			b.Fatal(err)
		}
	}
}

// B9 — minimality/pruning ablation: full Definition 2.2 checks vs. raw cover
// enumeration, and preferred-rewriting pruning at the citation level.
func BenchmarkPrunedVsExhaustive(b *testing.B) {
	const chain = 5
	q := workload.ChainQuery(chain)
	views := workload.WindowViews(chain, 12)
	b.Run("certified+minimal", func(b *testing.B) {
		var n int
		for i := 0; i < b.N; i++ {
			rs, err := rewrite.Enumerate(q, views, rewrite.Options{AllowPartial: true})
			if err != nil {
				b.Fatal(err)
			}
			n = len(rs)
		}
		b.ReportMetric(float64(n), "rewritings")
	})
	b.Run("raw-covers", func(b *testing.B) {
		var n int
		for i := 0; i < b.N; i++ {
			rs, err := rewrite.Enumerate(q, views, rewrite.Options{AllowPartial: true, SkipMinimality: true})
			if err != nil {
				b.Fatal(err)
			}
			n = len(rs)
		}
		b.ReportMetric(float64(n), "rewritings")
	})
}

// B10 — fixity overhead (§4): versioned store vs. flat store, and AsOf
// snapshot materialization.
func BenchmarkVersionedInsert(b *testing.B) {
	schema := gtopdb.Schema()
	b.Run("flat", func(b *testing.B) {
		db := storage.NewDB(schema)
		for i := 0; i < b.N; i++ {
			_ = db.Insert("Family", fmt.Sprint(i), "N", "gpcr")
		}
	})
	b.Run("versioned", func(b *testing.B) {
		v := storage.NewVersionedDB(schema)
		for i := 0; i < b.N; i++ {
			_ = v.Insert("Family", fmt.Sprint(i), "N", "gpcr")
			if i%1000 == 999 {
				v.Commit("")
			}
		}
	})
}

// B10 (continued) — AsOf snapshot cost.
func BenchmarkVersionedAsOf(b *testing.B) {
	v := storage.NewVersionedDB(gtopdb.Schema())
	for i := 0; i < 5000; i++ {
		v.MustInsert("Family", fmt.Sprint(i), "N", "gpcr")
		if i%500 == 499 {
			v.Commit("")
		}
	}
	versions := v.Versions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Alternate between cached and uncached snapshot reads.
		ver := versions[i%len(versions)]
		if _, err := v.AsOf(ver); err != nil {
			b.Fatal(err)
		}
	}
}

// Baseline — the naive "cite by provenance only" strategy the paper argues
// against implicitly: annotate every base tuple and collect lineage, with no
// views. Used in EXPERIMENTS.md to contrast citation size and cost.
func BenchmarkBaselineLineageCitation(b *testing.B) {
	cfg := gtopdb.DefaultConfig()
	cfg.Families = 200
	db := gtopdb.Generate(cfg)
	q := mustParse(b, `Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), Ty = "type-01"`)
	var bytes int
	for i := 0; i < b.N; i++ {
		anns, err := provenance.Annotate[provenance.Lineage](db, q, provenance.LineageSemiring{},
			func(rel string, t storage.Tuple) provenance.Lineage {
				return provenance.LineageOf(provenance.TupleToken(rel, t))
			})
		if err != nil {
			b.Fatal(err)
		}
		bytes = 0
		for _, a := range anns {
			for _, tok := range a.Value.Tokens() {
				bytes += len(tok)
			}
		}
	}
	b.ReportMetric(float64(bytes), "citation-bytes")
}

func mustParse(tb testing.TB, src string) *cq.Query {
	tb.Helper()
	q, err := datalog.ParseQuery(src)
	if err != nil {
		tb.Fatal(err)
	}
	return q
}
