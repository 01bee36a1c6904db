package citare

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"citare/internal/backend"
	"citare/internal/gtopdb"
	"citare/internal/lsm"
	"citare/internal/obs"
)

const explainTestSQL = "SELECT f.FName FROM Family f, FamilyIntro i WHERE f.FID = i.FID AND f.Type = 'gpcr'"

// TestExplainTokenDeltas reads the token cache's outcome back through
// explain: over a persistent store, the first citation after a commit brings
// its cached tokens forward — the render span counts them revalidated and
// the rows the delta rule added — instead of rendering them again, and the
// engine's counters agree. A token keeps its rows from its first change on,
// so the delta rule applies from the second.
func TestExplainTokenDeltas(t *testing.T) {
	b, err := backend.OpenLSM(t.TempDir(), gtopdb.Schema(), lsm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	write := func(tuples ...[]string) {
		t.Helper()
		for _, tu := range tuples {
			if err := b.Insert(tu[0], tu[1:]...); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := b.Commit(""); err != nil {
			t.Fatal(err)
		}
	}
	db := gtopdb.PaperInstance()
	for _, rs := range db.Schema().Relations() {
		for _, tu := range db.Relation(rs.Name).Tuples() {
			write(append([]string{rs.Name}, tu...))
		}
	}
	c, err := NewBackendFromProgram(b, gtopdb.ViewsProgram)
	if err != nil {
		t.Fatal(err)
	}
	const q = `Q(N, Pn) :- Family(F, N, Ty), FC(F, P), Person(P, Pn, A)`
	render := func() map[string]any {
		t.Helper()
		ct, err := c.Cite(context.Background(), Request{Datalog: q, Explain: true})
		if err != nil {
			t.Fatal(err)
		}
		st := ct.Explain().Find("render")
		if st == nil {
			t.Fatal("no render stage in the report")
		}
		return st.Attrs
	}
	if a := render(); a["token_cache_misses"] == nil || a["token_cache_revalidated"] != nil {
		t.Fatalf("first citation: render attrs %v, want misses and nothing revalidated", a)
	}
	member := func(pid string) {
		t.Helper()
		write([]string{"Person", pid, "Member " + pid, "Somewhere"}, []string{"FC", "11", pid})
		if err := c.Reset(); err != nil {
			t.Fatal(err)
		}
	}
	// The first change of family 11's committee renders its token afresh,
	// keeping its rows; every other token is kept as it was.
	member("9001")
	if a := render(); a["token_cache_misses"] != int64(1) || a["token_cache_revalidated"] == nil || a["token_delta_rows"] != int64(0) {
		t.Fatalf("after the first commit: render attrs %v, want one miss, the rest revalidated", a)
	}
	// The next change is applied to those rows by the delta rule.
	member("9002")
	a := render()
	if a["token_cache_misses"] != nil || a["token_cache_revalidated"] == nil || a["token_delta_rows"] != int64(1) {
		t.Fatalf("after the second commit: render attrs %v, want every token revalidated, one delta row and no miss", a)
	}
	if st := c.Engine().TokenCacheStats(); st.DeltaApplied != 1 || st.Revalidated < uint64(a["token_cache_revalidated"].(int64)) {
		t.Fatalf("engine counters %+v disagree with the report %v", st, a)
	}
}

// explainCiters builds one citer per evaluation configuration: unsharded
// ("auto"), a single shard (its plans descend sequentially), and sharded
// (scatter-gather) at two shard counts, plus four shards under the
// resilient attempt policy — live on the Citer's first epoch, with no Reset.
func explainCiters(t *testing.T) map[string]*Citer {
	t.Helper()
	c, err := NewFromProgram(gtopdb.PaperInstance(), gtopdb.ViewsProgram,
		WithNeutralCitation(gtopdb.DatabaseCitation()))
	if err != nil {
		t.Fatal(err)
	}
	citers := map[string]*Citer{"auto": c}
	for name, n := range map[string]int{"sequential": 1, "scatter2": 2, "scatter4": 4, "resilient4": 4} {
		var opts []Option
		if name == "resilient4" {
			opts = append(opts, WithResilience(ResilienceConfig{Seed: 1}))
		}
		citers[name] = shardedPaperCiter(t, gtopdb.PaperInstance(), n, opts...)
	}
	return citers
}

// TestExplainParity: for every strategy and shard count, the citation is
// byte-identical with Explain on and off, and only the explained request
// carries a report.
func TestExplainParity(t *testing.T) {
	ctx := context.Background()
	for name, c := range explainCiters(t) {
		t.Run(name, func(t *testing.T) {
			plain, err := c.Cite(ctx, Request{SQL: explainTestSQL})
			if err != nil {
				t.Fatal(err)
			}
			explained, err := c.Cite(ctx, Request{SQL: explainTestSQL, Explain: true})
			if err != nil {
				t.Fatal(err)
			}
			if plain.CitationJSON() != explained.CitationJSON() {
				t.Fatalf("citation diverged under Explain:\n off %s\n on  %s",
					plain.CitationJSON(), explained.CitationJSON())
			}
			pr, _ := plain.Rendered()
			er, _ := explained.Rendered()
			if pr != er {
				t.Fatalf("rendered output diverged under Explain")
			}
			if plain.Explain() != nil {
				t.Fatal("unexplained citation carries a report")
			}
			if explained.Explain() == nil {
				t.Fatal("explained citation carries no report")
			}
		})
	}
}

// TestExplainReportShape checks the report's stage tree: the cite root with
// tuple counts, every pipeline stage present, the eval strategy recorded,
// and — under scatter-gather — per-shard spans, which under the attempt
// policy carry the shard's attempt count. Every partitioned plan reports
// "scatter": the policy is a layer under the scatter, not a strategy.
func TestExplainReportShape(t *testing.T) {
	ctx := context.Background()
	citers := explainCiters(t)

	for name, wantStrategy := range map[string]string{
		"sequential": "sequential",
		"resilient4": "scatter",
		"scatter4":   "scatter",
	} {
		t.Run(name, func(t *testing.T) {
			ct, err := citers[name].Cite(ctx, Request{SQL: explainTestSQL, Explain: true})
			if err != nil {
				t.Fatal(err)
			}
			ex := ct.Explain()
			root := ex.Find(obs.StageCite)
			if root == nil {
				t.Fatalf("no cite root: %+v", ex.Stages)
			}
			if root.Attrs["tuples"] != int64(ct.NumTuples()) {
				t.Fatalf("root tuples attr %v, want %d", root.Attrs["tuples"], ct.NumTuples())
			}
			for _, stage := range []string{
				obs.StageParse, obs.StageRewrite, obs.StageCompile,
				obs.StageEval, obs.StageGather, obs.StageRender,
			} {
				if ex.Find(stage) == nil {
					t.Fatalf("stage %q missing from report", stage)
				}
			}
			// Views are unfolded, not materialized: no stage of that name,
			// and each rewriting's evaluation is accounted under gather.
			if ex.Find(obs.StageViews) != nil || ex.Find("view") != nil {
				t.Fatalf("report still carries a views stage: %+v", ex.Stages)
			}
			rewritings := 0
			for _, child := range ex.Find(obs.StageGather).Children {
				if child.Name != "rewriting" {
					continue
				}
				rewritings++
				for _, attr := range []string{"atoms", "frames", "deduped"} {
					if _, ok := child.Attrs[attr].(int64); !ok {
						t.Fatalf("rewriting span lacks %q: %v", attr, child.Attrs)
					}
				}
				if child.Attrs["atoms"].(int64) < 2 || child.Attrs["frames"].(int64) != int64(ct.NumTuples()) {
					t.Fatalf("rewriting span of a two-atom join over %d tuples: %v", ct.NumTuples(), child.Attrs)
				}
			}
			if rewritings != len(ct.Rewritings()) {
				t.Fatalf("%d rewriting spans for %d rewritings", rewritings, len(ct.Rewritings()))
			}
			eval := ex.Find(obs.StageEval)
			if got := eval.Attrs["strategy"]; got != wantStrategy {
				t.Fatalf("eval strategy %v, want %q", got, wantStrategy)
			}
			if strings.HasPrefix(wantStrategy, "scatter") {
				if eval.Attrs["shards"] == nil {
					t.Fatalf("scatter eval has no shards attr: %v", eval.Attrs)
				}
				shardSpans := 0
				for _, child := range eval.Children {
					if child.Name != "shard" {
						continue
					}
					shardSpans++
					if _, ok := child.Attrs["shard"].(int64); !ok {
						t.Fatalf("shard span lacks its shard: %v", child.Attrs)
					}
					if attempts, armed := child.Attrs["attempts"]; armed != (name == "resilient4") || (armed && attempts != int64(1)) {
						t.Fatalf("%s: shard span attrs %v, want one attempt exactly under the attempt policy", name, child.Attrs)
					}
				}
				if shardSpans == 0 {
					t.Fatalf("scatter eval has no per-shard spans: %+v", eval.Children)
				}
			}
			// The report must serialize: the slow-query log and the /v1/cite
			// explain field both ship it as JSON.
			if _, err := json.Marshal(ex); err != nil {
				t.Fatalf("marshal explain: %v", err)
			}
			if ex.StageTotalsNs()[obs.StageEval] <= 0 {
				t.Fatalf("eval total not positive: %v", ex.StageTotalsNs())
			}
		})
	}
}

// TestExplainThroughCachedCiter: an Explain request bypasses the citation
// cache (a cached Citation carries no trace) yet returns the identical
// citation; plain requests still hit the cache.
func TestExplainThroughCachedCiter(t *testing.T) {
	ctx := context.Background()
	c, err := NewFromProgram(gtopdb.PaperInstance(), gtopdb.ViewsProgram,
		WithNeutralCitation(gtopdb.DatabaseCitation()))
	if err != nil {
		t.Fatal(err)
	}
	cached := NewCached(c)
	plain, err := cached.Cite(ctx, Request{SQL: explainTestSQL})
	if err != nil {
		t.Fatal(err)
	}
	preHits := cached.CacheStats().Hits
	explained, err := cached.Cite(ctx, Request{SQL: explainTestSQL, Explain: true})
	if err != nil {
		t.Fatal(err)
	}
	if hits := cached.CacheStats().Hits; hits != preHits {
		t.Fatalf("explain request touched the cache: hits %d -> %d", preHits, hits)
	}
	if explained.Explain() == nil {
		t.Fatal("explain through CachedCiter returned no report")
	}
	if plain.CitationJSON() != explained.CitationJSON() {
		t.Fatal("explained citation diverged from cached citation")
	}
	again, err := cached.Cite(ctx, Request{SQL: explainTestSQL})
	if err != nil {
		t.Fatal(err)
	}
	if hits := cached.CacheStats().Hits; hits != preHits+1 {
		t.Fatalf("plain request after explain missed the cache")
	}
	if again.Explain() != nil {
		t.Fatal("cached citation carries a stale report")
	}
}
