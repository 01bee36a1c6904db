package core_test

import (
	"context"
	"testing"

	"citare/internal/citegraph"
	"citare/internal/core"
	"citare/internal/gtopdb"
	"citare/internal/obs"
	"citare/internal/shard"
	"citare/internal/storage"
)

// enumerations cites src under a trace and counts the enumerations the
// citation ran over its query and its rewritings. eval.Plan.Each marks the
// span it enumerates under with its strategy: the eval stage's span for the
// output evaluation, a rewriting's own span under gather for a rewriting
// enumerated on its own. Token rendering, under the render stage, is not
// counted. It also returns the number of rewritings the citation used.
func enumerations(t *testing.T, e *core.Engine, src string, stream bool) (n, rewritings int) {
	t.Helper()
	tr := obs.NewTrace()
	ctx := obs.NewContext(context.Background(), tr, obs.NoSpan)
	var sink func(*core.TupleCitation) error
	if stream {
		sink = func(*core.TupleCitation) error { return nil }
	}
	res, err := e.CiteQuery(ctx, mustQuery(t, src), 0, sink)
	if err != nil {
		t.Fatal(err)
	}
	var count func(ns []*obs.ReportSpan)
	count = func(ns []*obs.ReportSpan) {
		for _, sp := range ns {
			if _, ok := sp.Attrs["strategy"]; ok {
				n++
			}
			count(sp.Children)
		}
	}
	rep := tr.Report()
	for _, stage := range []string{obs.StageEval, obs.StageGather} {
		sp := rep.Find(stage)
		if sp == nil {
			t.Fatalf("%s: no %s stage in the trace", src, stage)
		}
		count([]*obs.ReportSpan{sp})
	}
	return n, res.NumRewritings()
}

// TestCiteEnumeratesOnce: a citation enumerates its query once when every
// rewriting's expansion is a renaming of it — every shape the benchmarks
// send, on a plain and a sharded engine, through CitePrepared and CiteEachPrepared — and
// once more per rewriting that is not: VN's expansion R(A, B), R(A, C) is
// enumerated on its own, VE's is read off the output evaluation.
func TestCiteEnumeratesOnce(t *testing.T) {
	engines := func(db *storage.DB, views []*core.CitationView) map[string]*core.Engine {
		plain, err := core.NewEngine(core.DBSource{DB: db}, views, core.DefaultPolicy())
		if err != nil {
			t.Fatal(err)
		}
		sdb, err := shard.FromDB(db, 3)
		if err != nil {
			t.Fatal(err)
		}
		sharded, err := core.NewEngine(core.ShardSource{DB: sdb}, views, core.DefaultPolicy())
		if err != nil {
			t.Fatal(err)
		}
		return map[string]*core.Engine{"plain": plain, "shards=3": sharded}
	}
	fallback := storage.NewDB(oracleSchema())
	for _, tu := range [][]string{{"a", "b"}, {"a", "c"}, {"b", "b"}} {
		fallback.MustInsert("R", tu...)
	}
	hot := citegraph.HotWork()
	for _, world := range []struct {
		name    string
		engines map[string]*core.Engine
		queries []string
		want    int // enumerations per citation
	}{
		{"gtopdb", engines(gtopdb.PaperInstance(), gtopdb.MustPaperViews()), []string{
			`Q(N) :- Family(F, N, Ty), F = "11"`,
			`Q(N, Pn) :- Family(F, N, Ty), F = "11", FC(F, P), Person(P, Pn, A)`,
			`Q(N) :- Family(F, N, Ty), Ty = "gpcr"`,
			`Q(N, Tx) :- Family(F, N, Ty), Ty = "gpcr", FamilyIntro(F, Tx)`,
			`Q(N, Pn) :- Family(F, N, Ty), Ty = "gpcr", FC(F, P), Person(P, Pn, A)`,
		}, 1},
		{"citegraph", engines(citegraph.Generate(citegraph.ScaleSmall()), citegraph.MustViews()), []string{
			citegraph.ResolutionQuery(hot),
			citegraph.IncomingQuery(hot),
			citegraph.AuthorProvenanceQuery(citegraph.AuthorID(1)),
			citegraph.VenueRollupQuery(citegraph.VenueID(1)),
		}, 1},
		{"fallback", engines(fallback, gatedViews(t)), []string{gatedQuery}, 2},
	} {
		for name, e := range world.engines {
			for _, q := range world.queries {
				for _, stream := range []bool{false, true} {
					n, rws := enumerations(t, e, q, stream)
					if rws == 0 {
						t.Fatalf("%s %s: %s has no rewriting", world.name, name, q)
					}
					if n != world.want {
						t.Errorf("%s %s (stream %v): %s ran %d enumerations over %d rewritings, want %d", world.name, name, stream, q, n, rws, world.want)
					}
				}
			}
		}
	}
}
