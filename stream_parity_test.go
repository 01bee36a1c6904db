package citare

// Streaming-vs-materialized byte-parity property test at the facade level:
// for every query of the gtopdb and advisor workloads, the tuples streamed
// by CiteEach must be byte-identical — values, polynomials, rendered
// citation records, order, and count — to the materialized Cite result, for
// both execution strategies (the sequential descent, scatter-gather across
// shard counts) and under concurrent streams of one Citer.

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"citare/internal/backend"
	"citare/internal/citegraph"
	"citare/internal/fault"
	"citare/internal/gtopdb"
	"citare/internal/lsm"
	"citare/internal/obs"
	"citare/internal/storage"
)

// assertStreamMatchesCite checks that CiteEach streams exactly the tuples of
// the materialized Cite result — values, order, index, polynomial, rendered
// citation — for one request.
func assertStreamMatchesCite(t *testing.T, c *Citer, req Request) {
	t.Helper()
	if err := streamMatchesCite(c, req); err != nil {
		t.Fatal(err)
	}
}

// streamMatchesCite is assertStreamMatchesCite's check, safe to run from
// several goroutines at once.
func streamMatchesCite(c *Citer, req Request) error {
	want, err := c.Cite(context.Background(), req)
	if err != nil {
		return err
	}
	rows := want.Rows()
	i := 0
	err = c.CiteEach(context.Background(), req, func(tu Tuple) error {
		if i >= len(rows) {
			return fmt.Errorf("streamed extra tuple %v", tu.Values)
		}
		if tu.Index != i {
			return fmt.Errorf("tuple %d streamed with index %d", i, tu.Index)
		}
		if got, exp := strings.Join(tu.Values, "\x00"), strings.Join(rows[i], "\x00"); got != exp {
			return fmt.Errorf("tuple %d values %q, want %q", i, tu.Values, rows[i])
		}
		wantPoly, err := want.TuplePolynomialAt(i)
		if err != nil {
			return err
		}
		if tu.Polynomial != wantPoly {
			return fmt.Errorf("tuple %d polynomial:\n got %s\nwant %s", i, tu.Polynomial, wantPoly)
		}
		wantJSON, err := want.TupleCitationJSONAt(i)
		if err != nil {
			return err
		}
		if tu.CitationJSON != wantJSON {
			return fmt.Errorf("tuple %d citation:\n got %s\nwant %s", i, tu.CitationJSON, wantJSON)
		}
		i++
		return nil
	})
	if err != nil {
		return err
	}
	if i != len(rows) {
		return fmt.Errorf("streamed %d tuples, want %d", i, len(rows))
	}
	return nil
}

// TestCiteEachMatchesCiteAllStrategies: "sequential" is a single-shard store
// (its plans take the sequential descent), "adaptive" an unsharded one,
// "parallel-N" an unsharded Citer asked by N streams at once, "scatter-N"
// an N-shard store.
func TestCiteEachMatchesCiteAllStrategies(t *testing.T) {
	db := gtopdb.PaperInstance()
	newUnsharded := func() *Citer {
		c, err := NewFromProgram(db, gtopdb.ViewsProgram, WithNeutralCitation(gtopdb.DatabaseCitation()))
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	cfgs := []struct {
		name    string
		citer   *Citer
		streams int // concurrent streams of each request
	}{
		{"sequential", shardedPaperCiter(t, db, 1), 1},
		{"parallel-2", newUnsharded(), 2},
		{"parallel-4", newUnsharded(), 4},
		{"adaptive", newUnsharded(), 1},
		{"scatter-2", shardedPaperCiter(t, db, 2), 1},
		{"scatter-3", shardedPaperCiter(t, db, 3), 1},
		{"scatter-5", shardedPaperCiter(t, db, 5), 1},
	}
	workloads := []struct {
		name    string
		queries []mixedQuery
	}{
		{"gtopdb", gtopdbWorkload()},
		{"advisor", advisorWorkload()},
	}
	for _, cfg := range cfgs {
		for _, wl := range workloads {
			for qi, mq := range wl.queries {
				t.Run(fmt.Sprintf("%s/%s/q%d", cfg.name, wl.name, qi), func(t *testing.T) {
					req := Request{}
					if mq.sql {
						req.SQL = mq.src
					} else {
						req.Datalog = mq.src
					}
					errs := make(chan error, cfg.streams)
					for range cfg.streams {
						go func() { errs <- streamMatchesCite(cfg.citer, req) }()
					}
					for range cfg.streams {
						if err := <-errs; err != nil {
							t.Fatal(err)
						}
					}
				})
			}
		}
	}
}

// TestCitegraphStreamParity repeats the streamed-vs-materialized byte-parity
// property on a small citegraph instance — hot-key probes and deep joins —
// over a single-shard store ("sequential"), an unsharded one ("adaptive")
// and scatter-gather across shard counts.
func TestCitegraphStreamParity(t *testing.T) {
	db := citegraph.Generate(citegraph.ScaleSmall())
	cfgs := []struct {
		name  string
		citer *Citer
	}{
		{"sequential", shardedCitegraphCiter(t, db, 1)},
		{"adaptive", citegraphCiter(t, db)},
		{"scatter-3", shardedCitegraphCiter(t, db, 3)},
		{"scatter-5", shardedCitegraphCiter(t, db, 5)},
	}
	for _, cfg := range cfgs {
		for qi, mq := range citegraphWorkload() {
			t.Run(fmt.Sprintf("%s/q%d", cfg.name, qi), func(t *testing.T) {
				assertStreamMatchesCite(t, cfg.citer, Request{Datalog: mq.src})
			})
		}
	}
}

// streamedLine is everything one streamed tuple carries, the wire spelling of
// its citation (what an NDJSON line embeds) included.
type streamedLine struct {
	index              int
	values             []string
	polynomial, record string
	wire               string
}

// collectStream runs one stream under a trace and returns what it delivered,
// its error, and whether the engine's pipeline ran for it — a "cite" span in
// the trace — rather than a replay of a cached citation.
func collectStream(each func(context.Context, Request, func(Tuple) error) error, req Request) (lines []streamedLine, evaluated bool, err error) {
	tr := obs.NewTrace()
	err = each(obs.NewContext(context.Background(), tr, obs.NoSpan), req, func(tu Tuple) error {
		lines = append(lines, streamedLine{tu.Index, tu.Values, tu.Polynomial, tu.CitationJSON, string(tu.AppendCitationWire(nil))})
		return nil
	})
	return lines, tr.Report().Find(obs.StageCite) != nil, err
}

func sameLines(a, b []streamedLine) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d lines against %d", len(a), len(b))
	}
	for i := range a {
		if a[i].index != b[i].index || !slices.Equal(a[i].values, b[i].values) || a[i].polynomial != b[i].polynomial || a[i].record != b[i].record || a[i].wire != b[i].wire {
			return fmt.Errorf("line %d:\n got %+v\nwant %+v", i, a[i], b[i])
		}
	}
	return nil
}

// TestCachedStreamMatchesColdStream is the differential test of the replay:
// once a request's citation sits in the cache, CachedCiter.CiteEach delivers
// it without evaluating, and what it delivers — index, values, polynomial,
// record and the record's wire spelling — is what the uncached Citer.CiteEach
// delivers and what the cached Citation's own accessors say, index for index.
// Every member of a group shares one entry (SQL twins, reordered bodies). Over
// the paper instance, a generated GtoPdb (unsharded, four shards, LSM backend)
// and citegraph; the shapes are the benchmark's browse and point shapes.
func TestCachedStreamMatchesColdStream(t *testing.T) {
	gtopdbGroups := func(ty, fid string) [][]Request {
		return [][]Request{
			{{Datalog: fmt.Sprintf(`Q(N) :- Family(F, N, Ty), Ty = %q`, ty)},
				{SQL: fmt.Sprintf(`SELECT f.FName FROM Family f WHERE f.Type = '%s'`, ty)}},
			{{Datalog: fmt.Sprintf(`Q(N, Tx) :- Family(F, N, Ty), Ty = %q, FamilyIntro(F, Tx)`, ty)},
				{Datalog: fmt.Sprintf(`Q(Name, Text) :- FamilyIntro(Fam, Text), Family(Fam, Name, T), T = %q`, ty)},
				{SQL: fmt.Sprintf(`SELECT f.FName, i.Text FROM Family f, FamilyIntro i WHERE f.FID = i.FID AND f.Type = '%s'`, ty)}},
			{{Datalog: fmt.Sprintf(`Q(N, Pn) :- Family(F, N, Ty), Ty = %q, FC(F, P), Person(P, Pn, A)`, ty)},
				{Datalog: fmt.Sprintf(`Q(N, Pn) :- Person(P, Pn, A), FC(F, P), Family(F, N, Ty), Ty = %q`, ty), Format: "bibtex"}},
			{{Datalog: fmt.Sprintf(`Q(N) :- Family(F, N, Ty), F = %q`, fid)}},
			{{Datalog: fmt.Sprintf(`Q(N, Pn) :- Family(F, N, Ty), F = %q, FC(F, P), Person(P, Pn, A)`, fid)}},
			{{SQL: fmt.Sprintf(`SELECT f.FName, f.Type FROM Family f WHERE f.FID = '%s'`, fid)}},
		}
	}
	gen := gtopdb.Generate(gtopdb.Config{Seed: 3, Families: 300, Types: 6, Persons: 120, CommitteeMin: 2, CommitteeMax: 5, IntroFraction: 0.6})
	ldb, err := backend.OpenLSM(t.TempDir(), gtopdb.Schema(), lsm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ldb.Close()
	for _, rs := range gen.Schema().Relations() {
		gen.Relation(rs.Name).Scan(func(tu storage.Tuple) bool {
			if err := ldb.Insert(rs.Name, tu...); err != nil {
				t.Fatal(err)
			}
			return true
		})
	}
	if _, err := ldb.Commit("load"); err != nil {
		t.Fatal(err)
	}
	lsmCiter, err := NewBackendFromProgram(ldb, gtopdb.ViewsProgram, WithNeutralCitation(gtopdb.DatabaseCitation()))
	if err != nil {
		t.Fatal(err)
	}
	var graph [][]Request
	for _, mq := range citegraphWorkload() {
		graph = append(graph, []Request{{Datalog: mq.src}})
	}
	cg := citegraph.Generate(citegraph.ScaleSmall())
	for _, inst := range []struct {
		name   string
		citer  *Citer
		groups [][]Request
	}{
		{"paper", newPaperCiter(t, WithNeutralCitation(gtopdb.DatabaseCitation())), gtopdbGroups("gpcr", "11")},
		{"gtopdb", shardedPaperCiter(t, gen, 1), gtopdbGroups("type-03", "117")},
		{"gtopdb-shards4", shardedPaperCiter(t, gen, 4), gtopdbGroups("type-03", "117")},
		{"gtopdb-lsm", lsmCiter, gtopdbGroups("type-03", "117")},
		{"citegraph", citegraphCiter(t, cg), graph},
		{"citegraph-shards3", shardedCitegraphCiter(t, cg, 3), graph},
	} {
		t.Run(inst.name, func(t *testing.T) {
			cached := NewCached(inst.citer)
			streamed := 0
			for gi, group := range inst.groups {
				if _, evaluated, err := collectStream(cached.CiteEach, group[0]); err != nil || !evaluated {
					t.Fatalf("group %d: a stream of a citation not yet cached: evaluated=%v, %v", gi, evaluated, err)
				}
				ct, err := cached.Cite(context.Background(), group[0])
				if err != nil {
					t.Fatal(err)
				}
				rows := ct.Rows()
				for _, req := range group {
					cold, evaluated, err := collectStream(inst.citer.CiteEach, req)
					if err != nil || !evaluated {
						t.Fatalf("group %d, cold %+v: evaluated=%v, %v", gi, req, evaluated, err)
					}
					for round := 0; round < 2; round++ { // the replay that makes the text forms, and one that reads them
						replay, evaluated, err := collectStream(cached.CiteEach, req)
						if err != nil || evaluated {
							t.Fatalf("group %d, %+v: a stream of a cached citation: evaluated=%v, %v", gi, req, evaluated, err)
						}
						if err := sameLines(replay, cold); err != nil {
							t.Fatalf("group %d, %+v: replay against the cold stream: %v", gi, req, err)
						}
					}
					if len(cold) != len(rows) {
						t.Fatalf("group %d: %d lines for %d rows", gi, len(cold), len(rows))
					}
					for i, l := range cold {
						poly, _ := ct.TuplePolynomialAt(i)
						record, _ := ct.TupleCitationJSONAt(i)
						if l.index != i || !slices.Equal(l.values, rows[i]) || l.polynomial != poly || l.record != record {
							t.Fatalf("group %d, line %d: %+v against the citation's (%v, %s, %s)", gi, i, l, rows[i], poly, record)
						}
					}
					streamed += len(cold)
				}
			}
			if streamed < 30 {
				t.Fatalf("only %d lines compared", streamed)
			}
			if st := cached.CacheStats(); st.Misses != uint64(2*len(inst.groups)) {
				t.Fatalf("%d hits / %d misses, want two misses per group: the first stream's lookup and the Cite that filled the entry", st.Hits, st.Misses)
			}
		})
	}
}

// TestCachedStreamNonHitsEvaluate: whatever Cite would not answer from the
// cache, a stream does not either — it runs the engine (a "cite" span in its
// trace, none in a replay's), delivers the cold stream's lines and stores
// nothing.
func TestCachedStreamNonHitsEvaluate(t *testing.T) {
	req := Request{Datalog: `Q(N, Pn) :- Family(F, N, Ty), Ty = "gpcr", FC(F, P), Person(P, Pn, A)`}
	cached := NewCached(newPaperCiter(t, WithNeutralCitation(gtopdb.DatabaseCitation())))
	want, _, err := collectStream(cached.Citer().CiteEach, req)
	if err != nil || len(want) == 0 {
		t.Fatalf("cold stream: %d lines, %v", len(want), err)
	}
	stream := func(what string, req Request, wantEvaluated bool) []streamedLine {
		t.Helper()
		lines, evaluated, err := collectStream(cached.CiteEach, req)
		if err != nil || evaluated != wantEvaluated {
			t.Fatalf("%s: evaluated=%v, want %v (%v)", what, evaluated, wantEvaluated, err)
		}
		return lines
	}
	fill := func() {
		t.Helper()
		if _, err := cached.Cite(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	fill()
	if err := sameLines(stream("cached", req, false), want); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		what string
		req  Request
	}{
		{"another MaxTuples", Request{Datalog: req.Datalog, MaxTuples: 1000}},
		{"Explain", Request{Datalog: req.Datalog, Explain: true}},
	} {
		if err := sameLines(stream(tc.what, tc.req, true), want); err != nil {
			t.Fatalf("%s: %v", tc.what, err)
		}
		stream(tc.what+", again", tc.req, true) // a stream stores nothing
	}
	if _, _, err := collectStream(cached.CiteEach, Request{Datalog: req.Datalog, MaxTuples: 1}); !errors.Is(err, ErrLimit) {
		t.Fatalf("a bound the cached answer exceeds: %v, want ErrLimit", err)
	}
	if lines := stream("unsatisfiable", Request{Datalog: `Q(N) :- Family(F, N, Ty), Ty = "gpcr", Ty = "lgic"`}, true); len(lines) != 0 {
		t.Fatalf("unsatisfiable query streamed %d lines", len(lines))
	}
	if err := cached.Invalidate(); err != nil {
		t.Fatal(err)
	}
	if err := sameLines(stream("after Invalidate", req, true), want); err != nil {
		t.Fatal(err)
	}
	fill()
	stream("filled again", req, false)

	// A failed citation is never stored, so its stream is never a replay.
	const shards, stalled = 3, 1
	in := fault.NewInjector()
	in.SetFault(stalled, fault.ShardFault{Stall: true})
	cached = NewCached(resilientPaperCiter(t, shards, in, chaosConfig()))
	failing := Request{Datalog: `Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), Ty = "gpcr"`}
	for i := 0; i < 2; i++ {
		if ct, err := cached.Cite(context.Background(), failing); ct != nil || !errors.Is(err, ErrShardUnavailable) {
			t.Fatalf("cite %d reading the stalled shard: (%v, %v)", i, ct, err)
		}
		lines, evaluated, err := collectStream(cached.CiteEach, failing)
		if !evaluated || !errors.Is(err, ErrShardUnavailable) || len(lines) != 0 {
			t.Fatalf("stream %d reading the stalled shard: %d lines, evaluated=%v, %v — want an evaluation failing unavailable", i, len(lines), evaluated, err)
		}
	}
}
