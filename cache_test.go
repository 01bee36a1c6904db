package citare

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"citare/internal/core"
	"citare/internal/fault"
	"citare/internal/gtopdb"
	"citare/internal/storage"
)

func TestCachedCiterHitsOnEquivalentQueries(t *testing.T) {
	c := NewCached(newPaperCiter(t))
	// Three syntactic variants of the same query.
	variants := []string{
		`Q(N) :- Family(F, N, Ty), Ty = "gpcr", FamilyIntro(F, Tx)`,
		`Q(Nm) :- FamilyIntro(Fam, Txt), Family(Fam, Nm, "gpcr")`,
		`Q(A) :- Family(B, A, C), C = "gpcr", FamilyIntro(B, D), Family(B, A, E)`,
	}
	var first string
	for i, v := range variants {
		res, err := c.Cite(context.Background(), Request{Datalog: v})
		if err != nil {
			t.Fatalf("%s: %v", v, err)
		}
		if i == 0 {
			first = res.CitationJSON()
		} else if res.CitationJSON() != first {
			t.Fatalf("variant %d citation differs", i)
		}
	}
	st := c.CacheStats()
	hits, misses := st.Hits, st.Misses
	if misses != 1 || hits != 2 {
		t.Fatalf("want 1 miss + 2 hits, got %d misses %d hits", misses, hits)
	}
}

func TestCachedCiterSQLAndDatalogShareEntries(t *testing.T) {
	c := NewCached(newPaperCiter(t))
	if _, err := c.Cite(context.Background(), Request{Datalog: `Q(N) :- Family(F, N, Ty), Ty = "gpcr", FamilyIntro(F, Tx)`}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Cite(context.Background(), Request{SQL: `SELECT f.FName FROM Family f, FamilyIntro i WHERE f.FID = i.FID AND f.Type = 'gpcr'`}); err != nil {
		t.Fatal(err)
	}
	st := c.CacheStats()
	hits, misses := st.Hits, st.Misses
	if misses != 1 || hits != 1 {
		t.Fatalf("SQL should hit the datalog entry: %d misses %d hits", misses, hits)
	}
}

func TestCachedCiterInvalidate(t *testing.T) {
	db := gtopdb.PaperInstance()
	base, err := NewFromProgram(db, gtopdb.ViewsProgram)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCached(base)
	res1, err := c.Cite(context.Background(), Request{Datalog: `Q(N) :- Family(F, N, Ty), Ty = "gpcr"`})
	if err != nil {
		t.Fatal(err)
	}
	db.MustInsert("Family", "88", "Fresh", "gpcr")
	if err := c.Invalidate(); err != nil {
		t.Fatal(err)
	}
	res2, err := c.Cite(context.Background(), Request{Datalog: `Q(N) :- Family(F, N, Ty), Ty = "gpcr"`})
	if err != nil {
		t.Fatal(err)
	}
	if res2.NumTuples() != res1.NumTuples()+1 {
		t.Fatalf("stale citation after Invalidate: %d vs %d", res2.NumTuples(), res1.NumTuples())
	}
	st := c.CacheStats()
	hits, misses := st.Hits, st.Misses
	if hits != 0 || misses != 2 {
		t.Fatalf("stats after invalidate: %d hits %d misses", hits, misses)
	}
}

func TestCachedCiterUnsatBypassesCache(t *testing.T) {
	c := NewCached(newPaperCiter(t))
	for i := 0; i < 2; i++ {
		if _, err := c.Cite(context.Background(), Request{Datalog: `Q(N) :- Family(F, N, Ty), Ty = "a", Ty = "b"`}); err != nil {
			t.Fatal(err)
		}
	}
	st := c.CacheStats()
	hits, misses := st.Hits, st.Misses
	if hits != 0 || misses != 0 {
		t.Fatalf("unsat queries must bypass the cache: %d hits %d misses", hits, misses)
	}
}

// TestUnsatisfiableQueryKeepsColumns: an unsatisfiable query answers no rows
// under its head's columns, as an empty satisfiable one does — through a
// plain Citer, a CachedCiter and a batch slot of each, where two equal
// unsatisfiable requests form a class apiece — and on the wire.
func TestUnsatisfiableQueryKeepsColumns(t *testing.T) {
	plain, cached := newPaperCiter(t), NewCached(newPaperCiter(t))
	ctx := context.Background()
	for _, src := range []string{
		`Q(N) :- Family(F, N, Ty), Ty = "gpcr", Ty = "lgic"`, // unsatisfiable
		`Q(N) :- Family(F, N, Ty), Ty = "nonexistent"`,       // satisfiable, empty
	} {
		req := Request{Datalog: src}
		var items []BatchItem
		for _, cite := range []func(context.Context, Request) (*Citation, error){plain.Cite, cached.Cite} {
			ct, err := cite(ctx, req)
			items = append(items, BatchItem{Citation: ct, Err: err})
		}
		items = append(items, plain.CiteBatchItems(ctx, []Request{req, req})...)
		items = append(items, cached.CiteBatchItems(ctx, []Request{req, req})...)
		for i, it := range items {
			if it.Err != nil {
				t.Fatalf("%s, answer %d: %v", src, i, it.Err)
			}
			wire, err := it.Citation.AppendWire(nil)
			if err != nil {
				t.Fatal(err)
			}
			if cols := it.Citation.Columns(); !slices.Equal(cols, []string{"N"}) || !strings.HasPrefix(string(wire), `{"columns":["N"],"rows":[]`) {
				t.Fatalf("%s, answer %d: columns %q, wire %s; want [N] and no rows", src, i, cols, wire)
			}
		}
	}
}

// TestCachedCiterWaiterOutlivesCanceledLeader: concurrent misses share one
// flight, run under its leader's context. The leader is held on a stalled
// shard while a waiter with a live context joins, then its client goes away:
// the leader fails with ErrCanceled, and the waiter — handed no error by the
// failed flight — cites under its own context and gets the citation.
func TestCachedCiterWaiterOutlivesCanceledLeader(t *testing.T) {
	in := fault.NewInjector()
	in.SetFault(0, fault.ShardFault{Stall: true})
	sharded := shardedPaperCiter(t, gtopdb.PaperInstance(), 2)
	sharded.engine.SetShardWrapper(in.Wrap)
	if err := sharded.Reset(); err != nil {
		t.Fatal(err)
	}
	c := NewCached(sharded)
	req := Request{Datalog: gpcrJoinDatalog}
	want, err := shardedPaperCiter(t, gtopdb.PaperInstance(), 2).Cite(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderErr := make(chan error)
	go func() {
		_, err := c.Cite(leaderCtx, req)
		leaderErr <- err
	}()
	for c.CacheStats().Misses == 0 { // the leader's flight is up
		runtime.Gosched()
	}
	type answer struct {
		ct  *Citation
		err error
	}
	waiter := make(chan answer)
	go func() {
		ct, err := c.Cite(context.Background(), req)
		waiter <- answer{ct, err}
	}()
	for c.CacheStats().Waits == 0 { // the waiter joined it
		runtime.Gosched()
	}
	in.Clear()
	cancelLeader()
	if err := <-leaderErr; !errors.Is(err, ErrCanceled) {
		t.Fatalf("leader: err = %v, want ErrCanceled", err)
	}
	got := <-waiter
	if got.err != nil {
		t.Fatalf("waiter with a live context: err = %v, want its citation", got.err)
	}
	if got.ct.CitationJSON() != want.CitationJSON() || got.ct.NumTuples() != want.NumTuples() {
		t.Fatalf("waiter's citation diverged from a fault-free Cite")
	}
	if st := c.CacheStats(); st.Misses != 2 {
		t.Fatalf("%d misses, want the leader's flight and the waiter's own", st.Misses)
	}
}

func TestCachedCiterConcurrent(t *testing.T) {
	c := NewCached(newPaperCiter(t))
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Two distinct queries interleaved across goroutines.
			q := `Q(N) :- Family(F, N, Ty), Ty = "gpcr"`
			if i%2 == 1 {
				q = `Q(N) :- Family(F, N, Ty), Ty = "lgic"`
			}
			if _, err := c.Cite(context.Background(), Request{Datalog: q}); err != nil {
				errs <- fmt.Errorf("goroutine %d: %w", i, err)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := c.CacheStats()
	hits, misses := st.Hits, st.Misses
	if hits+misses != 32 {
		t.Fatalf("accounting: %d hits + %d misses != 32", hits, misses)
	}
	if misses < 2 {
		t.Fatalf("two distinct queries need at least 2 misses, got %d", misses)
	}
}

// TestCachedCiterHitKeepsRequestColumns: a datalog query and its SQL twin
// share one cache entry, but each answer must carry its own request's column
// labels — in either arrival order, through Cite and through a batch's hit
// path — with the engine still called once per entry.
func TestCachedCiterHitKeepsRequestColumns(t *testing.T) {
	dl := Request{Datalog: `Q(Name) :- Family(F, Name, Ty), Ty = "gpcr", FamilyIntro(F, Tx)`}
	sql := Request{SQL: "SELECT f.FName FROM Family f, FamilyIntro i WHERE f.FID = i.FID AND f.Type = 'gpcr'"}
	plain := newPaperCiter(t)
	want := map[string][]string{}
	for name, req := range map[string]Request{"datalog": dl, "sql": sql} {
		ct, err := plain.Cite(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		want[name] = ct.Columns()
	}
	if slices.Equal(want["datalog"], want["sql"]) {
		t.Fatalf("the two requests label their column alike (%v): the test would prove nothing", want["sql"])
	}
	for _, order := range [][]string{{"sql", "datalog"}, {"datalog", "sql"}} {
		c := NewCached(newPaperCiter(t))
		reqs := map[string]Request{"datalog": dl, "sql": sql}
		var first *Citation
		for _, name := range order {
			ct, err := c.Cite(context.Background(), reqs[name])
			if err != nil {
				t.Fatal(err)
			}
			if got := ct.Columns(); !slices.Equal(got, want[name]) {
				t.Fatalf("%v: %s request got columns %v, want its own %v", order, name, got, want[name])
			}
			if first == nil {
				first = ct
			} else if ct.CitationJSON() != first.CitationJSON() || len(ct.Rows()) != len(first.Rows()) {
				t.Fatalf("%v: the hit's citation differs from the entry's", order)
			}
		}
		if st := c.CacheStats(); st.Misses != 1 || st.Hits != 1 {
			t.Fatalf("%v: want one engine call and one hit, got %d misses %d hits", order, st.Misses, st.Hits)
		}
		// Both served from the cache now, in one batch.
		cts := batchCitations(t, c.CiteBatchItems(context.Background(), []Request{dl, sql}))
		for i, name := range []string{"datalog", "sql"} {
			if got := cts[i].Columns(); !slices.Equal(got, want[name]) {
				t.Fatalf("%v: batch hit for the %s request got columns %v, want %v", order, name, got, want[name])
			}
		}
		for i, item := range c.CiteBatchItems(context.Background(), []Request{sql, dl}) {
			name := []string{"sql", "datalog"}[i]
			if item.Err != nil || !slices.Equal(item.Citation.Columns(), want[name]) {
				t.Fatalf("%v: batch-items hit for the %s request: %v, %v", order, name, item.Citation.Columns(), item.Err)
			}
		}
	}
}

// TestCachedCitationPolynomialsSpelledOnce: a cached citation is read by many
// goroutines and by every response that hits it, and all its tuples that
// share a citation share one polynomial. TuplePolynomialAt must spell that
// polynomial (decode and quote every token) once per distinct citation, on
// first use, whichever goroutine gets there first — not once per tuple per
// call. Runs under -race: the first readers race for the spelling.
func TestCachedCitationPolynomialsSpelledOnce(t *testing.T) {
	c := NewCached(gtopdbTypeInstance(t))
	req := Request{Datalog: `Q(N, Pn) :- Family(F, N, Ty), Ty = "type-03", FC(F, P), Person(P, Pn, A)`}
	ct, err := c.Cite(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	n := ct.NumTuples()
	if n < 100 {
		t.Fatalf("type ⋈ committee returned %d tuples, want an answer whose tuples share citations", n)
	}
	// Cold: eight readers of the one cached citation, every tuple each.
	polys := make([][]string, 8)
	var wg sync.WaitGroup
	for g := range polys {
		wg.Add(1)
		go func() {
			defer wg.Done()
			hit, err := c.Cite(context.Background(), req)
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < n; i++ {
				p, err := hit.TuplePolynomialAt(i)
				if err != nil {
					t.Error(err)
					return
				}
				polys[g] = append(polys[g], p)
			}
		}()
	}
	wg.Wait()
	distinct := map[string]bool{}
	for i := 0; i < n; i++ {
		want := core.PolyString(ct.res.Tuples[i].Combined)
		distinct[want] = true
		for g := range polys {
			if len(polys[g]) != n || polys[g][i] != want {
				t.Fatalf("reader %d, tuple %d: polynomial differs from PolyString(Combined) %q", g, i, want)
			}
		}
	}
	if raceEnabled {
		return // allocation counts are inflated under the race detector
	}
	// Warm: a second pass over all tuples builds nothing.
	allocs := testing.AllocsPerRun(5, func() {
		for i := 0; i < n; i++ {
			if _, err := ct.TuplePolynomialAt(i); err != nil {
				t.Fatal(err)
			}
		}
	})
	t.Logf("%d tuples, %d distinct citations: %.0f allocs for a second pass of TuplePolynomialAt", n, len(distinct), allocs)
	if allocs > float64(len(distinct)) {
		t.Fatalf("second pass over %d tuples allocates %.0f times, more than the %d distinct citations — polynomials are spelled per tuple per call", n, allocs, len(distinct))
	}
}

// TestCachedHitIsTheQuerysOwnCitation: a query served from the entry a
// renamed twin filled gets the citation it would have got on its own. A
// tuple's record lists its rewritings' records in rewriting order, and a
// preference order that ties keeps the first rewriting, so that order must
// not depend on how the query names its variables: named as written,
// V1(W)·V2(Z) sorts before V1(Z)·V2(W) here and after its image in the twin.
func TestCachedHitIsTheQuerysOwnCitation(t *testing.T) {
	schema := storage.NewSchema()
	schema.MustAddRelation(&storage.RelSchema{Name: "S", Cols: []storage.Column{{Name: "a"}}})
	db := storage.NewDB(schema)
	db.MustInsert("S", "a")
	db.MustInsert("S", "c")
	const views = `
view V1(A) :- S(A).
cite V1 CV1(A) :- S(A).
fmt V1 { "View": "V1", "All": [A] }.
view λA. V2(A) :- S(A).
cite V2 λA. CV2(A) :- S(A).
fmt V2 { "View": "V2", "Key": A }.
`
	pol := WithPolicy(Policy{Times: Union, Plus: Union, PlusR: Union, Agg: Union})
	own, err := NewFromProgram(db, views, pol)
	if err != nil {
		t.Fatal(err)
	}
	shared, err := NewFromProgram(db, views, pol)
	if err != nil {
		t.Fatal(err)
	}
	cached := NewCached(shared)
	ctx := context.Background()
	if _, err := cached.Cite(ctx, Request{Datalog: `Q(W, Y) :- S(Y), S(W)`}); err != nil {
		t.Fatal(err)
	}
	req := Request{Datalog: `Q(Z, W) :- S(W), S(Z)`}
	hit, err := cached.Cite(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if st := cached.CacheStats(); st.Hits != 1 {
		t.Fatalf("%d hits: the renamed twin missed the entry", st.Hits)
	}
	want, err := own.Cite(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.NumTuples() {
		if got, want := tuplePoly(t, hit, i), tuplePoly(t, want, i); got != want {
			t.Fatalf("tuple %v: cached %s, its own citation %s", hit.Rows()[i], got, want)
		}
		if got, want := tupleJSON(t, hit, i), tupleJSON(t, want, i); got != want {
			t.Fatalf("tuple %v: cached record %s, its own %s", hit.Rows()[i], got, want)
		}
	}
	if hit.CitationJSON() != want.CitationJSON() {
		t.Fatalf("aggregate: cached %s, its own %s", hit.CitationJSON(), want.CitationJSON())
	}
}
