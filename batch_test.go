package citare

// CiteBatch tests: byte-identical parity with independent Cite calls,
// logical-plan compilation shared across equivalent requests (asserted via
// the engine's plan-cache counters), cache interplay, and batch errors.

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"

	"citare/internal/fault"
	"citare/internal/gtopdb"
)

// batchRequests is a mixed batch: k copies of the paper join (two written
// as syntactic variants), a SQL spelling of another query, and a point
// lookup.
func batchRequests(k int) []Request {
	reqs := make([]Request, 0, k+2)
	for i := 0; i < k; i++ {
		q := gpcrJoinDatalog
		if i%2 == 1 {
			// Same query, different surface syntax: body reordered and
			// variables renamed — must share the group.
			q = `Q(Name) :- FamilyIntro(Fid, Text), Family(Fid, Name, Kind), Kind = "gpcr"`
		}
		reqs = append(reqs, Request{Datalog: q})
	}
	reqs = append(reqs,
		Request{SQL: `SELECT f.FName, p.PName FROM Family f, FC c, Person p WHERE f.FID = c.FID AND c.PID = p.PID AND f.FID = '11'`},
		Request{Datalog: `Q(N) :- Family(F, N, Ty), F = "11"`},
	)
	return reqs
}

// TestCiteBatchParity: CiteBatch output is byte-identical to N independent
// Cite calls on an identically constructed Citer.
func TestCiteBatchParity(t *testing.T) {
	reqs := batchRequests(6)
	batchCiter := newPaperCiter(t, WithNeutralCitation(gtopdb.DatabaseCitation()))
	soloCiter := newPaperCiter(t, WithNeutralCitation(gtopdb.DatabaseCitation()))

	got, err := batchCiter.CiteBatch(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(reqs) {
		t.Fatalf("results: %d, want %d", len(got), len(reqs))
	}
	for i, req := range reqs {
		want, err := soloCiter.Cite(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if got[i].CitationJSON() != want.CitationJSON() {
			t.Fatalf("request %d citation diverged:\n got %s\nwant %s", i, got[i].CitationJSON(), want.CitationJSON())
		}
		gr, wr := got[i].Rows(), want.Rows()
		if len(gr) != len(wr) {
			t.Fatalf("request %d rows: %d vs %d", i, len(gr), len(wr))
		}
		for ti := range gr {
			gp, _ := got[i].TuplePolynomialAt(ti)
			wp, _ := want.TuplePolynomialAt(ti)
			if gp != wp {
				t.Fatalf("request %d tuple %d polynomial diverged: %q vs %q", i, ti, gp, wp)
			}
			gj, _ := got[i].TupleCitationJSONAt(ti)
			wj, _ := want.TupleCitationJSONAt(ti)
			if gj != wj {
				t.Fatalf("request %d tuple %d citation diverged", i, ti)
			}
		}
		gotOut, err := got[i].Rendered()
		if err != nil {
			t.Fatal(err)
		}
		wantOut, err := want.Rendered()
		if err != nil {
			t.Fatal(err)
		}
		if gotOut != wantOut {
			t.Fatalf("request %d rendering diverged", i)
		}
	}
}

// TestCiteBatchCompilesOnce: a batch of k equivalent requests compiles its
// logical plan exactly once, asserted via the engine's plan-cache counters;
// a mixed batch compiles once per equivalence class.
func TestCiteBatchCompilesOnce(t *testing.T) {
	c := newPaperCiter(t)
	k := 8
	reqs := make([]Request, k)
	for i := range reqs {
		q := gpcrJoinDatalog
		if i%2 == 1 {
			q = `Q(Name) :- FamilyIntro(Fid, Text), Family(Fid, Name, Kind), Kind = "gpcr"`
		}
		reqs[i] = Request{Datalog: q}
	}
	if _, err := c.CiteBatch(context.Background(), reqs); err != nil {
		t.Fatal(err)
	}
	if hits, misses := c.Engine().LogicalPlanStats(); misses != 1 || hits != 0 {
		t.Fatalf("k equivalent requests: %d misses / %d hits, want exactly 1 compilation", misses, hits)
	}

	// Mixed batch on a fresh engine: one compilation per equivalence class.
	c2 := newPaperCiter(t)
	if _, err := c2.CiteBatch(context.Background(), batchRequests(6)); err != nil {
		t.Fatal(err)
	}
	if _, misses := c2.Engine().LogicalPlanStats(); misses != 3 {
		t.Fatalf("mixed batch: %d compilations, want 3 (one per distinct query)", misses)
	}
}

// TestCiteBatchErrors: all-or-nothing failure naming the first bad request
// in batch order, and cancellation tagging.
func TestCiteBatchErrors(t *testing.T) {
	c := newPaperCiter(t)
	ctx := context.Background()

	_, err := c.CiteBatch(ctx, []Request{
		{Datalog: gpcrJoinDatalog},
		{Datalog: "Q(X) :-"},
		{SQL: "SELEKT"},
	})
	var be *BatchError
	if !errors.As(err, &be) || be.Index != 1 || !errors.Is(err, ErrParse) {
		t.Fatalf("err = %v, want BatchError{Index: 1} tagged ErrParse", err)
	}

	canceled, cancel := context.WithCancel(ctx)
	cancel()
	_, err = c.CiteBatch(canceled, []Request{{Datalog: gpcrJoinDatalog}})
	if !errors.As(err, &be) || !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want BatchError tagged ErrCanceled", err)
	}

	if res, err := c.CiteBatch(ctx, nil); res != nil || err != nil {
		t.Fatalf("empty batch: %v, %v", res, err)
	}
}

// TestCiteBatchItems: per-item error isolation — a parse failure and an
// evaluation-time limit failure land as typed errors in their own slots while
// the surrounding requests still evaluate, byte-identical to solo Cite calls.
func TestCiteBatchItems(t *testing.T) {
	c := newPaperCiter(t)
	solo := newPaperCiter(t)
	ctx := context.Background()

	reqs := []Request{
		{Datalog: gpcrJoinDatalog},
		{SQL: "SELEKT"},
		{Datalog: `Q(N) :- Family(F, N, Ty), F = "11"`},
		{Datalog: gpcrJoinDatalog, MaxTuples: 1}, // fails during evaluation
	}
	items := c.CiteBatchItems(ctx, reqs)
	if len(items) != len(reqs) {
		t.Fatalf("items: %d, want %d", len(items), len(reqs))
	}
	for _, i := range []int{0, 2} {
		if items[i].Err != nil || items[i].Citation == nil {
			t.Fatalf("item %d: err = %v, want success", i, items[i].Err)
		}
		want, err := solo.Cite(ctx, reqs[i])
		if err != nil {
			t.Fatal(err)
		}
		if items[i].Citation.CitationJSON() != want.CitationJSON() {
			t.Fatalf("item %d citation diverged from solo Cite", i)
		}
	}
	if items[1].Citation != nil || !errors.Is(items[1].Err, ErrParse) {
		t.Fatalf("item 1: err = %v, want ErrParse and nil citation", items[1].Err)
	}
	if items[3].Citation != nil || !errors.Is(items[3].Err, ErrLimit) {
		t.Fatalf("item 3: err = %v, want ErrLimit and nil citation", items[3].Err)
	}

	// A pre-canceled context marks every evaluated item ErrCanceled; parse
	// failures keep their own, more specific error.
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	items = c.CiteBatchItems(canceled, reqs[:2])
	if !errors.Is(items[0].Err, ErrCanceled) {
		t.Fatalf("canceled item 0: err = %v, want ErrCanceled", items[0].Err)
	}
	if !errors.Is(items[1].Err, ErrParse) {
		t.Fatalf("canceled item 1: err = %v, want ErrParse", items[1].Err)
	}

	if items := c.CiteBatchItems(ctx, nil); len(items) != 0 {
		t.Fatalf("empty batch: %d items, want 0", len(items))
	}
}

// TestCachedCiterBatchItems: the cached per-item batch serves hits from the
// cache, never caches failures, and keeps error slots isolated.
func TestCachedCiterBatchItems(t *testing.T) {
	cached := NewCached(newPaperCiter(t))
	ctx := context.Background()

	reqs := []Request{
		{Datalog: gpcrJoinDatalog},
		{SQL: "SELEKT"},
		{Datalog: `Q(N) :- Family(F, N, Ty), F = "11"`},
	}
	first := cached.CiteBatchItems(ctx, reqs)
	if first[0].Err != nil || first[2].Err != nil || !errors.Is(first[1].Err, ErrParse) {
		t.Fatalf("first pass: errs = [%v %v %v]", first[0].Err, first[1].Err, first[2].Err)
	}

	// Second identical batch: the successes come from the cache (no new
	// compilation), the parse failure errors again.
	_, preMisses := cached.Citer().Engine().LogicalPlanStats()
	second := cached.CiteBatchItems(ctx, reqs)
	if _, postMisses := cached.Citer().Engine().LogicalPlanStats(); postMisses != preMisses {
		t.Fatal("second per-item batch recompiled instead of hitting the cache")
	}
	if !errors.Is(second[1].Err, ErrParse) {
		t.Fatalf("second pass item 1: err = %v, want ErrParse", second[1].Err)
	}
	for _, i := range []int{0, 2} {
		if second[i].Err != nil ||
			second[i].Citation.CitationJSON() != first[i].Citation.CitationJSON() {
			t.Fatalf("item %d diverged across cached batches", i)
		}
	}
}

// TestCachedCiterBatch: the cached batch serves hits from the cache, routes
// misses through the plan-shared batch, and fills the cache for later
// single-request hits.
func TestCachedCiterBatch(t *testing.T) {
	cached := NewCached(newPaperCiter(t))
	ctx := context.Background()

	reqs := batchRequests(4)
	got, err := cached.CiteBatch(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	// The engine saw one evaluation per equivalence class, not per request.
	if _, misses := cached.Citer().Engine().LogicalPlanStats(); misses != 3 {
		t.Fatalf("engine compiled %d plans, want 3", misses)
	}
	// A later single request hits the cache without touching the engine.
	_, preMisses := cached.Citer().Engine().LogicalPlanStats()
	again, err := cached.Cite(ctx, reqs[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, postMisses := cached.Citer().Engine().LogicalPlanStats(); postMisses != preMisses {
		t.Fatal("single request after batch recompiled instead of hitting the cache")
	}
	if again.CitationJSON() != got[0].CitationJSON() {
		t.Fatal("cached citation diverged from batch result")
	}

	// A second identical batch is served fully from the cache.
	hitsBefore := func() uint64 { s := cached.CacheStats(); return s.Hits }()
	again2, err := cached.CiteBatch(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if s := cached.CacheStats(); s.Hits <= hitsBefore {
		t.Fatalf("second batch produced no cache hits (hits %d -> %d)", hitsBefore, s.Hits)
	}
	for i := range reqs {
		if again2[i].CitationJSON() != got[i].CitationJSON() {
			t.Fatalf("request %d diverged across batches", i)
		}
	}
}

// TestCiteBatchMembersKeepOwnColumns: a SQL request and its datalog twin land
// in one group of an uncached batch — one engine call — and each answer
// still carries its own request's column labels and render format, in either
// order, through CiteBatch and CiteBatchItems.
func TestCiteBatchMembersKeepOwnColumns(t *testing.T) {
	ctx := context.Background()
	reqs := map[string]Request{
		"datalog": {Datalog: `Q(Name) :- Family(F, Name, Ty), Ty = "gpcr", FamilyIntro(F, Tx)`, Format: "text"},
		"sql":     {SQL: "SELECT f.FName FROM Family f, FamilyIntro i WHERE f.FID = i.FID AND f.Type = 'gpcr'"},
	}
	want := map[string]*Citation{}
	for name, req := range reqs {
		ct, err := newPaperCiter(t).Cite(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		want[name] = ct
	}
	if slices.Equal(want["datalog"].Columns(), want["sql"].Columns()) {
		t.Fatalf("the two requests label their column alike (%v): the test would prove nothing", want["sql"].Columns())
	}
	check := func(order []string, how, name string, got *Citation) {
		t.Helper()
		if !slices.Equal(got.Columns(), want[name].Columns()) {
			t.Fatalf("%v %s: %s request got columns %v, want its own %v", order, how, name, got.Columns(), want[name].Columns())
		}
		if got.Format() != want[name].Format() || got.CitationJSON() != want[name].CitationJSON() {
			t.Fatalf("%v %s: %s request got format %s and a citation that differs from its independent Cite", order, how, name, got.Format())
		}
	}
	for _, order := range [][]string{{"sql", "datalog"}, {"datalog", "sql"}} {
		batch := []Request{reqs[order[0]], reqs[order[1]]}
		c := newPaperCiter(t)
		cts, err := c.CiteBatch(ctx, batch)
		if err != nil {
			t.Fatal(err)
		}
		for i, name := range order {
			check(order, "CiteBatch", name, cts[i])
		}
		if hits, misses := c.Engine().LogicalPlanStats(); hits+misses != 1 {
			t.Fatalf("%v: the twins took %d engine calls, want one group", order, hits+misses)
		}
		for i, item := range newPaperCiter(t).CiteBatchItems(ctx, batch) {
			if item.Err != nil {
				t.Fatal(item.Err)
			}
			check(order, "CiteBatchItems", order[i], item.Citation)
		}
	}
}

// TestCachedBatchStoresEachClassOnce: through the cache, a batch looks every
// request up — hits and misses count per request — and stores what each
// class of equivalent requests evaluated to once, with the response memo its
// members and later hits share; a class that failed stores nothing.
func TestCachedBatchStoresEachClassOnce(t *testing.T) {
	const shards, stalled = 3, 1
	in := fault.NewInjector()
	in.SetFault(stalled, fault.ShardFault{Stall: true})
	c := resilientPaperCiter(t, shards, in, chaosConfig())
	ctx := context.Background()
	// A point lookup whose key lives off the stalled shard evaluates fully.
	fid := ""
	for _, f := range []string{"11", "12", "13", "14", "20"} {
		if ct, err := c.Cite(ctx, Request{Datalog: fmt.Sprintf(`Q(N) :- Family(F, N, Ty), F = %q`, f)}); err == nil && ct.NumTuples() == 1 {
			fid = f
			break
		}
	}
	if fid == "" {
		t.Fatal("every family lives on the stalled shard")
	}
	reqs := []Request{
		{Datalog: fmt.Sprintf(`Q(N) :- Family(F, N, Ty), F = %q`, fid)},
		{Datalog: fmt.Sprintf(`Q(Name) :- Family(G, Name, T), G = %q`, fid)},       // the same class, its own column label
		{Datalog: `Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), Ty = "gpcr"`}, // reads the stalled shard
	}
	cached := NewCached(c)
	first := cached.CiteBatchItems(ctx, reqs)
	if first[0].Err != nil || first[1].Err != nil || first[2].Citation != nil || !errors.Is(first[2].Err, ErrShardUnavailable) {
		t.Fatalf("first batch: errs [%v %v %v], want the point class whole and the last request unavailable", first[0].Err, first[1].Err, first[2].Err)
	}
	if st := cached.CacheStats(); st.Hits != 0 || st.Misses != 3 {
		t.Fatalf("first batch: %d hits / %d misses, want a miss per request", st.Hits, st.Misses)
	}
	memo := first[0].Citation.wire
	if memo == nil || first[1].Citation.wire != memo {
		t.Fatal("the two members of one class do not share one stored citation")
	}
	if n := cached.entries.Len(); n != 1 {
		t.Fatalf("%d entries stored, want the point class alone: a failure is never stored", n)
	}
	again := cached.CiteBatchItems(ctx, reqs)
	if st := cached.CacheStats(); st.Hits != 2 || st.Misses != 4 {
		t.Fatalf("second batch: %d hits / %d misses in all, want the class's two members hits and the failed request a miss", st.Hits, st.Misses)
	}
	for i, it := range again[:2] {
		if it.Err != nil || it.Citation.wire != memo || !slices.Equal(it.Citation.Columns(), first[i].Citation.Columns()) {
			t.Fatalf("second batch, request %d: not the stored citation under its own labels (%v)", i, it.Err)
		}
	}
}

// BenchmarkCiteBatch prices one batch of 16 requests per op against the same
// requests as independent Cite calls, on the 500-family instance with warm
// plan and token caches. The equivalent batch is one join query, half of it
// spelled as a syntactic variant, so CiteBatch evaluates it once; the mixed
// batch cycles four distinct queries. TestCiteBatchCompilesOnce asserts the
// grouping.
func BenchmarkCiteBatch(b *testing.B) {
	const join = `Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), Ty = "type-01"`
	cfg := gtopdb.DefaultConfig()
	cfg.Families = 500
	db := gtopdb.Generate(cfg)
	for _, bc := range []struct {
		name string
		pool []string
	}{
		{"equivalent", []string{join, `Q(Name, Text) :- FamilyIntro(Fid, Text), Family(Fid, Name, Kind), Kind = "type-01"`}},
		{"mixed", []string{
			join,
			`Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), F = "250"`,
			`Q(N) :- Family(F, N, Ty), Ty = "type-02"`,
			`Q(N, Pn) :- Family(F, N, Ty), FC(F, P), Person(P, Pn, A), F = "100"`,
		}},
	} {
		reqs := make([]Request, 16)
		for i := range reqs {
			reqs[i] = Request{Datalog: bc.pool[i%len(bc.pool)]}
		}
		citer := func(b *testing.B) *Citer {
			c, err := NewFromProgram(db, gtopdb.ViewsProgram)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := c.Cite(context.Background(), Request{Datalog: join}); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			return c
		}
		b.Run("batch/"+bc.name+"-k=16", func(b *testing.B) {
			c := citer(b)
			for i := 0; i < b.N; i++ {
				if _, err := c.CiteBatch(context.Background(), reqs); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("independent/"+bc.name+"-k=16", func(b *testing.B) {
			c := citer(b)
			for i := 0; i < b.N; i++ {
				for _, req := range reqs {
					if _, err := c.Cite(context.Background(), req); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
