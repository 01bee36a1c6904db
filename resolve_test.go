package citare

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"citare/internal/gtopdb"
)

// TestResolveMemoHoldsNoData: a request text resolved before a write is
// served from the memo after it — and still sees the new data, through Reset
// on a Citer and through Invalidate on a CachedCiter, because what the memo
// keeps (parse, plan, key) depends on no data and no epoch.
func TestResolveMemoHoldsNoData(t *testing.T) {
	db := gtopdb.PaperInstance()
	citer, err := NewFromProgram(db, gtopdb.ViewsProgram)
	if err != nil {
		t.Fatal(err)
	}
	cached := NewCached(citer)
	ctx := context.Background()
	req := Request{Datalog: `Q(N) :- Family(F, N, Ty), Ty = "gpcr"`}
	before, err := citer.Cite(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cached.Cite(ctx, req); err != nil {
		t.Fatal(err)
	}

	db.MustInsert("Family", "88", "Fresh", "gpcr")
	if err := cached.Invalidate(); err != nil { // resets the Citer too
		t.Fatal(err)
	}
	for name, cite := range map[string]func(context.Context, Request) (*Citation, error){"Citer": citer.Cite, "CachedCiter": cached.Cite} {
		after, err := cite(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if after.NumTuples() != before.NumTuples()+1 || !rowsContain(after, "Fresh") {
			t.Fatalf("%s: the same text after a write and a reset cites %d tuples, %d before — stale", name, after.NumTuples(), before.NumTuples())
		}
	}
	if st := citer.ResolveStats(); st.Misses != 1 || st.Hits != 3 {
		t.Fatalf("resolve memo: %d misses / %d hits over four requests of one text, want 1 / 3", st.Misses, st.Hits)
	}
}

func rowsContain(ct *Citation, v string) bool {
	for _, row := range ct.Rows() {
		for _, cell := range row {
			if cell == v {
				return true
			}
		}
	}
	return false
}

// TestResolveMemoStoresNoFailure: a text that does not parse fails again with
// the same tagged error instead of being remembered, and an unknown format is
// refused per request even when the text is known.
func TestResolveMemoStoresNoFailure(t *testing.T) {
	c := newPaperCiter(t)
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		for _, req := range []Request{{Datalog: `Q(N) :- Family(F, N`}, {SQL: `SELECT nope FROM Nada`}, {}} {
			if _, err := c.Cite(ctx, req); !errors.Is(err, ErrParse) {
				t.Fatalf("round %d, %+v: error %v, want ErrParse", i, req, err)
			}
		}
	}
	if n := c.resolves.Len(); n != 0 {
		t.Fatalf("resolve memo holds %d entries after failures only", n)
	}
	good := Request{Datalog: `Q(N) :- Family(F, N, Ty), Ty = "gpcr"`}
	if _, err := c.Cite(ctx, good); err != nil {
		t.Fatal(err)
	}
	good.Format = "yaml"
	if _, err := c.Cite(ctx, good); !errors.Is(err, ErrParse) {
		t.Fatalf("unknown format on a known text: error %v, want ErrParse", err)
	}
}

// TestSharedPreparedConcurrentCiteEach: concurrent requests of one text share
// one resolved request — one *core.Prepared cited from many goroutines at
// once, streamed and materialized, with a Reset in between. Every stream must
// be the sequential one. Runs under -race.
func TestSharedPreparedConcurrentCiteEach(t *testing.T) {
	c := gtopdbTypeInstance(t)
	ctx := context.Background()
	req := Request{Datalog: `Q(N, Pn) :- Family(F, N, Ty), Ty = "type-03", FC(F, P), Person(P, Pn, A)`}
	stream := func() (string, error) {
		var sb strings.Builder
		err := c.CiteEach(ctx, req, func(tu Tuple) error {
			sb.WriteString(strings.Join(tu.Values, "\x00") + "\x01" + tu.Polynomial + "\x01" + tu.CitationJSON + "\n")
			return nil
		})
		return sb.String(), err
	}
	want, err := stream()
	if err != nil || want == "" {
		t.Fatalf("sequential stream: %d bytes, %v", len(want), err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				if g == 0 && round == 1 {
					if err := c.Reset(); err != nil {
						t.Error(err)
					}
				}
				if g%2 == 1 {
					if ct, err := c.Cite(ctx, req); err != nil || ct.NumTuples() == 0 {
						t.Errorf("goroutine %d: Cite: %v", g, err)
					}
					continue
				}
				if got, err := stream(); err != nil || got != want {
					t.Errorf("goroutine %d: stream differs from the sequential one (%v)", g, err)
				}
			}
		}()
	}
	wg.Wait()
	if st := c.ResolveStats(); st.Misses != 1 || st.Hits != 24 {
		t.Fatalf("resolve memo: %d misses / %d hits, want one resolved request behind all 25", st.Misses, st.Hits)
	}
}

// TestParseSpanSaysCached: the parse span of an Explain report says whether
// the request's text had been resolved before, as the rewrite span says of
// the plan.
func TestParseSpanSaysCached(t *testing.T) {
	c := newPaperCiter(t)
	req := Request{Datalog: `Q(N) :- Family(F, N, Ty), Ty = "gpcr"`, Explain: true}
	for i, want := range []int64{0, 1} {
		ct, err := c.Cite(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		parse := ct.Explain().Find("parse")
		if parse == nil || parse.Attrs["cached"] != want {
			t.Fatalf("request %d: parse span %+v, want cached=%d", i, parse, want)
		}
	}
}

// TestCachedStreamResolvesOnce: a stream through the cache reads its text
// once, whether the cache answers it or not — one memo miss for a new text,
// then one hit per later stream; a text that does not parse is parsed once
// per stream.
func TestCachedStreamResolvesOnce(t *testing.T) {
	c := newPaperCiter(t)
	cached := NewCached(c)
	ctx := context.Background()
	req := Request{Datalog: `Q(N) :- Family(F, N, Ty), Ty = "gpcr"`}
	none := func(Tuple) error { return nil }
	if err := cached.CiteEach(ctx, req, none); err != nil {
		t.Fatal(err)
	}
	if st := c.ResolveStats(); st.Misses != 1 || st.Hits != 0 {
		t.Fatalf("one stream of a new text: %d misses / %d hits, want 1 / 0", st.Misses, st.Hits)
	}
	if _, err := cached.Cite(ctx, req); err != nil {
		t.Fatal(err)
	}
	if err := cached.CiteEach(ctx, req, none); err != nil { // a replay
		t.Fatal(err)
	}
	if st := c.ResolveStats(); st.Misses != 1 || st.Hits != 2 {
		t.Fatalf("then a Cite and a replay: %d misses / %d hits, want 1 / 2", st.Misses, st.Hits)
	}
	bad := Request{Datalog: `Q(N) :- Family(F, N`}
	if err := cached.CiteEach(ctx, bad, none); !errors.Is(err, ErrParse) {
		t.Fatalf("unparsable text: %v, want ErrParse", err)
	}
	if st := c.ResolveStats(); st.Misses != 2 || st.Hits != 2 {
		t.Fatalf("then a stream of an unparsable text: %d misses / %d hits, want 2 / 2", st.Misses, st.Hits)
	}
}
