package citare

// Tests for the context-first request API: the typed error taxonomy,
// per-request options, the explicit-error tuple accessors, and parity of
// the deprecated wrappers with the new surface.

import (
	"context"
	"errors"
	"testing"

	"citare/internal/gtopdb"
	"citare/internal/sqlfe"
)

const gpcrJoinDatalog = `Q(N) :- Family(F, N, Ty), Ty = "gpcr", FamilyIntro(F, Tx)`

func TestRequestErrorTaxonomy(t *testing.T) {
	c := newPaperCiter(t)
	ctx := context.Background()
	cases := []struct {
		name string
		req  Request
		want error
	}{
		{"no query", Request{}, ErrParse},
		{"both queries", Request{SQL: "SELECT FName FROM Family", Datalog: "Q(X) :- Family(X, N, T)"}, ErrParse},
		{"sql syntax", Request{SQL: "SELEKT nope"}, ErrParse},
		{"sql unknown table", Request{SQL: "SELECT x FROM Nada"}, ErrParse},
		{"datalog syntax", Request{Datalog: "Q(X) :-"}, ErrParse},
		{"unsafe head", Request{Datalog: "Q(X) :- Family(F, N, T)"}, ErrParse},
		{"bad format", Request{Datalog: gpcrJoinDatalog, Format: "yaml"}, ErrParse},
		{"unknown relation", Request{Datalog: "Q(X) :- Nope(X)"}, ErrSchema},
		{"arity mismatch", Request{Datalog: "Q(X) :- Family(X)"}, ErrSchema},
		{"tuple limit", Request{Datalog: `Q(N) :- Family(F, N, Ty), Ty = "gpcr"`, MaxTuples: 1}, ErrLimit},
	}
	for _, tc := range cases {
		_, err := c.Cite(ctx, tc.req)
		if !errors.Is(err, tc.want) {
			t.Fatalf("%s: err = %v, want errors.Is(err, %v)", tc.name, err, tc.want)
		}
	}

	// The original cause stays reachable: a SQL parse error still carries
	// its position through the taxonomy wrapper.
	_, err := c.Cite(ctx, Request{SQL: "SELECT x FROM Nada"})
	var se *sqlfe.Error
	if !errors.As(err, &se) {
		t.Fatalf("underlying *sqlfe.Error lost: %v", err)
	}
}

func TestRequestCanceledContext(t *testing.T) {
	c := newPaperCiter(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := c.Cite(ctx, Request{Datalog: gpcrJoinDatalog})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("context.Canceled not reachable through %v", err)
	}
}

func TestTupleAccessorsRangeErrors(t *testing.T) {
	c := newPaperCiter(t)
	res, err := c.Cite(context.Background(), Request{Datalog: gpcrJoinDatalog})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumTuples() == 0 {
		t.Fatal("no tuples")
	}
	for _, i := range []int{-1, res.NumTuples(), res.NumTuples() + 7} {
		if _, err := res.TuplePolynomialAt(i); !errors.Is(err, ErrRange) {
			t.Fatalf("TuplePolynomialAt(%d) err = %v, want ErrRange", i, err)
		}
		if _, err := res.TupleCitationJSONAt(i); !errors.Is(err, ErrRange) {
			t.Fatalf("TupleCitationJSONAt(%d) err = %v, want ErrRange", i, err)
		}
	}
	// In range, the accessors render the tuple's own citation.
	tc := res.Result().Tuples[0]
	poly, err := res.TuplePolynomialAt(0)
	if err != nil || poly == "" || poly != tc.CiteTupleString() {
		t.Fatalf("TuplePolynomialAt(0) = %q, %v; the tuple's polynomial is %q", poly, err, tc.CiteTupleString())
	}
	cj, err := res.TupleCitationJSONAt(0)
	if err != nil || cj != tc.Rendered.JSON() {
		t.Fatalf("TupleCitationJSONAt(0) = %q, %v", cj, err)
	}
}

func TestRequestMaxRewritings(t *testing.T) {
	// Disable the §2.3 preference pruning so the paper query keeps all its
	// rewritings and the per-request bound has something to cut.
	c := newPaperCiter(t, WithPolicy(Policy{
		Times: Join, Plus: Union, PlusR: Union, Agg: Union,
		AllowPartial: true, IdempotentPlus: true,
	}))
	full, err := c.Cite(context.Background(), Request{Datalog: gpcrJoinDatalog})
	if err != nil {
		t.Fatal(err)
	}
	bounded, err := c.Cite(context.Background(), Request{Datalog: gpcrJoinDatalog, MaxRewritings: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(bounded.Rewritings()) > 1 {
		t.Fatalf("MaxRewritings=1 produced %d rewritings", len(bounded.Rewritings()))
	}
	if len(full.Rewritings()) <= 1 {
		t.Fatalf("paper query should admit several rewritings, got %d", len(full.Rewritings()))
	}
}

// TestRequestMaxRewritingsClampedToPolicy: a request can tighten the
// policy's rewriting bound but never raise it past the operator's guard.
func TestRequestMaxRewritingsClampedToPolicy(t *testing.T) {
	c := newPaperCiter(t, WithPolicy(Policy{
		Times: Join, Plus: Union, PlusR: Union, Agg: Union,
		AllowPartial: true, MaxRewritings: 1,
	}))
	res, err := c.Cite(context.Background(), Request{Datalog: gpcrJoinDatalog, MaxRewritings: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rewritings()) > 1 {
		t.Fatalf("request raised the policy bound: %d rewritings", len(res.Rewritings()))
	}
}

func TestRequestFormatAndRendered(t *testing.T) {
	c := newPaperCiter(t)
	res, err := c.Cite(context.Background(), Request{Datalog: gpcrJoinDatalog, Format: "bibtex"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Format() != "bibtex" {
		t.Fatalf("Format() = %q", res.Format())
	}
	out, err := res.Rendered()
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := res.Render("bibtex")
	if err != nil {
		t.Fatal(err)
	}
	if out != explicit {
		t.Fatal("Rendered() diverged from Render(request format)")
	}
}

func TestCiteEachStreams(t *testing.T) {
	c := newPaperCiter(t)
	res, err := c.Cite(context.Background(), Request{Datalog: gpcrJoinDatalog})
	if err != nil {
		t.Fatal(err)
	}
	var got []Tuple
	err = c.CiteEach(context.Background(), Request{Datalog: gpcrJoinDatalog}, func(tu Tuple) error {
		got = append(got, tu)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != res.NumTuples() {
		t.Fatalf("streamed %d tuples, want %d", len(got), res.NumTuples())
	}
	for i, tu := range got {
		if tu.Index != i {
			t.Fatalf("tuple %d has index %d", i, tu.Index)
		}
		wantPoly, _ := res.TuplePolynomialAt(i)
		wantJSON, _ := res.TupleCitationJSONAt(i)
		rows := res.Rows()
		if tu.Polynomial != wantPoly || tu.CitationJSON != wantJSON {
			t.Fatalf("tuple %d diverged from Cite:\n got %q / %q\nwant %q / %q",
				i, tu.Polynomial, tu.CitationJSON, wantPoly, wantJSON)
		}
		if len(tu.Values) != len(rows[i]) {
			t.Fatalf("tuple %d values %v vs rows %v", i, tu.Values, rows[i])
		}
		for j := range tu.Values {
			if tu.Values[j] != rows[i][j] {
				t.Fatalf("tuple %d values %v vs rows %v", i, tu.Values, rows[i])
			}
		}
	}

	// A callback error aborts the stream with that error, untagged.
	sentinel := errors.New("stop here")
	err = c.CiteEach(context.Background(), Request{Datalog: gpcrJoinDatalog}, func(Tuple) error {
		return sentinel
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("callback error lost: %v", err)
	}
}

func TestCachedCiterRequestAPI(t *testing.T) {
	cached := NewCached(newPaperCiter(t, WithNeutralCitation(gtopdb.DatabaseCitation())))
	ctx := context.Background()

	a, err := cached.Cite(ctx, Request{Datalog: gpcrJoinDatalog})
	if err != nil {
		t.Fatal(err)
	}
	// A syntactic variant hits the same entry.
	b, err := cached.Cite(ctx, Request{Datalog: `Q(Name) :- FamilyIntro(Fid, Text), Family(Fid, Name, Kind), Kind = "gpcr"`})
	if err != nil {
		t.Fatal(err)
	}
	if st := cached.CacheStats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %d hits / %d misses, want 1/1", st.Hits, st.Misses)
	}
	if a.CitationJSON() != b.CitationJSON() {
		t.Fatal("cached variant diverged")
	}

	// Different output-affecting options key separate entries.
	if _, err := cached.Cite(ctx, Request{Datalog: gpcrJoinDatalog, MaxRewritings: 1}); err != nil {
		t.Fatal(err)
	}
	if misses := cached.CacheStats().Misses; misses != 2 {
		t.Fatalf("MaxRewritings variant shared an entry: misses = %d, want 2", misses)
	}

	// A cache hit under a different render format re-wraps, not re-renders.
	x, err := cached.Cite(ctx, Request{Datalog: gpcrJoinDatalog, Format: "xml"})
	if err != nil {
		t.Fatal(err)
	}
	if x.Format() != "xml" {
		t.Fatalf("hit lost the request format: %q", x.Format())
	}
	if hits := cached.CacheStats().Hits; hits != 2 {
		t.Fatalf("format variant missed the cache: hits = %d", hits)
	}
}
