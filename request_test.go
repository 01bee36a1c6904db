package citare

// Tests for the context-first request API: the typed error taxonomy,
// per-request options, the explicit-error tuple accessors, and parity of
// the deprecated wrappers with the new surface.

import (
	"context"
	"errors"
	"reflect"
	"strings"
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

// TestPolicyMaxRewritings: the policy's bound is the engine's one rewriting
// bound — the paper query admits several rewritings without it and one under
// a bound of one.
func TestPolicyMaxRewritings(t *testing.T) {
	// Without the §2.3 preference pruning the paper query keeps all its
	// rewritings, so the bound has something to cut.
	pol := Policy{Times: Join, Plus: Union, PlusR: Union, Agg: Union, AllowPartial: true, IdempotentPlus: true}
	for _, max := range []int{0, 1} {
		pol.MaxRewritings = max
		res, err := newPaperCiter(t, WithPolicy(pol)).Cite(context.Background(), Request{Datalog: gpcrJoinDatalog})
		if err != nil {
			t.Fatal(err)
		}
		if n := len(res.Rewritings()); (max == 0 && n <= 1) || (max == 1 && n != 1) {
			t.Fatalf("policy MaxRewritings %d: %d rewritings", max, n)
		}
	}
}

// paperExampleQueries are the queries of the paper's Examples 2.2–3.8 on its
// GtoPdb instance.
var paperExampleQueries = []string{
	`Q(N) :- Family(F, N, Ty), F = "11", FamilyIntro(F, Tx)`,
	`Q(N) :- Family(F, N, Ty), FamilyIntro(F, Tx), N = "Calcitonin"`,
	gpcrJoinDatalog,
	`Q(N) :- Family(F, N, Ty), Ty = "gpcr"`,
	`Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), Ty = "gpcr"`,
	`Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx)`,
	`Q(F, N) :- Family(F, N, Ty)`,
	`Q(N, Pn) :- Family(F, N, Ty), FC(F, P), Person(P, Pn, A)`,
}

// TestRequestOptionsLeaveCitationAlone: a citation is determined by the
// query, the views and the policy, so no request option changes it. Each
// option of Request is set, alone and then all together, to a value under
// which the request still succeeds, and the rewritings, tuple polynomials
// and citation must be the plain request's, through a Citer and a
// CachedCiter. An option the test does not know fails it: a new one must be
// classified here.
func TestRequestOptionsLeaveCitationAlone(t *testing.T) {
	ctx := context.Background()
	fingerprint := func(ct *Citation) string {
		parts := append(ct.Rewritings(), ct.CitationJSON())
		for i := range ct.NumTuples() {
			p, err := ct.TuplePolynomialAt(i)
			if err != nil {
				t.Fatal(err)
			}
			parts = append(parts, p)
		}
		return strings.Join(parts, "\n")
	}
	for _, q := range paperExampleQueries {
		for via, cite := range map[string]func(context.Context, Request) (*Citation, error){
			"Citer":       newPaperCiter(t).Cite,
			"CachedCiter": NewCached(newPaperCiter(t)).Cite,
		} {
			plain, err := cite(ctx, Request{Datalog: q})
			if err != nil {
				t.Fatal(err)
			}
			want := fingerprint(plain)
			all := Request{Datalog: q}
			fields := reflect.TypeOf(all)
			for i := range fields.NumField() {
				name := fields.Field(i).Name
				if name == "SQL" || name == "Datalog" {
					continue
				}
				one := Request{Datalog: q}
				for _, req := range []*Request{&one, &all} {
					switch f := reflect.ValueOf(req).Elem().Field(i); name {
					case "Format":
						f.SetString("xml")
					case "Explain":
						f.SetBool(true)
					case "MaxTuples":
						f.SetInt(int64(max(plain.NumTuples(), 1)))
					default:
						t.Fatalf("Request.%s is not classified: give it a value under which a request succeeds", name)
					}
				}
				for _, req := range []Request{one, all} {
					got, err := cite(ctx, req)
					if err != nil {
						t.Fatalf("%s, %s with %s: %v", via, q, name, err)
					}
					if fp := fingerprint(got); fp != want {
						t.Fatalf("%s, %s: %+v changed the citation:\n%s\nwant\n%s", via, q, req, fp, want)
					}
				}
			}
		}
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

	// An option that changes the error behavior keys a separate entry.
	if _, err := cached.Cite(ctx, Request{Datalog: gpcrJoinDatalog, MaxTuples: 100}); err != nil {
		t.Fatal(err)
	}
	if misses := cached.CacheStats().Misses; misses != 2 {
		t.Fatalf("MaxTuples variant shared an entry: misses = %d, want 2", misses)
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
