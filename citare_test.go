package citare

import (
	"encoding/json"
	"strings"
	"testing"

	"citare/internal/citegraph"
	"citare/internal/format"
	"citare/internal/gtopdb"
)

func newPaperCiter(t testing.TB, opts ...Option) *Citer {
	t.Helper()
	c, err := NewFromProgram(gtopdb.PaperInstance(), gtopdb.ViewsProgram, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestEndToEndSQL(t *testing.T) {
	c := newPaperCiter(t)
	res, err := c.CiteSQL(`SELECT f.FName FROM Family f, FamilyIntro i WHERE f.FID = i.FID AND f.Type = 'gpcr'`)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumTuples() != 3 {
		t.Fatalf("want 3 gpcr families with intros, got %d: %v", res.NumTuples(), res.Rows())
	}
	if len(res.Rewritings()) == 0 {
		t.Fatal("no rewritings reported")
	}
	var parsed any
	if err := json.Unmarshal([]byte(res.CitationJSON()), &parsed); err != nil {
		t.Fatalf("invalid citation JSON: %v", err)
	}
}

func TestEndToEndDatalog(t *testing.T) {
	c := newPaperCiter(t)
	res, err := c.CiteDatalog(`Q(N) :- Family(F, N, Ty), Ty = "gpcr", FamilyIntro(F, Tx)`)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumTuples() != 3 {
		t.Fatalf("tuples: %v", res.Rows())
	}
	// Tuple "b" carries the paper's Example 3.3 polynomial pieces.
	var bIdx = -1
	for i, row := range res.Rows() {
		if row[0] == "b" {
			bIdx = i
		}
	}
	if bIdx < 0 {
		t.Fatal("tuple b missing")
	}
	// Under the default policy, order pruning keeps the most compact
	// citation: the single-view V5("gpcr") rewriting.
	if poly := res.TuplePolynomial(bIdx); poly != `V5("gpcr")` {
		t.Fatalf("default policy should prune to V5(gpcr): %s", poly)
	}
	if res.TupleCitationJSON(bIdx) == "" {
		t.Fatal("tuple citation missing")
	}
	// Without pruning, the alternative rewritings survive (Example 3.3).
	plain := Policy{Times: Join, Plus: Union, PlusR: Union, Agg: Union}
	c2 := newPaperCiter(t, WithPolicy(plain))
	res2, err := c2.CiteDatalog(`Q(N) :- Family(F, N, Ty), Ty = "gpcr", FamilyIntro(F, Tx)`)
	if err != nil {
		t.Fatal(err)
	}
	if poly := res2.TuplePolynomial(bIdx); !strings.Contains(poly, `V2("13")`) {
		t.Fatalf("plain policy should keep V2(13) alternatives: %s", poly)
	}
	if res.TuplePolynomial(99) != "" || res.TupleCitationJSON(-1) != "" {
		t.Fatal("out-of-range accessors must return empty strings")
	}
}

func TestSQLAndDatalogAgree(t *testing.T) {
	c := newPaperCiter(t)
	a, err := c.CiteSQL(`SELECT f.FName FROM Family f, FamilyIntro i WHERE f.FID = i.FID AND f.Type = 'gpcr'`)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.CiteDatalog(`Q(N) :- Family(F, N, Ty), Ty = "gpcr", FamilyIntro(F, Tx)`)
	if err != nil {
		t.Fatal(err)
	}
	if a.CitationJSON() != b.CitationJSON() {
		t.Fatalf("front ends disagree:\n%s\n%s", a.CitationJSON(), b.CitationJSON())
	}
}

func TestNeutralCitationOption(t *testing.T) {
	c := newPaperCiter(t, WithNeutralCitation(gtopdb.DatabaseCitation()))
	res, err := c.CiteDatalog(`Q(N) :- Family(F, N, Ty), Ty = "nope"`)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumTuples() != 0 {
		t.Fatal("expected empty result")
	}
	if !strings.Contains(res.CitationJSON(), "IUPHAR") {
		t.Fatalf("neutral citation missing: %s", res.CitationJSON())
	}
}

func TestWithPolicyOption(t *testing.T) {
	pol := Policy{
		Times: Join, Plus: Union, PlusR: Union, Agg: Union,
		IdempotentPlus:      true,
		PreferredRewritings: true,
	}
	c := newPaperCiter(t, WithPolicy(pol))
	res, err := c.CiteDatalog(`Q(N) :- Family(F, N, Ty), Ty = "gpcr"`)
	if err != nil {
		t.Fatal(err)
	}
	// §2.3 preference keeps V4("gpcr"); idempotent union-Agg collapses to a
	// single record.
	if !strings.HasPrefix(res.CitationJSON(), "{") {
		t.Fatalf("expected one collapsed citation record: %s", res.CitationJSON())
	}
}

func TestRenderFormats(t *testing.T) {
	c := newPaperCiter(t)
	res, err := c.CiteDatalog(`Q(N) :- Family(F, N, Ty), F = "11"`)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"json", "json-compact", "xml", "bibtex", "text"} {
		out, err := res.Render(name)
		if err != nil {
			t.Fatalf("render %s: %v", name, err)
		}
		if out == "" {
			t.Fatalf("render %s: empty output", name)
		}
	}
	if _, err := res.Render("yaml"); err == nil {
		t.Fatal("unknown format accepted")
	}
}

func TestParseErrorsSurface(t *testing.T) {
	c := newPaperCiter(t)
	if _, err := c.CiteSQL(`SELECT nope FROM Nope`); err == nil {
		t.Fatal("bad SQL accepted")
	}
	if _, err := c.CiteDatalog(`Q(X) :- `); err == nil {
		t.Fatal("bad datalog accepted")
	}
	if _, err := NewFromProgram(gtopdb.PaperInstance(), `view broken(`); err == nil {
		t.Fatal("bad views program accepted")
	}
}

func TestResetPicksUpUpdates(t *testing.T) {
	db := gtopdb.PaperInstance()
	c, err := NewFromProgram(db, gtopdb.ViewsProgram)
	if err != nil {
		t.Fatal(err)
	}
	before, err := c.CiteDatalog(`Q(N) :- Family(F, N, Ty), Ty = "gpcr"`)
	if err != nil {
		t.Fatal(err)
	}
	db.MustInsert("Family", "77", "Added", "gpcr")
	if err := c.Reset(); err != nil {
		t.Fatal(err)
	}
	after, err := c.CiteDatalog(`Q(N) :- Family(F, N, Ty), Ty = "gpcr"`)
	if err != nil {
		t.Fatal(err)
	}
	if after.NumTuples() != before.NumTuples()+1 {
		t.Fatalf("reset missed the update: %d vs %d", after.NumTuples(), before.NumTuples())
	}
}

func TestCustomNeutralPlusFormat(t *testing.T) {
	neutral := format.NewObject().Set("Database", format.S("demo"))
	c := newPaperCiter(t, WithNeutralCitation(neutral))
	res, err := c.CiteDatalog(`Q(N) :- Family(F, N, Ty), F = "11"`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.CitationJSON(), `"Database": "demo"`) {
		t.Fatalf("neutral missing from aggregate: %s", res.CitationJSON())
	}
	if s := res.String(); !strings.Contains(s, "tuples") {
		t.Fatalf("String(): %s", s)
	}
}

// TestShippedViewProgramsLoad: a citation function may read only variables
// its citation query binds (core.NewCitationView); every view program this
// repository ships — the examples, citesrv and citegen all load
// gtopdb.ViewsProgram, the benchmark citegraph.ViewsProgram — must pass that
// check, and a program that does not must be turned away at construction,
// not render every token with a field missing.
func TestShippedViewProgramsLoad(t *testing.T) {
	if _, err := NewFromProgram(gtopdb.PaperInstance(), gtopdb.ViewsProgram); err != nil {
		t.Errorf("gtopdb.ViewsProgram: %v", err)
	}
	if _, err := gtopdb.PaperViews(); err != nil {
		t.Errorf("gtopdb.PaperViews: %v", err)
	}
	if _, err := NewFromProgram(citegraph.Generate(citegraph.ScaleSmall()), citegraph.ViewsProgram); err != nil {
		t.Errorf("citegraph.ViewsProgram: %v", err)
	}
	if _, err := citegraph.Views(); err != nil {
		t.Errorf("citegraph.Views: %v", err)
	}

	bad := `
view λF. V(F, N) :- Family(F, N, Ty).
cite V λF. C(F, N) :- Family(F, N, Ty).
fmt  V { "ID": F, "Oops": [Zzz], "S": Nope }.`
	_, err := NewFromProgram(gtopdb.PaperInstance(), bad)
	if err == nil {
		t.Fatal("a fmt spec reading unbound variables was accepted")
	}
	if msg := err.Error(); !strings.HasPrefix(msg, "core: view V:") || !strings.Contains(msg, "Nope") {
		t.Fatalf("error %q does not name the view and the variable", msg)
	}
}
