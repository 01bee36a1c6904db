package core_test

import (
	"context"
	"strings"
	"sync"
	"testing"

	"citare/internal/citegraph"
	"citare/internal/core"
	"citare/internal/cq"
	"citare/internal/datalog"
	"citare/internal/format"
	"citare/internal/gtopdb"
	"citare/internal/provenance"
	"citare/internal/storage"
)

func mustQuery(t testing.TB, src string) *cq.Query {
	t.Helper()
	q, err := datalog.ParseQuery(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return q
}

func paperEngine(t testing.TB, policy core.Policy) *core.Engine {
	t.Helper()
	e, err := core.NewEngine(core.DBSource{DB: gtopdb.PaperInstance()}, gtopdb.MustPaperViews(), policy)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// plainPolicy: no pruning, no idempotence, no C_R tokens — the raw semiring.
func plainPolicy() core.Policy {
	return core.Policy{
		Times: core.InterpJoin,
		Plus:  core.InterpUnion,
		PlusR: core.InterpUnion,
		Agg:   core.InterpUnion,
	}
}

func TestTokenEncodeDecodeRoundTrip(t *testing.T) {
	cases := []core.Token{
		core.NewViewToken("V1", "11"),
		core.NewViewToken("V3"),
		core.NewViewToken("V5", "gp|cr", `qu"ote`),
		core.NewRelToken("Family"),
	}
	for _, tok := range cases {
		dec, err := core.DecodeToken(tok.Encode())
		if err != nil {
			t.Fatalf("%v: %v", tok, err)
		}
		if dec.Kind != tok.Kind || dec.Name != tok.Name || len(dec.Params) != len(tok.Params) {
			t.Fatalf("round trip changed token: %v -> %v", tok, dec)
		}
		for i := range tok.Params {
			if dec.Params[i] != tok.Params[i] {
				t.Fatalf("param %d: %q != %q", i, dec.Params[i], tok.Params[i])
			}
		}
	}
	if core.NewViewToken("V1", "11").String() != `V1("11")` {
		t.Fatalf("token string: %s", core.NewViewToken("V1", "11"))
	}
	if core.NewRelToken("Family").String() != "C_Family" {
		t.Fatalf("rel token string: %s", core.NewRelToken("Family"))
	}
}

func TestCitationViewValidation(t *testing.T) {
	def := mustQuery(t, `λF. V(F, N) :- Family(F, N, Ty)`)
	citeOK := mustQuery(t, `λF. C(F, N) :- Family(F, N, Ty)`)
	if _, err := core.NewCitationView(def, citeOK, nil); err != nil {
		t.Fatalf("valid view rejected: %v", err)
	}
	citeBad := mustQuery(t, `λTy. C(N, Ty) :- Family(F, N, Ty)`)
	if _, err := core.NewCitationView(def, citeBad, nil); err == nil {
		t.Fatal("λ-term mismatch accepted (Definition 2.1 requires shared parameters)")
	}
	if _, err := core.NewCitationView(def, nil, nil); err == nil {
		t.Fatal("nil citation query accepted")
	}
}

// TestCitationFunctionReadsOnlyBoundVariables: a fmt spec may name only body
// variables and λ-parameters of its citation query. A variable nothing binds
// used to be accepted, and every token of the view then rendered without the
// field (or with an empty list), silently, forever.
func TestCitationFunctionReadsOnlyBoundVariables(t *testing.T) {
	load := func(fmtSpec string) error {
		prog, err := datalog.ParseProgram(`
view λA. V(A, B) :- R(A, B).
cite V λA. C(A, B) :- R(A, B), S(B, D).
fmt  V ` + fmtSpec + `.`)
		if err != nil {
			t.Fatalf("parse %s: %v", fmtSpec, err)
		}
		_, err = core.FromProgram(prog)
		return err
	}
	for _, ok := range []string{
		`{ "A": A, "B": [B] }`, // λ-parameter, head variable
		`{ "D": D, "ByB": group(B) { "D": [D], "Src": "lit" } }`, // body-only variable, nested
	} {
		if err := load(ok); err != nil {
			t.Errorf("fmt %s rejected: %v", ok, err)
		}
	}
	for spec, unbound := range map[string]string{
		`{ "A": A, "Oops": [Zzz], "S": Nope }`:         "Nope", // Vars() is sorted: the first one is named
		`{ "A": A, "S": Nope }`:                        "Nope",
		`{ "A": A, "Oops": [Zzz] }`:                    "Zzz",
		`{ "ByB": group(B) { "Deep": [Zzz] } }`:        "Zzz",
		`{ "ByZ": group(Zzz) { "B": [B] } }`:           "Zzz",
		`{ "ByB": group(B) { "G": group(D) {"X": X}}}`: "X",
	} {
		err := load(spec)
		if err == nil {
			t.Errorf("fmt %s accepted: it reads %s, which nothing binds", spec, unbound)
			continue
		}
		if msg := err.Error(); !strings.HasPrefix(msg, "core: view V:") || !strings.Contains(msg, "variable "+unbound+",") {
			t.Errorf("fmt %s: error %q does not name view V and variable %s", spec, msg, unbound)
		}
	}
}

// TestPaperExample21 reproduces the four citations spelled out in Example
// 2.1 (V1, V2, V3 for family 11, and V4 for type gpcr), each rendered at an
// engine's epoch as a citation's render stage renders it.
func TestPaperExample21(t *testing.T) {
	e := paperEngine(t, core.DefaultPolicy())

	v1, err := e.RenderToken(core.NewViewToken("V1", "11"))
	if err != nil {
		t.Fatal(err)
	}
	want1 := `{"ID": "11", "Name": "Calcitonin", "Committee": ["Hay", "Poyner"]}`
	if got := v1.JSON(); got != want1 {
		t.Fatalf("FV1(CV1(11)):\n got %s\nwant %s", got, want1)
	}

	v2, err := e.RenderToken(core.NewViewToken("V2", "11"))
	if err != nil {
		t.Fatal(err)
	}
	want2 := `{"ID": "11", "Name": "Calcitonin", "Text": "The calcitonin peptide family", "Contributors": ["Brown", "Smith"]}`
	if got := v2.JSON(); got != want2 {
		t.Fatalf("FV2(CV2(11)):\n got %s\nwant %s", got, want2)
	}

	v3, err := e.RenderToken(core.NewViewToken("V3"))
	if err != nil {
		t.Fatal(err)
	}
	want3 := `{"URL": "guidetopharmacology.org", "Owner": "Tony Harmar"}`
	if got := v3.JSON(); got != want3 {
		t.Fatalf("FV3(CV3):\n got %s\nwant %s", got, want3)
	}

	v4, err := e.RenderToken(core.NewViewToken("V4", "gpcr"))
	if err != nil {
		t.Fatal(err)
	}
	got4 := v4.JSON()
	// The paper shows Calcitonin (Hay, Poyner) and Calcium-sensing (Bilke,
	// Conigrave, Shoback) inside the gpcr citation.
	for _, frag := range []string{
		`"Type": "gpcr"`,
		`{"Name": "Calcitonin", "Committee": ["Hay", "Poyner"]}`,
		`{"Name": "Calcium-sensing", "Committee": ["Bilke", "Conigrave", "Shoback"]}`,
	} {
		if !strings.Contains(got4, frag) {
			t.Fatalf("FV4(CV4(gpcr)) missing %s:\n%s", frag, got4)
		}
	}
}

// TestTokenRenderAllocsPerRow is the gate on what one row of a citation
// query costs its token's rendering. The hottest work's incoming-reference
// list is the record every ingest touches, so its VCites token is re-rendered
// after nearly every commit: thousands of rows, which go into one columnar
// slab and are sorted by index — no map, no key string per row. Measured
// with the plan compiled per render: 0.04 allocations per row (compilation,
// slab growth and the record's own lists, all told), 12.0 with a map and a
// sorted, joined key per row. At an epoch the plan is bound, not compiled.
func TestTokenRenderAllocsPerRow(t *testing.T) {
	e, err := core.NewEngine(core.DBSource{DB: citegraph.Generate(citegraph.ScaleMedium())}, citegraph.MustViews(), core.DefaultPolicy())
	if err != nil {
		t.Fatal(err)
	}
	tok := core.NewViewToken("VCites", citegraph.HotWork())
	rows := 0
	render := func() {
		obj, err := e.RenderToken(tok)
		if err != nil {
			t.Fatal(err)
		}
		citedBy, _ := obj.Get("CitedBy")
		rows = len(citedBy.List)
	}
	render()
	if rows < 1000 {
		t.Fatalf("VCites(%s) lists %d citing works, want a token worth measuring", citegraph.HotWork(), rows)
	}
	perRow := testing.AllocsPerRun(5, render) / float64(rows)
	t.Logf("RenderToken: %.3f allocs per row over %d rows", perRow, rows)
	if perRow > 0.5 {
		t.Fatalf("RenderToken: %.2f allocs per row over %d rows, ceiling 0.5 — rows are being built one by one again", perRow, rows)
	}
}

// TestPaperExample31 checks the single-binding citation of Definition 3.1:
// for Q1 = V1, V2 with F=11, the citation is FV1(CV1(11)) · FV2(CV2(11)).
func TestPaperExample31(t *testing.T) {
	e := paperEngine(t, plainPolicy())
	// Restrict to family 11 so there is exactly one binding.
	q := mustQuery(t, `Q(N) :- Family(F, N, Ty), F = "11", FamilyIntro(F, Tx)`)
	res, err := e.CiteQuery(context.Background(), q, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != 1 || res.Tuples[0].Tuple[0] != "Calcitonin" {
		t.Fatalf("result: %+v", res.Tuples)
	}
	tc := res.Tuples[0]
	var v1v2 *core.RewritingCitation
	for i := range tc.PerRewriting {
		if rewritingViewNames(res, &tc.PerRewriting[i]) == "V1+V2" {
			v1v2 = &tc.PerRewriting[i]
		}
	}
	if v1v2 == nil {
		t.Fatal("V1,V2 rewriting missing")
	}
	wantMono := provenance.NewMonomial(
		core.NewViewToken("V1", "11").Encode(),
		core.NewViewToken("V2", "11").Encode(),
	)
	if v1v2.Poly.Coefficient(wantMono) != 1 {
		t.Fatalf("Definition 3.1 citation missing: %s", core.PolyString(v1v2.Poly))
	}
	if v1v2.Poly.NumMonomials() != 1 {
		t.Fatalf("single binding must give a single monomial: %s", core.PolyString(v1v2.Poly))
	}
}

func rewritingViewNames(res *core.Result, rc *core.RewritingCitation) string {
	var names []string
	for _, va := range res.BoundRewritings()[rc.Rewriting].ViewAtoms {
		names = append(names, va.View.Name)
	}
	return strings.Join(names, "+")
}

// TestPaperExample32 checks Definition 3.2: a family name shared by two
// families yields two bindings combined with +.
func TestPaperExample32(t *testing.T) {
	db := gtopdb.PaperInstance()
	// A second family also named Calcitonin, with an introduction.
	db.MustInsert("Family", "12b", "Calcitonin", "gpcr")
	db.MustInsert("FamilyIntro", "12b", "Another calcitonin intro")
	e, err := core.NewEngine(core.DBSource{DB: db}, gtopdb.MustPaperViews(), plainPolicy())
	if err != nil {
		t.Fatal(err)
	}
	q := mustQuery(t, `Q(N) :- Family(F, N, Ty), FamilyIntro(F, Tx), N = "Calcitonin"`)
	res, err := e.CiteQuery(context.Background(), q, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != 1 {
		t.Fatalf("tuples: %+v", res.Tuples)
	}
	tc := res.Tuples[0]
	var v1v2 *core.RewritingCitation
	for i := range tc.PerRewriting {
		if rewritingViewNames(res, &tc.PerRewriting[i]) == "V1+V2" {
			v1v2 = &tc.PerRewriting[i]
		}
	}
	if v1v2 == nil {
		t.Fatal("V1,V2 rewriting missing")
	}
	m11 := provenance.NewMonomial(core.NewViewToken("V1", "11").Encode(), core.NewViewToken("V2", "11").Encode())
	m12 := provenance.NewMonomial(core.NewViewToken("V1", "12b").Encode(), core.NewViewToken("V2", "12b").Encode())
	if v1v2.Poly.Coefficient(m11) != 1 || v1v2.Poly.Coefficient(m12) != 1 {
		t.Fatalf("both bindings must appear via +: %s", core.PolyString(v1v2.Poly))
	}
}

// TestPaperExample33 checks Definition 3.3 (+R) and distributivity: for
// family 13 "b", the citation combines CV1("13")·CV2("13") and
// CV4("gpcr")·CV2("13") — i.e. (CV1(13) +R CV4(gpcr)) · CV2(13).
func TestPaperExample33(t *testing.T) {
	e := paperEngine(t, plainPolicy())
	q := mustQuery(t, `Q(N) :- Family(F, N, Ty), Ty = "gpcr", FamilyIntro(F, Tx)`)
	res, err := e.CiteQuery(context.Background(), q, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	var b *core.TupleCitation
	for i := range res.Tuples {
		if res.Tuples[i].Tuple[0] == "b" {
			b = &res.Tuples[i]
		}
	}
	if b == nil {
		t.Fatalf("tuple (b) missing: %+v", res.Tuples)
	}
	mQ1 := provenance.NewMonomial(core.NewViewToken("V1", "13").Encode(), core.NewViewToken("V2", "13").Encode())
	mQ2 := provenance.NewMonomial(core.NewViewToken("V4", "gpcr").Encode(), core.NewViewToken("V2", "13").Encode())
	if b.Combined.Coefficient(mQ1) == 0 {
		t.Fatalf("CV1(13)·CV2(13) missing from %s", core.PolyString(b.Combined))
	}
	if b.Combined.Coefficient(mQ2) == 0 {
		t.Fatalf("CV4(gpcr)·CV2(13) missing from %s", core.PolyString(b.Combined))
	}
}

// TestPlanIndependence verifies the paper's observation after Example 3.3:
// equivalent queries receive identical citations (insensitive to query
// plans).
func TestPlanIndependence(t *testing.T) {
	e := paperEngine(t, plainPolicy())
	q1 := mustQuery(t, `Q(N) :- Family(F, N, Ty), Ty = "gpcr", FamilyIntro(F, Tx)`)
	// Same query with a redundant atom, reordered body, renamed variables.
	q2 := mustQuery(t, `Q(Nm) :- FamilyIntro(Fam, Text), Family(Fam, Nm, "gpcr"), Family(Fam, Nm, T2)`)
	r1, err := e.CiteQuery(context.Background(), q1, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := e.CiteQuery(context.Background(), q2, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Tuples) != len(r2.Tuples) {
		t.Fatalf("tuple counts differ: %d vs %d", len(r1.Tuples), len(r2.Tuples))
	}
	for i := range r1.Tuples {
		a, b := r1.Tuples[i], r2.Tuples[i]
		if a.Tuple.Key() != b.Tuple.Key() {
			t.Fatalf("tuple order differs: %v vs %v", a.Tuple, b.Tuple)
		}
		if core.PolyString(a.Combined) != core.PolyString(b.Combined) {
			t.Fatalf("citations differ for %v:\n%s\n%s", a.Tuple,
				core.PolyString(a.Combined), core.PolyString(b.Combined))
		}
	}
	if r1.Citation.JSON() != r2.Citation.JSON() {
		t.Fatal("aggregated citations differ for equivalent queries")
	}
}

// TestPaperExample34 checks the idempotence argument: when every λ-parameter
// is instantiated by a constant, all bindings yield the same citation; with
// idempotent + and Agg the whole result set gets a single citation.
func TestPaperExample34(t *testing.T) {
	pol := plainPolicy()
	pol.IdempotentPlus = true
	e := paperEngine(t, pol)
	q := mustQuery(t, `Q(N) :- Family(F, N, Ty), Ty = "gpcr"`)
	res, err := e.CiteQuery(context.Background(), q, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != 4 {
		t.Fatalf("expected 4 gpcr families, got %d", len(res.Tuples))
	}
	wantTok := core.NewViewToken("V4", "gpcr")
	wantMono := provenance.NewMonomial(wantTok.Encode())
	for _, tc := range res.Tuples {
		// Among the rewritings, V4("gpcr") gives the same single-monomial
		// citation for every tuple.
		found := false
		for i := range tc.PerRewriting {
			p := tc.PerRewriting[i].Poly
			if p.NumMonomials() == 1 && p.Coefficient(wantMono) == 1 {
				found = true
			}
		}
		if !found {
			t.Fatalf("tuple %v lacks the single V4(gpcr) citation", tc.Tuple)
		}
	}
	// Under the §2.3 preference, the rewriting whose λ-parameters are all
	// constants (V4("gpcr")) wins; with idempotent + and union-Agg the
	// entire result set collapses to a single citation.
	pol2 := pol
	pol2.PreferredRewritings = true
	e2 := paperEngine(t, pol2)
	res2, err := e2.CiteQuery(context.Background(), q, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	agg := res2.Citation
	if agg.Kind != format.KObject {
		t.Fatalf("idempotent Agg should give one citation record, got %s", agg.JSON())
	}
	if !strings.Contains(agg.JSON(), `"Type": "gpcr"`) {
		t.Fatalf("aggregate should be the V4(gpcr) citation: %s", agg.JSON())
	}
	for _, tc := range res2.Tuples {
		if core.PolyString(tc.Combined) != `V4("gpcr")` {
			t.Fatalf("every tuple should carry exactly CV4(gpcr): %s", core.PolyString(tc.Combined))
		}
	}
}

// TestPaperExample35 checks the two interpretations of · on the exact
// records of Example 3.5: union keeps FV1's and FV2's records side by side,
// join factors out the common ID/Name.
func TestPaperExample35(t *testing.T) {
	// Restrict the view set to V1/V2 so the single rewriting is the
	// paper's FV1 · FV2 combination.
	prog := `
view λF. V1(F, N, Ty) :- Family(F, N, Ty).
cite V1 λF. CV1(F, N, Pn) :- Family(F, N, Ty), FC(F, C), Person(C, Pn, A).
fmt  V1 { "ID": F, "Name": N, "Committee": [Pn] }.
view λF. V2(F, Tx) :- FamilyIntro(F, Tx).
cite V2 λF. CV2(F, N, Tx, Pn) :- Family(F, N, Ty), FamilyIntro(F, Tx), FIC(F, C), Person(C, Pn, A).
fmt  V2 { "ID": F, "Name": N, "Text": Tx, "Contributors": [Pn] }.
`
	parsed, err := datalog.ParseProgram(prog)
	if err != nil {
		t.Fatal(err)
	}
	views, err := core.FromProgram(parsed)
	if err != nil {
		t.Fatal(err)
	}
	q := mustQuery(t, `Q(N) :- Family(F, N, Ty), F = "11", FamilyIntro(F, Tx)`)

	cite := func(times core.Interp) string {
		pol := plainPolicy()
		pol.Times = times
		e, err := core.NewEngine(core.DBSource{DB: gtopdb.PaperInstance()}, views, pol)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.CiteQuery(context.Background(), q, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Tuples) != 1 {
			t.Fatalf("want 1 tuple, got %d", len(res.Tuples))
		}
		return res.Tuples[0].Rendered.JSON()
	}

	wantUnion := `[{"ID": "11", "Name": "Calcitonin", "Committee": ["Hay", "Poyner"]}, ` +
		`{"ID": "11", "Name": "Calcitonin", "Text": "The calcitonin peptide family", "Contributors": ["Brown", "Smith"]}]`
	if got := cite(core.InterpUnion); got != wantUnion {
		t.Fatalf("union interpretation:\n got %s\nwant %s", got, wantUnion)
	}
	wantJoin := `{"ID": "11", "Name": "Calcitonin", "Committee": ["Hay", "Poyner"], ` +
		`"Text": "The calcitonin peptide family", "Contributors": ["Brown", "Smith"]}`
	if got := cite(core.InterpJoin); got != wantJoin {
		t.Fatalf("join interpretation:\n got %s\nwant %s", got, wantJoin)
	}
}

// TestPaperExample36 checks the fewest-views order: for Example 2.3's query,
// the single-view rewriting V5("gpcr") dominates under ByViewCount.
func TestPaperExample36(t *testing.T) {
	pol := plainPolicy()
	pol.Orders = core.Orders{core.ByViewCount{}}
	e := paperEngine(t, pol)
	q := mustQuery(t, `Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), Ty = "gpcr"`)
	res, err := e.CiteQuery(context.Background(), q, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) == 0 {
		t.Fatal("no tuples")
	}
	for _, tc := range res.Tuples {
		if len(tc.Kept) != 1 {
			t.Fatalf("ByViewCount must keep exactly the V5 rewriting, kept %d of %d", len(tc.Kept), len(tc.PerRewriting))
		}
		kept := tc.PerRewriting[tc.Kept[0]]
		if names := rewritingViewNames(res, &kept); names != "V5" {
			t.Fatalf("kept rewriting %s, want V5", names)
		}
		wantMono := provenance.NewMonomial(core.NewViewToken("V5", "gpcr").Encode())
		if tc.Combined.Coefficient(wantMono) == 0 || tc.Combined.NumMonomials() != 1 {
			t.Fatalf("combined citation should be CV5(gpcr): %s", core.PolyString(tc.Combined))
		}
	}
}

// TestPaperExample37 checks the fewest-uncovered order: total rewritings
// dominate partial ones carrying C_R markers. The view set is chosen so a
// partial rewriting survives Definition 2.2(4): V1 covers only the Family
// atom, VFull covers the whole query, and nothing covers FamilyIntro alone.
func TestPaperExample37(t *testing.T) {
	prog := `
view λF. V1(F, N, Ty) :- Family(F, N, Ty).
cite V1 λF. CV1(F, N, Pn) :- Family(F, N, Ty), FC(F, C), Person(C, Pn, A).
view λF. VFull(F, N, Ty, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx).
cite VFull λF. CVFull(F, N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx).
`
	parsed, err := datalog.ParseProgram(prog)
	if err != nil {
		t.Fatal(err)
	}
	views, err := core.FromProgram(parsed)
	if err != nil {
		t.Fatal(err)
	}
	pol := plainPolicy()
	pol.AllowPartial = true
	pol.IncludeBaseTokens = true
	pol.Orders = core.Orders{core.ByUncovered{}}
	e, err := core.NewEngine(core.DBSource{DB: gtopdb.PaperInstance()}, views, pol)
	if err != nil {
		t.Fatal(err)
	}
	q := mustQuery(t, `Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx)`)
	res, err := e.CiteQuery(context.Background(), q, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRewritings() < 2 {
		t.Fatalf("expected partial rewritings to be enumerated, got %d", res.NumRewritings())
	}
	for _, tc := range res.Tuples {
		for _, m := range tc.Combined.Monomials() {
			for _, pt := range m.Support() {
				tok, err := core.DecodeToken(pt)
				if err != nil {
					t.Fatal(err)
				}
				if tok.Kind == core.RelToken {
					t.Fatalf("C_R token survived ByUncovered pruning: %s", core.PolyString(tc.Combined))
				}
			}
		}
	}
}

// TestPaperExample38 checks the view-inclusion order: V4("gpcr") ⊆ V3, so
// citations via the more specific V4 dominate citations via V3.
func TestPaperExample38(t *testing.T) {
	views := gtopdb.MustPaperViews()
	pol := plainPolicy()
	pol.Orders = core.Orders{core.NewByViewInclusion(views)}
	e, err := core.NewEngine(core.DBSource{DB: gtopdb.PaperInstance()}, views, pol)
	if err != nil {
		t.Fatal(err)
	}
	q := mustQuery(t, `Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), Ty = "gpcr"`)
	res, err := e.CiteQuery(context.Background(), q, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range res.Tuples {
		v3 := core.NewViewToken("V3").Encode()
		for _, m := range tc.Combined.Monomials() {
			if m.Exp(v3) > 0 {
				t.Fatalf("CV3 should be dominated by CV4(gpcr) under inclusion: %s",
					core.PolyString(tc.Combined))
			}
		}
	}
}

// TestViewInclusionConcurrentCites: the inclusion order hangs off the engine's
// Policy, so every concurrent Cite asks the same ByViewInclusion — through
// MaximalPolys, PolyLessEq and NormalForm — and its remembered token
// comparisons are shared state. With a plain map there, this test is a data
// race under -race and Go's unrecoverable "concurrent map writes" without.
func TestViewInclusionConcurrentCites(t *testing.T) {
	views := gtopdb.MustPaperViews()
	newEngine := func() *core.Engine {
		pol := plainPolicy()
		pol.Orders = core.Orders{core.NewByViewInclusion(views)}
		e, err := core.NewEngine(core.DBSource{DB: gtopdb.PaperInstance()}, views, pol)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	q := mustQuery(t, `Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), Ty = "gpcr"`)
	want, err := newEngine().CiteQuery(context.Background(), q, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	e := newEngine() // its order has compared nothing yet: the first cites all write
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				res, err := e.CiteQuery(context.Background(), q, 0, nil)
				if err != nil {
					t.Error(err)
					return
				}
				if got, exp := res.Citation.JSON(), want.Citation.JSON(); got != exp {
					t.Errorf("concurrent cite diverged:\n got %s\nwant %s", got, exp)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestAggNeutralOnEmptyResult(t *testing.T) {
	pol := plainPolicy()
	pol.Neutral = []*format.Object{gtopdb.DatabaseCitation()}
	e := paperEngine(t, pol)
	q := mustQuery(t, `Q(N) :- Family(F, N, Ty), Ty = "no-such-type"`)
	res, err := e.CiteQuery(context.Background(), q, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != 0 {
		t.Fatalf("expected empty result, got %d tuples", len(res.Tuples))
	}
	if !strings.Contains(res.Citation.JSON(), "IUPHAR/BPS Guide to PHARMACOLOGY") {
		t.Fatalf("neutral citation must appear even for empty results: %s", res.Citation.JSON())
	}
	// Unsatisfiable queries also degrade to the neutral citation.
	q2 := mustQuery(t, `Q(N) :- Family(F, N, Ty), Ty = "a", Ty = "b"`)
	res2, err := e.CiteQuery(context.Background(), q2, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res2.Citation.JSON(), "IUPHAR") {
		t.Fatal("unsat query should still carry the neutral citation")
	}
}

func TestNoViewsFallsBackToBaseTokens(t *testing.T) {
	pol := core.DefaultPolicy()
	e, err := core.NewEngine(core.DBSource{DB: gtopdb.PaperInstance()}, nil, pol)
	if err != nil {
		t.Fatal(err)
	}
	q := mustQuery(t, `Q(N) :- Family(F, N, Ty)`)
	res, err := e.CiteQuery(context.Background(), q, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rws := res.BoundRewritings(); len(rws) != 1 || rws[0].NumViews() != 0 {
		t.Fatalf("expected the all-base rewriting, got %+v", rws)
	}
	if len(res.Tuples) == 0 {
		t.Fatal("tuples missing")
	}
	found := false
	for _, m := range res.Tuples[0].Combined.Monomials() {
		if m.Exp(core.NewRelToken("Family").Encode()) > 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("C_Family marker missing: %s", core.PolyString(res.Tuples[0].Combined))
	}
	if !strings.Contains(res.Tuples[0].Rendered.JSON(), "UncitedRelation") {
		t.Fatalf("rendered fallback: %s", res.Tuples[0].Rendered.JSON())
	}
}

func TestEngineRejectsDuplicateViews(t *testing.T) {
	views := gtopdb.MustPaperViews()
	dup := append(views, views[0])
	if _, err := core.NewEngine(core.DBSource{DB: gtopdb.PaperInstance()}, dup, plainPolicy()); err == nil {
		t.Fatal("duplicate view names accepted")
	}
}

func TestEngineDeterminism(t *testing.T) {
	q := mustQuery(t, `Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), Ty = "gpcr"`)
	render := func() string {
		e := paperEngine(t, core.DefaultPolicy())
		res, err := e.CiteQuery(context.Background(), q, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		sb.WriteString(res.Citation.JSON())
		for _, tc := range res.Tuples {
			sb.WriteString(core.PolyString(tc.Combined))
			sb.WriteString(tc.Rendered.JSON())
		}
		return sb.String()
	}
	a, b := render(), render()
	if a != b {
		t.Fatal("engine output is nondeterministic across runs")
	}
}

func TestEngineResetAfterUpdate(t *testing.T) {
	db := gtopdb.PaperInstance()
	e, err := core.NewEngine(core.DBSource{DB: db}, gtopdb.MustPaperViews(), plainPolicy())
	if err != nil {
		t.Fatal(err)
	}
	q := mustQuery(t, `Q(N) :- Family(F, N, Ty), Ty = "gpcr", FamilyIntro(F, Tx)`)
	res1, err := e.CiteQuery(context.Background(), q, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	db.MustInsert("Family", "99", "NewFam", "gpcr")
	db.MustInsert("FamilyIntro", "99", "intro99")
	if err := e.Reset(); err != nil {
		t.Fatal(err)
	}
	res2, err := e.CiteQuery(context.Background(), q, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Tuples) != len(res1.Tuples)+1 {
		t.Fatalf("Reset did not pick up the update: %d vs %d", len(res2.Tuples), len(res1.Tuples))
	}
}

func TestOrdersNormalFormAndPolyLessEq(t *testing.T) {
	orders := core.Orders{core.ByViewCount{}}
	one := provenance.NewMonomial(core.NewViewToken("V5", "gpcr").Encode())
	two := provenance.NewMonomial(core.NewViewToken("V1", "11").Encode(), core.NewViewToken("V2", "11").Encode())
	p := provenance.NewPoly()
	p.Add(one, 1)
	p.Add(two, 1)
	nf := orders.NormalForm(p)
	if nf.NumMonomials() != 1 || nf.Coefficient(one) != 1 {
		t.Fatalf("normal form should keep only the 1-view monomial: %s", core.PolyString(nf))
	}
	pOne := provenance.PolyFromMonomial(one)
	pTwo := provenance.PolyFromMonomial(two)
	if !orders.PolyLessEq(pTwo, pOne) {
		t.Fatal("2-view polynomial should be ≤ 1-view polynomial")
	}
	if orders.PolyLessEq(pOne, pTwo) {
		t.Fatal("1-view polynomial must not be ≤ 2-view polynomial")
	}
	// Empty Orders: no pruning, nothing related.
	var none core.Orders
	if none.PolyLessEq(pTwo, pOne) {
		t.Fatal("empty order must not relate polynomials")
	}
	if none.NormalForm(p).NumMonomials() != 2 {
		t.Fatal("empty order must not prune")
	}
}

func TestViewInclusionOrderOnTokens(t *testing.T) {
	views := gtopdb.MustPaperViews()
	incl := core.NewByViewInclusion(views)
	v3 := provenance.NewMonomial(core.NewViewToken("V3").Encode())
	v4g := provenance.NewMonomial(core.NewViewToken("V4", "gpcr").Encode())
	v1 := provenance.NewMonomial(core.NewViewToken("V1", "11").Encode())
	if !incl.LessEq(v3, v4g) {
		t.Fatal("V3 ≤ V4(gpcr): the instantiated V4 is included in V3")
	}
	if incl.LessEq(v4g, v3) {
		t.Fatal("V4(gpcr) must not be ≤ V3")
	}
	// V1("11") is also included in V3.
	if !incl.LessEq(v3, v1) {
		t.Fatal("V3 ≤ V1(11)")
	}
	// V1("11") and V4("gpcr") are incomparable.
	if incl.LessEq(v1, v4g) || incl.LessEq(v4g, v1) {
		t.Fatal("V1(11) and V4(gpcr) must be incomparable")
	}
}

func TestInterpParse(t *testing.T) {
	for _, s := range []string{"union", "join", "merge"} {
		if _, err := core.ParseInterp(s); err != nil {
			t.Fatalf("%s: %v", s, err)
		}
	}
	if _, err := core.ParseInterp("intersect"); err == nil {
		t.Fatal("unknown interpretation accepted")
	}
}

func TestSQLPathProducesSameCitation(t *testing.T) {
	// The SQL front end and the datalog front end must agree end to end.
	e := paperEngine(t, core.DefaultPolicy())
	qd := mustQuery(t, `Q(N) :- Family(F, N, Ty), Ty = "gpcr", FamilyIntro(F, Tx)`)
	resD, err := e.CiteQuery(context.Background(), qd, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	qs, err := sqlParse(e.Source().Schema(), `SELECT f.FName FROM Family f, FamilyIntro i WHERE f.FID = i.FID AND f.Type = 'gpcr'`)
	if err != nil {
		t.Fatal(err)
	}
	resS, err := e.CiteQuery(context.Background(), qs, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resD.Citation.JSON() != resS.Citation.JSON() {
		t.Fatalf("SQL and datalog citations differ:\n%s\n%s",
			resD.Citation.JSON(), resS.Citation.JSON())
	}
}

// sqlParse is an indirection so the import sits in one place.
func sqlParse(schema *storage.Schema, sql string) (*cq.Query, error) {
	return sqlfeParse(schema, sql)
}
