package rewrite

import (
	"strings"
	"testing"

	"citare/internal/cq"
	"citare/internal/datalog"
)

func mustQ(t testing.TB, src string) *cq.Query {
	t.Helper()
	q, err := datalog.ParseQuery(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return q
}

// paperViews returns the five view definitions of Example 2.1.
func paperViews(t testing.TB) []*cq.Query {
	return []*cq.Query{
		mustQ(t, `λF. V1(F, N, Ty) :- Family(F, N, Ty)`),
		mustQ(t, `λF. V2(F, Tx) :- FamilyIntro(F, Tx)`),
		mustQ(t, `V3(F, N, Ty) :- Family(F, N, Ty)`),
		mustQ(t, `λTy. V4(F, N, Ty) :- Family(F, N, Ty)`),
		mustQ(t, `λTy. V5(F, N, Ty, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx)`),
	}
}

// viewNames extracts the multiset of view names used by a rewriting.
func viewNames(r *Rewriting) string {
	var names []string
	for _, va := range r.ViewAtoms {
		names = append(names, va.View.Name)
	}
	return strings.Join(names, "+")
}

func findByViews(rs []*Rewriting, names string) *Rewriting {
	for _, r := range rs {
		if viewNames(r) == names {
			return r
		}
	}
	return nil
}

func TestPaperExample22(t *testing.T) {
	// Q(N) :- Family(F,N,Ty), Ty = "gpcr", FamilyIntro(F,Tx)
	q := mustQ(t, `Q(N) :- Family(F, N, Ty), Ty = "gpcr", FamilyIntro(F, Tx)`)
	rs, err := Enumerate(q, paperViews(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The paper's Q1 (V1 and V2, with the comparison remaining) and Q2 (V4
	// with λ-absorbed parameter, and V2) must both be found.
	q1 := findByViews(rs, "V1+V2")
	if q1 == nil {
		t.Fatalf("paper rewriting Q1 (V1,V2) not found among %v", rewritingStrings(rs))
	}
	if q1.ResidualPredicates() != 1 {
		t.Fatalf("Q1 must keep one remaining comparison predicate, got %d (%s)", q1.ResidualPredicates(), q1)
	}
	q2 := findByViews(rs, "V4+V2")
	if q2 == nil {
		t.Fatalf("paper rewriting Q2 (V4,V2) not found among %v", rewritingStrings(rs))
	}
	if q2.ResidualPredicates() != 0 {
		t.Fatalf("Q2 absorbs the comparison into the λ-term, got %d residuals (%s)", q2.ResidualPredicates(), q2)
	}
	vals, ok := q2.ViewAtoms[0].ParamValues()
	if !ok || len(vals) != 1 || vals[0] != "gpcr" {
		t.Fatalf("V4 parameter must be instantiated to gpcr: %v %v", vals, ok)
	}
	// V1's λF stays open in Q1.
	if _, ok := q1.ViewAtoms[0].ParamValues(); ok {
		t.Fatal("V1's λF must remain open (its parameter is a variable)")
	}
	for _, r := range rs {
		if !r.IsTotal() {
			t.Fatalf("partial rewriting returned without AllowPartial: %s", r)
		}
	}
}

func TestPaperExample23(t *testing.T) {
	// Q(N,Tx) :- Family(F,N,Ty), FamilyIntro(F,Tx), Ty = "gpcr"
	q := mustQ(t, `Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), Ty = "gpcr"`)
	rs, err := Enumerate(q, paperViews(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"V1+V2", "V3+V2", "V4+V2", "V5"} {
		if findByViews(rs, want) == nil {
			t.Fatalf("paper rewriting %s not found among %v", want, rewritingStrings(rs))
		}
	}
	// Q4 uses a single view with the parameter absorbed: the paper's most
	// preferred rewriting.
	q4 := findByViews(rs, "V5")
	if q4.NumViews() != 1 || q4.ResidualPredicates() != 0 || !q4.IsTotal() {
		t.Fatalf("Q4 shape wrong: %s", q4)
	}
	vals, ok := q4.ViewAtoms[0].ParamValues()
	if !ok || vals[0] != "gpcr" {
		t.Fatalf("V5 λTy must be gpcr: %v", vals)
	}
	// Q3 (V4+V2) uses two views; the paper prefers Q4 over it.
	q3 := findByViews(rs, "V4+V2")
	if q3.NumViews() != 2 {
		t.Fatalf("Q3 must use two views: %s", q3)
	}
}

func rewritingStrings(rs []*Rewriting) []string {
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = r.String()
	}
	return out
}

func TestAllRewritingsCertified(t *testing.T) {
	q := mustQ(t, `Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), Ty = "gpcr"`)
	rs, err := Enumerate(q, paperViews(t), Options{AllowPartial: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) == 0 {
		t.Fatal("no rewritings found")
	}
	norm, _, _ := q.NormalizeConstants()
	min := cq.Minimize(norm)
	for _, r := range rs {
		exp, err := r.Expand()
		if err != nil {
			t.Fatalf("%s: expand: %v", r, err)
		}
		if !cq.Equivalent(exp, min) {
			t.Fatalf("rewriting not equivalent to query: %s\nexpansion: %s", r, exp)
		}
	}
}

func TestPartialRewriting(t *testing.T) {
	// Only V1/V2 available; FC and Person must remain base relations.
	views := []*cq.Query{
		mustQ(t, `λF. V1(F, N, Ty) :- Family(F, N, Ty)`),
		mustQ(t, `λF. V2(F, Tx) :- FamilyIntro(F, Tx)`),
	}
	q := mustQ(t, `Q(N, Pn) :- Family(F, N, Ty), FC(F, C), Person(C, Pn, A)`)
	rs, err := Enumerate(q, views, Options{AllowPartial: true})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range rs {
		if viewNames(r) == "V1" && r.NumBase() == 2 {
			found = true
		}
		if r.IsTotal() {
			t.Fatalf("no total rewriting should exist, got %s", r)
		}
	}
	if !found {
		t.Fatalf("expected partial rewriting V1 + FC + Person, got %v", rewritingStrings(rs))
	}
	// Without AllowPartial there is nothing.
	rs2, err := Enumerate(q, views, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs2) != 0 {
		t.Fatalf("total-only enumeration should be empty, got %v", rewritingStrings(rs2))
	}
}

func TestCondition4FiltersAllBase(t *testing.T) {
	views := []*cq.Query{mustQ(t, `λF. V1(F, N, Ty) :- Family(F, N, Ty)`)}
	q := mustQ(t, `Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx)`)
	rs, err := Enumerate(q, views, Options{AllowPartial: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rs {
		if r.NumViews() == 0 {
			t.Fatalf("all-base rewriting violates Definition 2.2(4): %s", r)
		}
	}
	if len(rs) != 1 || viewNames(rs[0]) != "V1" {
		t.Fatalf("want exactly V1+base, got %v", rewritingStrings(rs))
	}
}

func TestExposureRejectsLostJoinVariable(t *testing.T) {
	// VP projects away the join variable F: it cannot participate in a
	// rewriting that must join on F.
	views := []*cq.Query{
		mustQ(t, `VP(N) :- Family(F, N, Ty)`),
		mustQ(t, `λF. V2(F, Tx) :- FamilyIntro(F, Tx)`),
	}
	q := mustQ(t, `Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx)`)
	rs, err := Enumerate(q, views, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 0 {
		t.Fatalf("projection view must not yield a rewriting, got %v", rewritingStrings(rs))
	}
}

func TestCondition3RejectsRedundantView(t *testing.T) {
	// Query with a redundant atom pattern: after minimization, only one
	// Family atom survives, so no two-view rewriting should appear.
	views := []*cq.Query{
		mustQ(t, `V3(F, N, Ty) :- Family(F, N, Ty)`),
	}
	q := mustQ(t, `Q(N) :- Family(F, N, Ty), Family(F2, N, Ty2)`)
	rs, err := Enumerate(q, views, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rs {
		if r.NumViews() != 1 {
			t.Fatalf("redundant view subgoal survived: %s", r)
		}
	}
	if len(rs) != 1 {
		t.Fatalf("want exactly one rewriting, got %v", rewritingStrings(rs))
	}
}

func TestUnsatisfiableQueryNoRewritings(t *testing.T) {
	q := mustQ(t, `Q(N) :- Family(F, N, Ty), Ty = "a", Ty = "b"`)
	rs, err := Enumerate(q, paperViews(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 0 {
		t.Fatalf("unsatisfiable query must have no rewritings, got %v", rewritingStrings(rs))
	}
}

func TestViewWithComparisonRequiresImplication(t *testing.T) {
	// VG selects gpcr families; it can cover the gpcr query but not the
	// unrestricted one.
	views := []*cq.Query{
		mustQ(t, `VG(F, N) :- Family(F, N, Ty), Ty = "gpcr"`),
	}
	qYes := mustQ(t, `Q(N) :- Family(F, N, Ty), Ty = "gpcr"`)
	rs, err := Enumerate(qYes, views, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 || viewNames(rs[0]) != "VG" {
		t.Fatalf("VG should rewrite the gpcr query, got %v", rewritingStrings(rs))
	}
	qNo := mustQ(t, `Q(N) :- Family(F, N, Ty)`)
	rs2, err := Enumerate(qNo, views, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs2) != 0 {
		t.Fatalf("VG must not rewrite the unrestricted query, got %v", rewritingStrings(rs2))
	}
}

func TestSelfJoinViews(t *testing.T) {
	// A view joining a relation with itself; the query needs the same shape.
	views := []*cq.Query{
		mustQ(t, `VSib(A, B) :- Parent(P, A), Parent(P, B)`),
	}
	q := mustQ(t, `Q(X, Y) :- Parent(P, X), Parent(P, Y)`)
	rs, err := Enumerate(q, views, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if findByViews(rs, "VSib") == nil {
		t.Fatalf("self-join view rewriting missing: %v", rewritingStrings(rs))
	}
}

func TestMaxRewritingsBound(t *testing.T) {
	q := mustQ(t, `Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), Ty = "gpcr"`)
	rs, err := Enumerate(q, paperViews(t), Options{MaxRewritings: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 {
		t.Fatalf("bound ignored: %d", len(rs))
	}
}

func TestRewritingStringRendering(t *testing.T) {
	q := mustQ(t, `Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), Ty = "gpcr"`)
	rs, err := Enumerate(q, paperViews(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	q4 := findByViews(rs, "V5")
	if q4 == nil {
		t.Fatal("V5 rewriting missing")
	}
	s := q4.String()
	if !strings.Contains(s, `V5(`) || !strings.Contains(s, `("gpcr")`) {
		t.Fatalf("rendering should show λ-instantiation: %s", s)
	}
}

func TestEnumerateDeterministic(t *testing.T) {
	q := mustQ(t, `Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), Ty = "gpcr"`)
	a, err := Enumerate(q, paperViews(t), Options{AllowPartial: true})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Enumerate(q, paperViews(t), Options{AllowPartial: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("nondeterministic count %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Key() != b[i].Key() {
			t.Fatalf("nondeterministic order at %d", i)
		}
	}
}

// TestEnumerateOrderIgnoresVariableNames: queries equal up to renaming their
// variables share a citation (the citation cache serves one for the other),
// so they must order their rewritings alike — the order decides which of two
// tied rewritings a preference order keeps. Named as written, V1(W) sorts
// before V1(Z) in the first query and after its image V1(Y) in the second.
func TestEnumerateOrderIgnoresVariableNames(t *testing.T) {
	views := []*cq.Query{mustQ(t, `V1(A) :- S(A)`), mustQ(t, `V2(A) :- S(A)`)}
	a, err := Enumerate(mustQ(t, `Q(Z, W) :- S(W), S(Z)`), views, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Enumerate(mustQ(t, `Q(W, Y) :- S(Y), S(W)`), views, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 4 || len(a) != len(b) {
		t.Fatalf("%d and %d rewritings, want 4 each", len(a), len(b))
	}
	ren := cq.Subst{"Z": cq.Var("W"), "W": cq.Var("Y")}
	for i := range a {
		if got, want := a[i].renamed(ren, cq.Rebind{}).Key(), b[i].Key(); got != want {
			t.Fatalf("rewriting %d: %s renamed is %s, the renamed query's is %s", i, a[i], got, want)
		}
	}
}

// TestExpandNormalizesNoView: PrepareViews normalizes each view definition
// once, and an enumerated rewriting's view atoms carry that form, so neither
// the certification of every candidate rewriting nor a later Expand
// normalizes a view again — each only freshens the definition per atom. The
// expansions are the ones a view normalized on the spot gives.
func TestExpandNormalizesNoView(t *testing.T) {
	normalizations := 0
	defer func(f func(*cq.Query) (*cq.Query, cq.Subst, bool)) { normalizeView = f }(normalizeView)
	normalizeView = func(q *cq.Query) (*cq.Query, cq.Subst, bool) {
		normalizations++
		return q.NormalizeConstants()
	}
	views := paperViews(t)
	vs, err := PrepareViews(views)
	if err != nil {
		t.Fatal(err)
	}
	if normalizations != len(views) {
		t.Fatalf("PrepareViews normalized %d times, want once per view (%d)", normalizations, len(views))
	}
	q, _ := mustQ(t, `Q(N, Pn) :- Family(F, N, Ty), FC(F, P), Person(P, Pn, A), Ty = "gpcr"`).Normalize()
	normalizations = 0
	rs := vs.Enumerate(cq.Minimize(q), Options{AllowPartial: true})
	if len(rs) < 2 {
		t.Fatalf("%d rewritings, want several", len(rs))
	}
	for _, r := range rs {
		exp, err := r.Expand()
		if err != nil {
			t.Fatal(err)
		}
		if normalizations != 0 {
			t.Fatalf("enumerating and expanding %d rewritings normalized a view %d times, want 0", len(rs), normalizations)
		}
		// The same atoms without the prepared form: normalized on the spot.
		bare := *r
		bare.ViewAtoms = nil
		for _, va := range r.ViewAtoms {
			bare.ViewAtoms = append(bare.ViewAtoms, ViewAtom{View: va.View, Args: va.Args})
		}
		want, err := bare.Expand()
		if err != nil {
			t.Fatal(err)
		}
		if exp.String() != want.String() {
			t.Fatalf("%s: expanded to %s, want %s", r, exp, want)
		}
		normalizations = 0
	}
}
