package cq

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func v(n string) Term { return Var(n) }
func c(s string) Term { return Const(s) }
func atom(p string, ts ...Term) Atom {
	return NewAtom(p, ts...)
}

func q(name string, head []Term, atoms []Atom, comps ...Comparison) *Query {
	return &Query{Name: name, Head: head, Atoms: atoms, Comps: comps}
}

func TestTermBasics(t *testing.T) {
	if !Var("X").IsVar() || Const("a").IsVar() {
		t.Fatal("IsVar misreports")
	}
	if Var("X").Equal(Const("X")) {
		t.Fatal("var and const with same text must differ")
	}
	if Var("X").Key() == Const("X").Key() {
		t.Fatal("keys must not collide between var and const")
	}
	if Const("gpcr").String() != `"gpcr"` {
		t.Fatalf("const string: %s", Const("gpcr").String())
	}
}

func TestComparisonKeyOrientation(t *testing.T) {
	a := Comparison{L: v("X"), Op: OpEq, R: c("1")}
	b := Comparison{L: c("1"), Op: OpEq, R: v("X")}
	if a.Key() != b.Key() {
		t.Fatal("X=1 and 1=X should share a key")
	}
	lt := Comparison{L: v("X"), Op: OpLt, R: v("Y")}
	gt := Comparison{L: v("Y"), Op: OpGt, R: v("X")}
	if lt.Key() != gt.Key() {
		t.Fatal("X<Y and Y>X should share a key")
	}
	// Rewritings sort by keys that embed these spellings.
	if a.Key() != "c:1\x00=\x00v:X" || gt.Key() != "v:X\x00<\x00v:Y" {
		t.Fatalf("keys %q and %q", a.Key(), gt.Key())
	}
	// The normal form the implication set is keyed by is Key's: two
	// comparisons share one exactly when they share a key.
	terms := []Term{v("X"), v("Y"), c("1"), c("a")}
	var all []Comparison
	for _, l := range terms {
		for op := OpEq; op <= OpGe; op++ {
			for _, r := range terms {
				all = append(all, Comparison{L: l, Op: op, R: r})
			}
		}
	}
	for _, x := range all {
		for _, y := range all {
			if (x.norm() == y.norm()) != (x.Key() == y.Key()) {
				t.Fatalf("%v and %v: norms equal %v, keys equal %v", x, y, x.norm() == y.norm(), x.Key() == y.Key())
			}
		}
	}
}

func TestCompareValuesNumericVsLex(t *testing.T) {
	if !CompareValues("9", OpLt, "10") {
		t.Fatal("numeric comparison expected for integer-looking values")
	}
	if CompareValues("a9", OpLt, "a10") {
		t.Fatal("lexicographic comparison expected for non-integers")
	}
	if !CompareValues("abc", OpEq, "abc") {
		t.Fatal("equal strings")
	}
}

func TestValidateSafety(t *testing.T) {
	bad := q("Q", []Term{v("X")}, []Atom{atom("R", v("Y"))})
	if err := bad.Validate(); err == nil {
		t.Fatal("unsafe head variable must be rejected")
	}
	badParam := &Query{Name: "V", Params: []string{"P"}, Head: []Term{v("X")}, Atoms: []Atom{atom("R", v("X"))}}
	if err := badParam.Validate(); err == nil {
		t.Fatal("λ-parameter outside head must be rejected (X ⊆ Y)")
	}
	good := &Query{Name: "V", Params: []string{"X"}, Head: []Term{v("X"), v("Y")}, Atoms: []Atom{atom("R", v("X"), v("Y"))}}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid query rejected: %v", err)
	}
}

func TestNormalizeConstantsChasesEqualities(t *testing.T) {
	// Q(N) :- Family(F,N,Ty), Ty = "gpcr", F = G, G = "11"
	orig := q("Q", []Term{v("N")},
		[]Atom{atom("Family", v("F"), v("N"), v("Ty"))},
		Comparison{L: v("Ty"), Op: OpEq, R: c("gpcr")},
		Comparison{L: v("F"), Op: OpEq, R: v("G")},
		Comparison{L: v("G"), Op: OpEq, R: c("11")},
	)
	norm, subst, sat := orig.NormalizeConstants()
	if !sat {
		t.Fatal("satisfiable query reported unsat")
	}
	if len(norm.Comps) != 0 {
		t.Fatalf("all equalities should be absorbed, got %v", norm.Comps)
	}
	a := norm.Atoms[0]
	if !a.Args[0].Equal(c("11")) || !a.Args[2].Equal(c("gpcr")) {
		t.Fatalf("constants not chased into atom: %v", a)
	}
	if img, ok := subst["Ty"]; !ok || !img.Equal(c("gpcr")) {
		t.Fatalf("substitution should record Ty ↦ gpcr, got %v", subst)
	}
	if img, ok := subst["F"]; !ok || !img.Equal(c("11")) {
		t.Fatalf("substitution should chase F ↦ G ↦ 11, got %v", subst["F"])
	}
}

func TestNormalizeConstantsUnsat(t *testing.T) {
	orig := q("Q", []Term{v("X")},
		[]Atom{atom("R", v("X"))},
		Comparison{L: v("X"), Op: OpEq, R: c("a")},
		Comparison{L: v("X"), Op: OpEq, R: c("b")},
	)
	if _, _, sat := orig.NormalizeConstants(); sat {
		t.Fatal("X=a, X=b must be unsatisfiable")
	}
	ground := q("Q", []Term{v("X")},
		[]Atom{atom("R", v("X"))},
		Comparison{L: c("2"), Op: OpLt, R: c("1")},
	)
	if _, _, sat := ground.NormalizeConstants(); sat {
		t.Fatal("2 < 1 must be unsatisfiable")
	}
}

func TestContainmentClassic(t *testing.T) {
	// Q1(X) :- R(X,Y), R(Y,Z)   (path of length 2)
	// Q2(X) :- R(X,Y)           (edge)
	q1 := q("Q1", []Term{v("X")}, []Atom{atom("R", v("X"), v("Y")), atom("R", v("Y"), v("Z"))})
	q2 := q("Q2", []Term{v("X")}, []Atom{atom("R", v("X"), v("Y"))})
	if !Contains(q1, q2) {
		t.Fatal("path-2 ⊆ edge expected")
	}
	if Contains(q2, q1) {
		t.Fatal("edge ⊄ path-2 expected")
	}
}

func TestContainmentWithSelfLoop(t *testing.T) {
	// Q1(X) :- R(X,X)  is contained in Q2(X) :- R(X,Y), R(Y,X)
	q1 := q("Q1", []Term{v("X")}, []Atom{atom("R", v("X"), v("X"))})
	q2 := q("Q2", []Term{v("X")}, []Atom{atom("R", v("X"), v("Y")), atom("R", v("Y"), v("X"))})
	if !Contains(q1, q2) {
		t.Fatal("self-loop ⊆ 2-cycle expected")
	}
	if Contains(q2, q1) {
		t.Fatal("2-cycle ⊄ self-loop expected")
	}
}

func TestContainmentConstants(t *testing.T) {
	// Q1(N) :- Family(F,N,"gpcr")  ⊆  Q2(N) :- Family(F,N,Ty)
	q1 := q("Q1", []Term{v("N")}, []Atom{atom("Family", v("F"), v("N"), c("gpcr"))})
	q2 := q("Q2", []Term{v("N")}, []Atom{atom("Family", v("F"), v("N"), v("Ty"))})
	if !Contains(q1, q2) {
		t.Fatal("selection ⊆ full scan expected")
	}
	if Contains(q2, q1) {
		t.Fatal("full scan ⊄ selection expected")
	}
	// Selection expressed as comparison predicate must behave identically.
	q1c := q("Q1", []Term{v("N")},
		[]Atom{atom("Family", v("F"), v("N"), v("Ty"))},
		Comparison{L: v("Ty"), Op: OpEq, R: c("gpcr")})
	if !Equivalent(q1, q1c) {
		t.Fatal("constant-in-atom and equality-predicate forms must be equivalent")
	}
}

func TestContainmentRespectsHead(t *testing.T) {
	q1 := q("Q1", []Term{v("X")}, []Atom{atom("R", v("X"), v("Y"))})
	q2 := q("Q2", []Term{v("Y")}, []Atom{atom("R", v("X"), v("Y"))})
	if Contains(q1, q2) && Contains(q2, q1) {
		t.Fatal("projections to different columns must not be equivalent")
	}
}

func TestContainmentInequalitySound(t *testing.T) {
	// Q1(X) :- R(X,Y), X < Y  ⊆  Q2(X) :- R(X,Y)
	q1 := q("Q1", []Term{v("X")}, []Atom{atom("R", v("X"), v("Y"))},
		Comparison{L: v("X"), Op: OpLt, R: v("Y")})
	q2 := q("Q2", []Term{v("X")}, []Atom{atom("R", v("X"), v("Y"))})
	if !Contains(q1, q2) {
		t.Fatal("adding a filter keeps containment in the filtered direction")
	}
	if Contains(q2, q1) {
		t.Fatal("unfiltered query must not be contained in filtered one")
	}
	// Same filter on both sides: equivalent.
	q3 := q1.Clone()
	q3.Name = "Q3"
	if !Equivalent(q1, q3) {
		t.Fatal("identical filtered queries must be equivalent")
	}
	// Strict filter implies non-strict.
	q4 := q("Q4", []Term{v("X")}, []Atom{atom("R", v("X"), v("Y"))},
		Comparison{L: v("X"), Op: OpLe, R: v("Y")})
	if !Contains(q1, q4) {
		t.Fatal("X<Y must imply X<=Y")
	}
}

func TestEquivalentUpToRenamingAndOrder(t *testing.T) {
	q1 := q("Q", []Term{v("A")}, []Atom{atom("R", v("A"), v("B")), atom("S", v("B"), v("CC"))})
	q2 := q("Q", []Term{v("X")}, []Atom{atom("S", v("Y"), v("Z")), atom("R", v("X"), v("Y"))})
	if !Equivalent(q1, q2) {
		t.Fatal("renamed/reordered queries must be equivalent")
	}
	if q1.CanonicalKey() != q2.CanonicalKey() {
		t.Fatalf("canonical keys should agree:\n%s\n%s", q1.CanonicalKey(), q2.CanonicalKey())
	}
}

func TestMinimizeRedundantAtom(t *testing.T) {
	// Q(X) :- R(X,Y), R(X,Z)  minimizes to  Q(X) :- R(X,Y)
	orig := q("Q", []Term{v("X")}, []Atom{atom("R", v("X"), v("Y")), atom("R", v("X"), v("Z"))})
	min := Minimize(orig)
	if len(min.Atoms) != 1 {
		t.Fatalf("expected 1 atom after minimization, got %d (%v)", len(min.Atoms), min)
	}
	if !Equivalent(orig, min) {
		t.Fatal("minimization must preserve equivalence")
	}
}

func TestMinimizeKeepsCore(t *testing.T) {
	// Q(X) :- R(X,Y), S(Y)  has no redundant atom.
	orig := q("Q", []Term{v("X")}, []Atom{atom("R", v("X"), v("Y")), atom("S", v("Y"))})
	min := Minimize(orig)
	if len(min.Atoms) != 2 {
		t.Fatalf("core atoms must be kept, got %v", min)
	}
}

func TestMinimizePreservesConstants(t *testing.T) {
	orig := q("Q", []Term{v("X")},
		[]Atom{atom("R", v("X"), c("k")), atom("R", v("X"), v("Y"))})
	min := Minimize(orig)
	if len(min.Atoms) != 1 {
		t.Fatalf("R(X,Y) is subsumed by R(X,k): got %v", min)
	}
	if !min.Atoms[0].Args[1].Equal(c("k")) {
		t.Fatalf("the constant atom must be the survivor, got %v", min)
	}
}

func TestApplyDropsInstantiatedParams(t *testing.T) {
	view := &Query{Name: "V4", Params: []string{"Ty"},
		Head:  []Term{v("F"), v("N"), v("Ty")},
		Atoms: []Atom{atom("Family", v("F"), v("N"), v("Ty"))}}
	inst := view.Apply(Subst{"Ty": c("gpcr")})
	if len(inst.Params) != 0 {
		t.Fatalf("instantiated parameter should leave the λ-term, got %v", inst.Params)
	}
	if !inst.Head[2].Equal(c("gpcr")) {
		t.Fatalf("head should carry the constant, got %v", inst.Head)
	}
}

func TestFreshenDisjointness(t *testing.T) {
	orig := q("Q", []Term{v("X")}, []Atom{atom("R", v("X"), v("Y"))})
	fresh, ren, next := orig.Freshen("u", 0)
	if next != 2 {
		t.Fatalf("two variables renamed, counter should advance to 2, got %d", next)
	}
	for _, vn := range fresh.Vars() {
		if !strings.HasPrefix(vn, "u") {
			t.Fatalf("non-fresh variable %s", vn)
		}
	}
	if !Equivalent(orig, fresh) {
		t.Fatal("freshening must preserve equivalence")
	}
	if len(ren) != 2 {
		t.Fatalf("renaming should cover both variables, got %v", ren)
	}
}

func TestCanonicalDatabase(t *testing.T) {
	orig := q("Q", []Term{v("X")}, []Atom{atom("R", v("X"), v("Y")), atom("S", v("Y"))})
	atoms, frozen := CanonicalDatabase(orig)
	if len(atoms) != 2 {
		t.Fatalf("want 2 ground atoms, got %d", len(atoms))
	}
	for _, a := range atoms {
		for _, arg := range a.Args {
			if !arg.IsConst {
				t.Fatalf("canonical database must be ground, got %v", a)
			}
		}
	}
	if frozen["X"].Value == frozen["Y"].Value {
		t.Fatal("distinct variables must freeze to distinct constants")
	}
}

func TestStringRendering(t *testing.T) {
	view := &Query{Name: "V1", Params: []string{"F"},
		Head:  []Term{v("F"), v("N"), v("Ty")},
		Atoms: []Atom{atom("Family", v("F"), v("N"), v("Ty"))}}
	got := view.String()
	want := `λF. V1(F, N, Ty) :- Family(F, N, Ty)`
	if got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
	withComp := q("Q", []Term{v("N")},
		[]Atom{atom("Family", v("F"), v("N"), v("Ty"))},
		Comparison{L: v("Ty"), Op: OpEq, R: c("gpcr")})
	if !strings.Contains(withComp.String(), `Ty = "gpcr"`) {
		t.Fatalf("comparison missing from %q", withComp.String())
	}
}

// randomQuery builds a small random CQ over binary predicates R, S, T with
// variables X0..X3 and occasional constants, for property testing.
func randomQuery(r *rand.Rand) *Query {
	preds := []string{"R", "S", "T"}
	vars := []string{"X0", "X1", "X2", "X3"}
	nAtoms := 1 + r.Intn(3)
	var atoms []Atom
	used := map[string]bool{}
	term := func() Term {
		if r.Intn(5) == 0 {
			return Const([]string{"a", "b"}[r.Intn(2)])
		}
		name := vars[r.Intn(len(vars))]
		used[name] = true
		return Var(name)
	}
	for i := 0; i < nAtoms; i++ {
		atoms = append(atoms, NewAtom(preds[r.Intn(len(preds))], term(), term()))
	}
	// Head: pick one variable that occurs in the body; fall back to const.
	var head Term = Const("a")
	for _, a := range atoms {
		for _, t := range a.Args {
			if t.IsVar() {
				head = t
			}
		}
	}
	return &Query{Name: "Q", Head: []Term{head}, Atoms: atoms}
}

func TestPropContainmentReflexive(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	f := func() bool {
		qq := randomQuery(r)
		return Contains(qq, qq)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropMinimizePreservesEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	f := func() bool {
		qq := randomQuery(r)
		min := Minimize(qq)
		return Equivalent(qq, min) && len(min.Atoms) <= len(qq.Atoms)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropAddingAtomShrinks(t *testing.T) {
	// Conjoining an extra atom can only restrict the query: Q' ⊆ Q.
	r := rand.New(rand.NewSource(3))
	f := func() bool {
		qq := randomQuery(r)
		extra := randomQuery(r)
		bigger := qq.Clone()
		bigger.Atoms = append(bigger.Atoms, extra.Atoms...)
		return Contains(bigger, qq)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropFreshenEquivalent(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	f := func() bool {
		qq := randomQuery(r)
		fresh, _, _ := qq.Freshen("f", 100)
		return Equivalent(qq, fresh) && qq.CanonicalKey() == fresh.CanonicalKey()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
