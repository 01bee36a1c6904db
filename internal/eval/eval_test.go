package eval

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"citare/internal/cq"
	"citare/internal/storage"
)

func v(n string) cq.Term { return cq.Var(n) }
func c(s string) cq.Term { return cq.Const(s) }

// evalOn compiles q over dbv and evaluates it with set semantics.
func evalOn(dbv DBView, q *cq.Query, opts Options) (*Result, error) {
	p, err := Compile(dbv, q)
	if err != nil {
		return nil, err
	}
	return p.EvalCtx(context.Background(), opts)
}

// frameKey spells a frame aligned with vars by variable name, so frame
// multisets compare across plans whose slot orders differ.
func frameKey(vars, frame []string) string {
	parts := make([]string, len(vars))
	for i, v := range vars {
		parts[i] = fmt.Sprintf("%s=%q", v, frame[i])
	}
	sort.Strings(parts) // '=' sorts below every identifier byte: by name
	return strings.Join(parts, ";")
}

// planMultiset counts each distinct frame p's enumeration delivers.
func planMultiset(t testing.TB, p *Plan, opts Options) map[string]int {
	t.Helper()
	vars := p.Vars()
	out := make(map[string]int)
	if err := p.Each(context.Background(), opts, func(frame []string) error {
		out[frameKey(vars, frame)]++
		return nil
	}); err != nil {
		t.Fatalf("Each(%+v): %v", opts, err)
	}
	return out
}

// bindingMultiset is planMultiset of q compiled over view.
func bindingMultiset(t testing.TB, view DBView, q *cq.Query, opts Options) map[string]int {
	t.Helper()
	p, err := Compile(view, q)
	if err != nil {
		t.Fatal(err)
	}
	return planMultiset(t, p, opts)
}

// dbFromFacts builds a database holding the given ground atoms, inferring a
// schema (string columns c0..ck per predicate), for evaluating queries over
// canonical and random fact databases.
func dbFromFacts(facts []cq.Atom) (*storage.DB, error) {
	s := storage.NewSchema()
	arity := make(map[string]int)
	for _, f := range facts {
		if prev, ok := arity[f.Pred]; ok {
			if prev != len(f.Args) {
				return nil, fmt.Errorf("eval: predicate %s used with arities %d and %d", f.Pred, prev, len(f.Args))
			}
			continue
		}
		arity[f.Pred] = len(f.Args)
		cols := make([]storage.Column, len(f.Args))
		for i := range cols {
			cols[i] = storage.Column{Name: fmt.Sprintf("c%d", i)}
		}
		if err := s.AddRelation(&storage.RelSchema{Name: f.Pred, Cols: cols}); err != nil {
			return nil, err
		}
	}
	db := storage.NewDB(s)
	for _, f := range facts {
		vals := make([]string, len(f.Args))
		for i, t := range f.Args {
			if !t.IsConst {
				return nil, fmt.Errorf("eval: fact %v is not ground", f)
			}
			vals[i] = t.Value
		}
		if err := db.Insert(f.Pred, vals...); err != nil {
			return nil, err
		}
	}
	return db, nil
}

func familyDB(t testing.TB) *storage.DB {
	s := storage.NewSchema()
	s.MustAddRelation(&storage.RelSchema{Name: "Family",
		Cols: []storage.Column{{Name: "FID"}, {Name: "FName"}, {Name: "Type"}}, Key: []string{"FID"}})
	s.MustAddRelation(&storage.RelSchema{Name: "FamilyIntro",
		Cols: []storage.Column{{Name: "FID"}, {Name: "Text"}}, Key: []string{"FID"}})
	s.MustAddRelation(&storage.RelSchema{Name: "FC",
		Cols: []storage.Column{{Name: "FID"}, {Name: "PID"}}})
	db := storage.NewDB(s)
	db.MustInsert("Family", "11", "Calcitonin", "gpcr")
	db.MustInsert("Family", "12", "Calcium-sensing", "gpcr")
	db.MustInsert("Family", "20", "P2X", "lgic")
	db.MustInsert("FamilyIntro", "11", "The calcitonin peptide family")
	db.MustInsert("FamilyIntro", "20", "P2X intro")
	db.MustInsert("FC", "11", "p1")
	db.MustInsert("FC", "11", "p2")
	db.MustInsert("FC", "12", "p3")
	return db
}

func TestEvalSelection(t *testing.T) {
	db := familyDB(t)
	q := &cq.Query{Name: "Q", Head: []cq.Term{v("N")},
		Atoms: []cq.Atom{cq.NewAtom("Family", v("F"), v("N"), c("gpcr"))}}
	res, err := EvalOpts(db, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != 2 {
		t.Fatalf("want 2 gpcr families, got %v", res.Tuples)
	}
}

func TestEvalJoinWithComparison(t *testing.T) {
	db := familyDB(t)
	// Q(N) :- Family(F,N,Ty), Ty="gpcr", FamilyIntro(F,Tx)   (paper Example 2.2)
	q := &cq.Query{Name: "Q", Head: []cq.Term{v("N")},
		Atoms: []cq.Atom{
			cq.NewAtom("Family", v("F"), v("N"), v("Ty")),
			cq.NewAtom("FamilyIntro", v("F"), v("Tx")),
		},
		Comps: []cq.Comparison{{L: v("Ty"), Op: cq.OpEq, R: c("gpcr")}}}
	res, err := EvalOpts(db, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != 1 || res.Tuples[0][0] != "Calcitonin" {
		t.Fatalf("want [Calcitonin], got %v", res.Tuples)
	}
}

func TestEvalSetSemantics(t *testing.T) {
	db := familyDB(t)
	// Projection collapses duplicates: committee members per family ignored.
	q := &cq.Query{Name: "Q", Head: []cq.Term{v("F")},
		Atoms: []cq.Atom{cq.NewAtom("FC", v("F"), v("P"))}}
	res, err := EvalOpts(db, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != 2 {
		t.Fatalf("set semantics: want 2 distinct FIDs, got %v", res.Tuples)
	}
}

func TestEachBindingEnumeratesAll(t *testing.T) {
	db := familyDB(t)
	q := &cq.Query{Name: "Q", Head: []cq.Term{v("F")},
		Atoms: []cq.Atom{cq.NewAtom("FC", v("F"), v("P"))}}
	p, err := Compile(DBViewOf(db), q)
	if err != nil {
		t.Fatal(err)
	}
	if vars := p.Vars(); !slices.Equal(vars, []string{"F", "P"}) {
		t.Fatalf("Vars() = %v, want [F P]", vars)
	}
	count := 0
	err = p.Each(context.Background(), Options{}, func(frame []string) error {
		count++
		if frame[0] == "" || frame[1] == "" {
			t.Fatalf("incomplete binding %v", frame)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 3 {
		t.Fatalf("want 3 bindings (bag semantics), got %d", count)
	}
}

func TestEvalRepeatedVariable(t *testing.T) {
	facts := []cq.Atom{
		cq.NewAtom("R", c("a"), c("a")),
		cq.NewAtom("R", c("a"), c("b")),
	}
	db, err := dbFromFacts(facts)
	if err != nil {
		t.Fatal(err)
	}
	q := &cq.Query{Name: "Q", Head: []cq.Term{v("X")},
		Atoms: []cq.Atom{cq.NewAtom("R", v("X"), v("X"))}}
	res, err := EvalOpts(db, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != 1 || res.Tuples[0][0] != "a" {
		t.Fatalf("repeated variable mishandled: %v", res.Tuples)
	}
}

func TestEvalConstantHead(t *testing.T) {
	db := familyDB(t)
	q := &cq.Query{Name: "Q", Head: []cq.Term{c("hit"), v("N")},
		Atoms: []cq.Atom{cq.NewAtom("Family", c("11"), v("N"), v("Ty"))}}
	res, err := EvalOpts(db, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != 1 || res.Tuples[0][0] != "hit" || res.Tuples[0][1] != "Calcitonin" {
		t.Fatalf("constant head mishandled: %v", res.Tuples)
	}
}

func TestEvalErrors(t *testing.T) {
	db := familyDB(t)
	if _, err := EvalOpts(db, &cq.Query{Head: []cq.Term{v("X")},
		Atoms: []cq.Atom{cq.NewAtom("Nope", v("X"))}}, Options{}); err == nil {
		t.Fatal("unknown relation accepted")
	}
	if _, err := EvalOpts(db, &cq.Query{Head: []cq.Term{v("X")},
		Atoms: []cq.Atom{cq.NewAtom("Family", v("X"))}}, Options{}); err == nil {
		t.Fatal("arity mismatch accepted")
	}
	if _, err := EvalOpts(db, &cq.Query{Head: []cq.Term{v("Y")},
		Atoms: []cq.Atom{cq.NewAtom("FC", v("X"), v("X2"))}}, Options{}); err == nil {
		t.Fatal("unsafe head accepted")
	}
}

func TestEvalInequalities(t *testing.T) {
	facts := []cq.Atom{
		cq.NewAtom("E", c("1"), c("2")),
		cq.NewAtom("E", c("2"), c("2")),
		cq.NewAtom("E", c("3"), c("2")),
	}
	db, err := dbFromFacts(facts)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(op cq.CompOp) *cq.Query {
		return &cq.Query{Name: "Q", Head: []cq.Term{v("X")},
			Atoms: []cq.Atom{cq.NewAtom("E", v("X"), v("Y"))},
			Comps: []cq.Comparison{{L: v("X"), Op: op, R: v("Y")}}}
	}
	for _, tc := range []struct {
		op   cq.CompOp
		want int
	}{{cq.OpLt, 1}, {cq.OpLe, 2}, {cq.OpEq, 1}, {cq.OpNe, 2}, {cq.OpGt, 1}, {cq.OpGe, 2}} {
		res, err := EvalOpts(db, mk(tc.op), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Tuples) != tc.want {
			t.Fatalf("op %v: want %d tuples, got %v", tc.op, tc.want, res.Tuples)
		}
	}
}

// TestContainmentAgreesWithCanonicalDB cross-validates the cq containment
// test against the Chandra–Merlin canonical-database characterization using
// the evaluation engine: Q1 ⊆ Q2 iff the frozen head of Q1 appears in
// Q2(canonicalDB(Q1)).
func TestContainmentAgreesWithCanonicalDB(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	preds := []string{"R", "S"}
	vars := []string{"X0", "X1", "X2"}
	randomQuery := func() *cq.Query {
		n := 1 + r.Intn(2)
		var atoms []cq.Atom
		term := func() cq.Term {
			if r.Intn(6) == 0 {
				return c("k")
			}
			return v(vars[r.Intn(len(vars))])
		}
		for i := 0; i < n; i++ {
			atoms = append(atoms, cq.NewAtom(preds[r.Intn(len(preds))], term(), term()))
		}
		var head cq.Term = c("k")
		for _, a := range atoms {
			for _, tm := range a.Args {
				if tm.IsVar() {
					head = tm
				}
			}
		}
		return &cq.Query{Name: "Q", Head: []cq.Term{head}, Atoms: atoms}
	}
	f := func() bool {
		q1, q2 := randomQuery(), randomQuery()
		want := cq.Contains(q1, q2)
		facts, frozen := cq.CanonicalDatabase(q1)
		db, err := dbFromFacts(facts)
		if err != nil {
			return false
		}
		// Unify predicates arities: skip mismatched random draws.
		res, err := EvalOpts(db, q2, Options{})
		if err != nil {
			return true // arity mismatch between q1/q2 predicates: skip
		}
		frozenHead := make(storage.Tuple, len(q1.Head))
		for i, tm := range q1.Head {
			if tm.IsConst {
				frozenHead[i] = tm.Value
			} else {
				frozenHead[i] = frozen[tm.Name].Value
			}
		}
		got := slices.Contains(res.Keys, frozenHead.Key())
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestPropEvalMonotone(t *testing.T) {
	// CQs are monotone: adding tuples can only grow the result.
	r := rand.New(rand.NewSource(8))
	f := func() bool {
		db := familyDB(t)
		q := &cq.Query{Name: "Q", Head: []cq.Term{v("N")},
			Atoms: []cq.Atom{
				cq.NewAtom("Family", v("F"), v("N"), v("Ty")),
				cq.NewAtom("FamilyIntro", v("F"), v("Tx")),
			}}
		before, err := EvalOpts(db, q, Options{})
		if err != nil {
			return false
		}
		id := 100 + r.Intn(100)
		db.MustInsert("Family", itoa(id), "NewFam", "gpcr")
		db.MustInsert("FamilyIntro", itoa(id), "intro")
		after, err := EvalOpts(db, q, Options{})
		if err != nil {
			return false
		}
		for _, tup := range before.Tuples {
			if !slices.Contains(after.Keys, tup.Key()) {
				return false
			}
		}
		return len(after.Tuples) >= len(before.Tuples)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func itoa(n int) string {
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}
