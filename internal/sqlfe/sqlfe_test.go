package sqlfe

import (
	"strings"
	"testing"

	"citare/internal/cq"
	"citare/internal/eval"
	"citare/internal/storage"
)

func gtopSchema(t testing.TB) *storage.Schema {
	t.Helper()
	s := storage.NewSchema()
	s.MustAddRelation(&storage.RelSchema{Name: "Family",
		Cols: []storage.Column{{Name: "FID"}, {Name: "FName"}, {Name: "Type"}}, Key: []string{"FID"}})
	s.MustAddRelation(&storage.RelSchema{Name: "FamilyIntro",
		Cols: []storage.Column{{Name: "FID"}, {Name: "Text"}}, Key: []string{"FID"}})
	s.MustAddRelation(&storage.RelSchema{Name: "Person",
		Cols: []storage.Column{{Name: "PID"}, {Name: "PName"}, {Name: "Affiliation"}}, Key: []string{"PID"}})
	return s
}

func TestParsePaperQuery(t *testing.T) {
	// Example 2.2 as SQL.
	q, err := Parse(gtopSchema(t), `
		SELECT DISTINCT f.FName
		FROM Family f, FamilyIntro i
		WHERE f.FID = i.FID AND f.Type = 'gpcr'`)
	if err != nil {
		t.Fatal(err)
	}
	want, err2 := parseDatalogEquivalent()
	if err2 != nil {
		t.Fatal(err2)
	}
	if !cq.Equivalent(q, want) {
		t.Fatalf("SQL translation not equivalent:\n got %s\nwant %s", q, want)
	}
}

// parseDatalogEquivalent builds Q(N) :- Family(F,N,Ty), FamilyIntro(F,Tx), Ty="gpcr".
func parseDatalogEquivalent() (*cq.Query, error) {
	q := &cq.Query{Name: "Q",
		Head: []cq.Term{cq.Var("N")},
		Atoms: []cq.Atom{
			cq.NewAtom("Family", cq.Var("F"), cq.Var("N"), cq.Var("Ty")),
			cq.NewAtom("FamilyIntro", cq.Var("F"), cq.Var("Tx")),
		},
		Comps: []cq.Comparison{{L: cq.Var("Ty"), Op: cq.OpEq, R: cq.Const("gpcr")}}}
	return q, q.Validate()
}

func TestJoinUnification(t *testing.T) {
	q, err := Parse(gtopSchema(t), `SELECT f.FName FROM Family f, FamilyIntro i WHERE f.FID = i.FID`)
	if err != nil {
		t.Fatal(err)
	}
	// The join columns must be unified into a single variable, not left as
	// a comparison.
	if len(q.Comps) != 0 {
		t.Fatalf("join equality should be unified, got comps %v", q.Comps)
	}
	if !q.Atoms[0].Args[0].Equal(q.Atoms[1].Args[0]) {
		t.Fatalf("join variables differ: %v vs %v", q.Atoms[0].Args[0], q.Atoms[1].Args[0])
	}
}

func TestExplicitJoinOn(t *testing.T) {
	q1, err := Parse(gtopSchema(t), `SELECT f.FName FROM Family f JOIN FamilyIntro i ON f.FID = i.FID WHERE f.Type = 'gpcr'`)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := Parse(gtopSchema(t), `SELECT f.FName FROM Family f, FamilyIntro i WHERE f.FID = i.FID AND f.Type = 'gpcr'`)
	if err != nil {
		t.Fatal(err)
	}
	if !cq.Equivalent(q1, q2) {
		t.Fatalf("JOIN..ON and comma-join must agree:\n%s\n%s", q1, q2)
	}
}

func TestSelectStar(t *testing.T) {
	q, err := Parse(gtopSchema(t), `SELECT * FROM Family`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Head) != 3 {
		t.Fatalf("star expansion: %v", q.Head)
	}
}

func TestSelfJoinAliases(t *testing.T) {
	q, err := Parse(gtopSchema(t), `
		SELECT a.FName, b.FName
		FROM Family a, Family b
		WHERE a.Type = b.Type AND a.FID != b.FID`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Atoms) != 2 || q.Atoms[0].Pred != "Family" || q.Atoms[1].Pred != "Family" {
		t.Fatalf("self join atoms: %v", q.Atoms)
	}
	if len(q.Comps) != 1 || q.Comps[0].Op != cq.OpNe {
		t.Fatalf("inequality lost: %v", q.Comps)
	}
	// Type columns unified across instances.
	if !q.Atoms[0].Args[2].Equal(q.Atoms[1].Args[2]) {
		t.Fatal("a.Type = b.Type should unify")
	}
}

func TestBareColumnResolution(t *testing.T) {
	q, err := Parse(gtopSchema(t), `SELECT FName FROM Family WHERE Type = 'gpcr'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Head) != 1 {
		t.Fatalf("head: %v", q.Head)
	}
	// FID is ambiguous across Family and FamilyIntro.
	if _, err := Parse(gtopSchema(t), `SELECT FID FROM Family, FamilyIntro`); err == nil {
		t.Fatal("ambiguous bare column accepted")
	}
	if !strings.Contains(err2str(Parse(gtopSchema(t), `SELECT FID FROM Family, FamilyIntro`)), "ambiguous") {
		t.Fatal("error should mention ambiguity")
	}
}

func err2str(_ *cq.Query, err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

func TestLiteralsAndQuoteEscape(t *testing.T) {
	q, err := Parse(gtopSchema(t), `SELECT FName FROM Family WHERE FName = 'O''Neill'`)
	if err != nil {
		t.Fatal(err)
	}
	if !q.Comps[0].R.Equal(cq.Const("O'Neill")) {
		t.Fatalf("quote escape: %v", q.Comps[0].R)
	}
	q2, err := Parse(gtopSchema(t), `SELECT FName FROM Family WHERE FID >= 10`)
	if err != nil {
		t.Fatal(err)
	}
	if q2.Comps[0].Op != cq.OpGe || !q2.Comps[0].R.Equal(cq.Const("10")) {
		t.Fatalf("numeric literal: %v", q2.Comps)
	}
}

func TestConstantInSelectList(t *testing.T) {
	q, err := Parse(gtopSchema(t), `SELECT 'marker', FName FROM Family`)
	if err != nil {
		t.Fatal(err)
	}
	if !q.Head[0].Equal(cq.Const("marker")) {
		t.Fatalf("constant head: %v", q.Head)
	}
}

func TestParseErrors(t *testing.T) {
	schema := gtopSchema(t)
	cases := []string{
		``,
		`SELECT`,
		`SELECT FROM Family`,
		`SELECT x FROM Nope`,
		`SELECT f.Nope FROM Family f`,
		`SELECT z.FID FROM Family f`,
		`SELECT f.FName FROM Family f WHERE`,
		`SELECT f.FName FROM Family f WHERE f.Type ='`,
		`SELECT f.FName FROM Family f JOIN FamilyIntro i`,     // missing ON
		`SELECT f.FName FROM Family f, Family f`,              // dup alias
		`SELECT f.FName FROM Family f WHERE f.Type LIKE 'g%'`, // unsupported op
		`SELECT f.FName FROM Family f; DROP TABLE Family`,     // junk
		`UPDATE Family SET FName = 'x'`,                       // not a select
	}
	for _, src := range cases {
		if _, err := Parse(schema, src); err == nil {
			t.Fatalf("accepted invalid SQL %q", src)
		}
	}
}

func TestEndToEndEvaluation(t *testing.T) {
	schema := gtopSchema(t)
	db := storage.NewDB(schema)
	db.MustInsert("Family", "11", "Calcitonin", "gpcr")
	db.MustInsert("Family", "20", "P2X", "lgic")
	db.MustInsert("FamilyIntro", "11", "The calcitonin peptide family")
	q, err := Parse(schema, `SELECT f.FName FROM Family f JOIN FamilyIntro i ON f.FID = i.FID WHERE f.Type = 'gpcr'`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eval.EvalOpts(db, q, eval.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != 1 || res.Tuples[0][0] != "Calcitonin" {
		t.Fatalf("end-to-end: %v", res.Tuples)
	}
}
