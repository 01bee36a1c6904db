package main

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"citare"
	"citare/internal/core"
	"citare/internal/datalog"
	"citare/internal/gtopdb"
)

func TestRunErrors(t *testing.T) {
	cases := []struct {
		name string
		call func() error
	}{
		{"no query", func() error {
			return run(context.Background(), true, "", "", citare.Request{SQL: "", Datalog: "", Format: "json"}, false, false, false, core.DefaultPolicy(), false)
		}},
		{"both queries", func() error {
			return run(context.Background(), true, "", "", citare.Request{SQL: "SELECT 1", Datalog: "Q(X) :- R(X)", Format: "json"}, false, false, false, core.DefaultPolicy(), false)
		}},
		{"no source", func() error {
			return run(context.Background(), false, "", "", citare.Request{SQL: "", Datalog: "Q(X) :- R(X)", Format: "json"}, false, false, false, core.DefaultPolicy(), false)
		}},
		{"bad interp", func() error {
			_, err := buildPolicy("bogus", "union", "union", "union", false, 0)
			return err
		}},
		{"bad format", func() error {
			return run(context.Background(), true, "", "", citare.Request{SQL: "", Datalog: `Q(N) :- Family(F, N, Ty)`, Format: "yaml"}, false, false, false, core.DefaultPolicy(), false)
		}},
		{"bad query", func() error {
			return run(context.Background(), true, "", "", citare.Request{SQL: "", Datalog: `Q(N) :-`, Format: "json"}, false, false, false, core.DefaultPolicy(), false)
		}},
	}
	for _, tc := range cases {
		if err := tc.call(); err == nil {
			t.Fatalf("%s: expected error", tc.name)
		}
	}
}

func TestRunDemoHappyPath(t *testing.T) {
	// Capture stdout to keep test output clean and assert on the citation.
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	runErr := run(context.Background(), true, "", "",
		citare.Request{Datalog: `Q(N) :- Family(F, N, Ty), Ty = "gpcr", FamilyIntro(F, Tx)`, Format: "json-compact"},
		true, true, true, core.DefaultPolicy(), true)
	w.Close()
	os.Stdout = old
	out := make([]byte, 1<<16)
	n, _ := r.Read(out)
	if runErr != nil {
		t.Fatal(runErr)
	}
	got := string(out[:n])
	for _, want := range []string{"rewriting", "Calcitonin", "IUPHAR"} {
		if !strings.Contains(got, want) {
			t.Fatalf("output missing %q:\n%s", want, got)
		}
	}
}

func TestInferSchema(t *testing.T) {
	prog, err := datalog.ParseProgram(`
view V(X, Y) :- R(X, Y).
cite V C(X) :- R(X, Y), S(Y).
`)
	if err != nil {
		t.Fatal(err)
	}
	schema, err := inferSchema(prog)
	if err != nil {
		t.Fatal(err)
	}
	if schema.Relation("R") == nil || schema.Relation("S") == nil {
		t.Fatalf("schema incomplete: %s", schema)
	}
	if schema.Relation("R").Arity() != 2 || schema.Relation("S").Arity() != 1 {
		t.Fatal("arities wrong")
	}
	// Conflicting arity must error.
	bad, err := datalog.ParseProgram(`
view V(X) :- R(X).
cite V C(X) :- R(X, Y).
`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inferSchema(bad); err == nil {
		t.Fatal("conflicting arities accepted")
	}
}

func TestRunWithCSVData(t *testing.T) {
	dir := t.TempDir()
	views := `
view λF. V(F, N) :- Fam(F, N).
cite V λF. C(F, N) :- Fam(F, N).
fmt  V { "ID": F, "Name": N }.
`
	viewsPath := filepath.Join(dir, "views.cit")
	if err := os.WriteFile(viewsPath, []byte(views), 0o644); err != nil {
		t.Fatal(err)
	}
	dataDir := filepath.Join(dir, "data")
	if err := os.Mkdir(dataDir, 0o755); err != nil {
		t.Fatal(err)
	}
	csv := "c0,c1\n1,alpha\n2,beta\n"
	if err := os.WriteFile(filepath.Join(dataDir, "Fam.csv"), []byte(csv), 0o644); err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	runErr := run(context.Background(), false, dataDir, viewsPath,
		citare.Request{Datalog: `Q(N) :- Fam(F, N), F = "1"`, Format: "json-compact"},
		false, false, false, core.DefaultPolicy(), false)
	w.Close()
	os.Stdout = old
	out := make([]byte, 1<<16)
	n, _ := r.Read(out)
	if runErr != nil {
		t.Fatal(runErr)
	}
	if !strings.Contains(string(out[:n]), "alpha") {
		t.Fatalf("CSV-backed citation missing: %s", out[:n])
	}
}

// TestDefaultFlagsCiteUnderDefaultPolicy: with every flag at its default,
// citegen cites under core.DefaultPolicy — §3.4's orders included — as
// citesrv and the facade do, and so gives the paper's example queries the
// same rewritings and citations.
func TestDefaultFlagsCiteUnderDefaultPolicy(t *testing.T) {
	def := func(name string) string { return flag.Lookup(name).DefValue }
	noPrune, err := strconv.ParseBool(def("no-prune"))
	if err != nil {
		t.Fatal(err)
	}
	maxRW, err := strconv.Atoi(def("max-rewritings"))
	if err != nil {
		t.Fatal(err)
	}
	pol, err := buildPolicy(def("times"), def("plus"), def("plusR"), def("agg"), noPrune, maxRW)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pol, core.DefaultPolicy()) {
		t.Fatalf("default-flag policy %+v, want core.DefaultPolicy() %+v", pol, core.DefaultPolicy())
	}
	flagged, err := citare.NewFromProgram(gtopdb.PaperInstance(), gtopdb.ViewsProgram, citare.WithPolicy(pol))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := citare.NewFromProgram(gtopdb.PaperInstance(), gtopdb.ViewsProgram)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		`Q(F, N) :- Family(F, N, Ty)`,
		`Q(N) :- Family(F, N, Ty), F = "11", FamilyIntro(F, Tx)`,
		`Q(N) :- Family(F, N, Ty), Ty = "gpcr", FamilyIntro(F, Tx)`,
		`Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), Ty = "gpcr"`,
		`Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx)`,
		`Q(N, Pn) :- Family(F, N, Ty), FC(F, P), Person(P, Pn, A)`,
	} {
		got, err := flagged.Cite(context.Background(), citare.Request{Datalog: q})
		if err != nil {
			t.Fatal(err)
		}
		want, err := plain.Cite(context.Background(), citare.Request{Datalog: q})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.Rewritings(), want.Rewritings()) || got.CitationJSON() != want.CitationJSON() {
			t.Fatalf("%s: citegen cites %v %s, the default policy %v %s",
				q, got.Rewritings(), got.CitationJSON(), want.Rewritings(), want.CitationJSON())
		}
	}
}
