// Command citegen generates citations for queries over a relational
// database with citation views, end to end from the command line.
//
// Usage:
//
//	citegen -demo -sql "SELECT f.FName FROM Family f, FamilyIntro i WHERE f.FID = i.FID AND f.Type = 'gpcr'"
//	citegen -demo -query 'Q(N) :- Family(F, N, Ty), Ty = "gpcr", FamilyIntro(F, Tx)' -show-rewritings
//	citegen -data ./csvdir -views views.cit -query '...' -format bibtex
//
// With -data, the directory must contain <Relation>.csv files (with headers)
// for the relations mentioned in the views file; the schema is inferred from
// the views file's base relations unless -demo is given.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"citare"
	"citare/internal/core"
	"citare/internal/datalog"
	"citare/internal/gtopdb"
	"citare/internal/storage"
)

var (
	demo      = flag.Bool("demo", false, "use the built-in GtoPdb paper instance and views")
	dataDir   = flag.String("data", "", "directory of <Relation>.csv files to load")
	viewsPath = flag.String("views", "", "citation-views program file")
	sqlQuery  = flag.String("sql", "", "SQL query to cite")
	dlQuery   = flag.String("query", "", "datalog query to cite")
	formatAlt = flag.String("format", "json", "citation format: json, json-compact, xml, bibtex, text")
	showRW    = flag.Bool("show-rewritings", false, "print the rewritings used")
	showPoly  = flag.Bool("show-polynomials", false, "print per-tuple citation polynomials")
	showRows  = flag.Bool("show-rows", false, "print the answer tuples")
	timesI    = flag.String("times", "join", "interpretation of · : union or join")
	plusI     = flag.String("plus", "union", "interpretation of + : union or join")
	plusRI    = flag.String("plusR", "union", "interpretation of +R : union or join")
	aggI      = flag.String("agg", "union", "interpretation of Agg : union or join")
	noPrune   = flag.Bool("no-prune", false, "disable order pruning and the §2.3 rewriting preference")
	withDBRef = flag.Bool("cite-database", false, "always include the database-level citation (Agg neutral)")
	timeout   = flag.Duration("timeout", 0, "abort evaluation after this long (0 = no deadline)")
	maxTuples = flag.Int("max-tuples", 0, "fail if the query produces more answer tuples (0 = unbounded)")
	maxRW     = flag.Int("max-rewritings", 0, "bound rewriting enumeration (0 = unbounded)")
)

func main() {
	flag.Parse()

	// Ctrl-C cancels the evaluation mid-join instead of leaving it running.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	req := citare.Request{SQL: *sqlQuery, Datalog: *dlQuery, Format: *formatAlt, MaxTuples: *maxTuples}
	pol, err := buildPolicy(*timesI, *plusI, *plusRI, *aggI, *noPrune, *maxRW)
	if err == nil {
		err = run(ctx, *demo, *dataDir, *viewsPath, req, *showRW, *showPoly, *showRows, pol, *withDBRef)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "citegen:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, demo bool, dataDir, viewsPath string, req citare.Request,
	showRW, showPoly, showRows bool, pol citare.Policy, withDBRef bool) error {
	if req.SQL == "" && req.Datalog == "" {
		return fmt.Errorf("provide a query with -sql or -query")
	}
	if req.SQL != "" && req.Datalog != "" {
		return fmt.Errorf("-sql and -query are mutually exclusive")
	}

	// Assemble database and views.
	var db *storage.DB
	viewsProgram := ""
	switch {
	case demo:
		db = gtopdb.PaperInstance()
		viewsProgram = gtopdb.ViewsProgram
	case viewsPath != "":
		raw, err := os.ReadFile(viewsPath)
		if err != nil {
			return err
		}
		viewsProgram = string(raw)
		prog, err := datalog.ParseProgram(viewsProgram)
		if err != nil {
			return err
		}
		schema, err := inferSchema(prog)
		if err != nil {
			return err
		}
		db = storage.NewDB(schema)
	default:
		return fmt.Errorf("provide -demo or -views")
	}
	if dataDir != "" {
		n, err := storage.LoadDir(db, dataDir)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "loaded %d tuples from %s\n", n, dataDir)
	}

	opts := []citare.Option{citare.WithPolicy(pol)}
	if withDBRef {
		opts = append(opts, citare.WithNeutralCitation(gtopdb.DatabaseCitation()))
	}
	citer, err := citare.NewFromProgram(db, viewsProgram, opts...)
	if err != nil {
		return err
	}

	res, err := citer.Cite(ctx, req)
	if err != nil {
		return err
	}

	if showRows {
		fmt.Printf("-- %d answer tuple(s), columns %v\n", res.NumTuples(), res.Columns())
		for _, row := range res.Rows() {
			fmt.Printf("   %v\n", row)
		}
	}
	if showRW {
		fmt.Printf("-- %d rewriting(s)\n", len(res.Rewritings()))
		for _, r := range res.Rewritings() {
			fmt.Println("   " + r)
		}
	}
	if showPoly {
		fmt.Println("-- per-tuple citation polynomials")
		for i, row := range res.Rows() {
			poly, err := res.TuplePolynomialAt(i)
			if err != nil {
				return err
			}
			fmt.Printf("   %v: %s\n", row, poly)
		}
	}
	out, err := res.Rendered()
	if err != nil {
		return err
	}
	fmt.Println(out)
	return nil
}

// buildPolicy is core.DefaultPolicy — the policy every other entry point
// cites under — with the interpretations, pruning and rewriting bound the
// flags name.
func buildPolicy(timesI, plusI, plusRI, aggI string, noPrune bool, maxRW int) (citare.Policy, error) {
	pol := core.DefaultPolicy()
	for _, f := range []struct {
		dst  *citare.Interp
		name string
	}{{&pol.Times, timesI}, {&pol.Plus, plusI}, {&pol.PlusR, plusRI}, {&pol.Agg, aggI}} {
		var err error
		if *f.dst, err = core.ParseInterp(f.name); err != nil {
			return pol, err
		}
	}
	if noPrune {
		pol.Orders, pol.PreferredRewritings = nil, false
	}
	pol.MaxRewritings = maxRW
	return pol, nil
}

// inferSchema derives a relational schema from the base relations mentioned
// in a views program (all-string columns named c0..ck).
func inferSchema(prog *datalog.Program) (*storage.Schema, error) {
	s := storage.NewSchema()
	arity := make(map[string]int)
	record := func(pred string, n int) error {
		if prev, ok := arity[pred]; ok {
			if prev != n {
				return fmt.Errorf("relation %s used with arities %d and %d", pred, prev, n)
			}
			return nil
		}
		arity[pred] = n
		cols := make([]storage.Column, n)
		for i := range cols {
			cols[i] = storage.Column{Name: fmt.Sprintf("c%d", i)}
		}
		return s.AddRelation(&storage.RelSchema{Name: pred, Cols: cols})
	}
	for _, d := range prog.Views {
		for _, a := range d.View.Atoms {
			if err := record(a.Pred, len(a.Args)); err != nil {
				return nil, err
			}
		}
		for _, a := range d.Cite.Atoms {
			if err := record(a.Pred, len(a.Args)); err != nil {
				return nil, err
			}
		}
	}
	return s, nil
}
