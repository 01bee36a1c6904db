package citare_test

import (
	"context"
	"fmt"
	"log"

	"citare"
	"citare/internal/gtopdb"
)

// ExampleCiter_Cite reproduces the paper's Example 2.2: rewriting a datalog
// query over the citation views and assembling its citation.
func ExampleCiter_Cite() {
	citer, err := citare.NewFromProgram(gtopdb.PaperInstance(), gtopdb.ViewsProgram)
	if err != nil {
		log.Fatal(err)
	}
	res, err := citer.Cite(context.Background(), citare.Request{Datalog: `Q(N) :- Family(F, N, Ty), Ty = "gpcr", FamilyIntro(F, Tx)`})
	if err != nil {
		log.Fatal(err)
	}
	for _, row := range res.Rows() {
		fmt.Println(row[0])
	}
	poly, err := res.TuplePolynomialAt(0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(poly)
	// Output:
	// Calcitonin
	// b
	// Orexin
	// V5("gpcr")
}

// ExampleCiter_Cite_sql cites a SQL query; the SQL and datalog front ends
// produce identical citations for equivalent queries.
func ExampleCiter_Cite_sql() {
	citer, err := citare.NewFromProgram(gtopdb.PaperInstance(), gtopdb.ViewsProgram)
	if err != nil {
		log.Fatal(err)
	}
	res, err := citer.Cite(context.Background(), citare.Request{SQL: `SELECT f.FName FROM Family f WHERE f.FID = '11'`})
	if err != nil {
		log.Fatal(err)
	}
	record, err := res.TupleCitationJSONAt(0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(record)
	// Output:
	// {"ID": "11", "Name": "Calcitonin", "Committee": ["Hay", "Poyner"]}
}

// ExampleNewCached shows the citation cache: equivalent query variants share
// one computed citation.
func ExampleNewCached() {
	citer, err := citare.NewFromProgram(gtopdb.PaperInstance(), gtopdb.ViewsProgram)
	if err != nil {
		log.Fatal(err)
	}
	cached := citare.NewCached(citer)
	if _, err := cached.Cite(context.Background(), citare.Request{Datalog: `Q(N) :- Family(F, N, Ty), Ty = "gpcr"`}); err != nil {
		log.Fatal(err)
	}
	if _, err := cached.Cite(context.Background(), citare.Request{Datalog: `Q(Nm) :- Family(G, Nm, "gpcr")`}); err != nil {
		log.Fatal(err)
	}
	st := cached.CacheStats()
	fmt.Printf("hits=%d misses=%d\n", st.Hits, st.Misses)
	// Output:
	// hits=1 misses=1
}

// ExampleCitation_Render renders one citation in the formats repositories
// ask for.
func ExampleCitation_Render() {
	citer, err := citare.NewFromProgram(gtopdb.PaperInstance(), gtopdb.ViewsProgram,
		citare.WithNeutralCitation(gtopdb.DatabaseCitation()))
	if err != nil {
		log.Fatal(err)
	}
	res, err := citer.Cite(context.Background(), citare.Request{Datalog: `Q(N) :- Family(F, N, Ty), Ty = "no-matches"`})
	if err != nil {
		log.Fatal(err)
	}
	bib, err := res.Render("bibtex")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(bib)
	// Output:
	// @misc{citare,
	//   note = {Database: IUPHAR/BPS Guide to PHARMACOLOGY, Publication: Pawson et al., Nucleic Acids Research 42(D1), 2014},
	//   howpublished = {guidetopharmacology.org},
	//   edition = {23},
	// }
}
