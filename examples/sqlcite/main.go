// SQL scenario: "the owners of GtoPdb would like to allow users to issue
// general queries against the relational database and automatically generate
// a citation for the result" (§1). This example issues SQL directly.
//
//	go run ./examples/sqlcite
package main

import (
	"context"
	"errors"
	"fmt"
	"log"

	"citare"
	"citare/internal/gtopdb"
)

func main() {
	citer, err := citare.NewFromProgram(gtopdb.PaperInstance(), gtopdb.ViewsProgram,
		citare.WithNeutralCitation(gtopdb.DatabaseCitation()))
	if err != nil {
		log.Fatal(err)
	}

	queries := []string{
		// Example 2.2 in SQL.
		`SELECT f.FName
		   FROM Family f, FamilyIntro i
		  WHERE f.FID = i.FID AND f.Type = 'gpcr'`,
		// Example 2.3 in SQL (explicit JOIN syntax).
		`SELECT f.FName, i.Text
		   FROM Family f JOIN FamilyIntro i ON f.FID = i.FID
		  WHERE f.Type = 'gpcr'`,
		// A committee-credit query touching three relations.
		`SELECT f.FName, p.PName
		   FROM Family f, FC c, Person p
		  WHERE f.FID = c.FID AND c.PID = p.PID AND f.FID = '11'`,
	}

	// One plan-shared batch: the three queries evaluate concurrently under
	// one context, equivalent requests would share a single evaluation, and
	// each request succeeds or fails in its own slot.
	ctx := context.Background()
	reqs := make([]citare.Request, len(queries))
	for i, sql := range queries {
		reqs[i] = citare.Request{SQL: sql}
	}
	for i, item := range citer.CiteBatchItems(ctx, reqs) {
		if item.Err != nil {
			log.Fatalf("query %d failed: %v", i+1, item.Err)
		}
		res, sql := item.Citation, queries[i]
		fmt.Printf("=== query %d ===\n%s\n", i+1, sql)
		fmt.Printf("answers (%v): %v\n", res.Columns(), res.Rows())
		fmt.Println("rewritings:")
		for _, r := range res.Rewritings() {
			fmt.Println("  " + r)
		}
		fmt.Printf("citation: %s\n\n", res.CitationJSON())
	}

	// Parse errors surface typed (errors.Is(err, citare.ErrParse)) and with
	// positions, like any SQL front end.
	_, err = citer.Cite(ctx, citare.Request{SQL: `SELECT FID FROM Family, FamilyIntro`})
	fmt.Printf("ambiguous column error (expected, tagged ErrParse=%v): %v\n", errors.Is(err, citare.ErrParse), err)
}
