// Fixity scenario (§4 of the paper): "data may evolve over time, and
// citations should bring back the data as seen at the time it was cited.
// Thus data sources must support versioning, and citations must include
// timestamps or version numbers."
//
// This example evolves a GtoPdb database across three releases of a
// persistent LSM store (in a temporary directory) and shows that citing the
// same query AsOf each committed version yields version-faithful,
// version-stamped citations.
//
//	go run ./examples/versioning
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"citare"
	"citare/internal/backend"
	"citare/internal/format"
	"citare/internal/gtopdb"
	"citare/internal/lsm"
)

func main() {
	dir, err := os.MkdirTemp("", "citare-versioning-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	b, err := backend.OpenLSM(dir, gtopdb.Schema(), lsm.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer b.Close()
	insert := func(rel string, vals ...string) {
		if err := b.Insert(rel, vals...); err != nil {
			log.Fatal(err)
		}
	}
	commit := func(label string) uint64 {
		v, err := b.Commit(label)
		if err != nil {
			log.Fatal(err)
		}
		return v
	}

	// Release 1: family 11 exists with a one-person committee.
	insert("Family", "11", "Calcitonin", "gpcr")
	insert("Person", "p1", "Hay", "U. Auckland")
	insert("FC", "11", "p1")
	rel1 := commit("release-1")

	// Release 2: Poyner joins the committee; an introduction is added.
	insert("Person", "p2", "Poyner", "Aston U.")
	insert("FC", "11", "p2")
	insert("FamilyIntro", "11", "The calcitonin peptide family")
	insert("Person", "p3", "Brown", "U. Cambridge")
	insert("FIC", "11", "p3")
	rel2 := commit("release-2")

	// Release 3: the family is renamed (the old row goes, the new one
	// comes); Hay leaves the committee.
	for _, del := range [][]string{{"Family", "11", "Calcitonin", "gpcr"}, {"FC", "11", "p1"}} {
		if _, err := b.Delete(del[0], del[1:]...); err != nil {
			log.Fatal(err)
		}
	}
	insert("Family", "11", "Calcitonin receptors", "gpcr")
	rel3 := commit("release-3")

	query := `Q(N) :- Family(F, N, Ty), F = "11"`
	for _, rel := range []uint64{rel1, rel2, rel3} {
		// Version-stamped neutral citation: the fixity anchor.
		stamp := format.NewObject().
			Set("Database", format.S("GtoPdb (demo)")).
			Set("Version", format.S(fmt.Sprintf("%d (%s)", rel, b.Label(rel))))
		head, err := citare.NewBackendFromProgram(b, gtopdb.ViewsProgram,
			citare.WithNeutralCitation(stamp))
		if err != nil {
			log.Fatal(err)
		}
		citer, err := head.AsOf(rel)
		if err != nil {
			log.Fatal(err)
		}
		res, err := citer.Cite(context.Background(), citare.Request{Datalog: query})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("=== as of version %d (%s) ===\n", rel, b.Label(rel))
		fmt.Printf("answers: %v\n", res.Rows())
		fmt.Printf("citation: %s\n\n", res.CitationJSON())
	}
}
