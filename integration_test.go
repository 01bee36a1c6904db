package citare

// Cross-module integration tests: fixity end to end (E12), random-workload
// plan independence, and certification of every rewriting the engine uses.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"citare/internal/backend"
	"citare/internal/core"
	"citare/internal/format"
	"citare/internal/gtopdb"
	"citare/internal/lsm"
	"citare/internal/workload"
)

// TestFixityEndToEnd reproduces §4's fixity requirement on the store that
// serves it: the same query cited through Citer.AsOf against each release
// of an LSM backend returns the data — and the credit — as of that release,
// and every such citation stays byte-identical after a later commit that
// retracts a tuple, a flush, a compaction, and a close and reopen from disk.
func TestFixityEndToEnd(t *testing.T) {
	dir := t.TempDir()
	opt := lsm.Options{DisableBackgroundCompaction: true}
	b, err := backend.OpenLSM(dir, gtopdb.Schema(), opt)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { b.Close() }()
	insert := func(rel string, vals ...string) {
		t.Helper()
		if err := b.Insert(rel, vals...); err != nil {
			t.Fatal(err)
		}
	}
	commit := func(label string) uint64 {
		t.Helper()
		v, err := b.Commit(label)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	insert("Family", "11", "Calcitonin", "gpcr")
	insert("Person", "p1", "Hay", "U. Auckland")
	insert("FC", "11", "p1")
	rel1 := commit("release-1")
	if err := b.Store().Flush(); err != nil { // release 1 on a table, release 2 in the memtable
		t.Fatal(err)
	}
	insert("Person", "p2", "Poyner", "Aston U.")
	insert("FC", "11", "p2")
	rel2 := commit("release-2")

	citeAt := func(rel uint64) string {
		t.Helper()
		stamp := format.NewObject().Set("Version", format.S(fmt.Sprint(rel)))
		head, err := NewBackendFromProgram(b, gtopdb.ViewsProgram, WithNeutralCitation(stamp))
		if err != nil {
			t.Fatal(err)
		}
		pinned, err := head.AsOf(rel)
		if err != nil {
			t.Fatal(err)
		}
		res, err := pinned.Cite(context.Background(), Request{Datalog: `Q(N) :- Family(F, N, Ty), F = "11"`})
		if err != nil {
			t.Fatal(err)
		}
		return res.CitationJSON()
	}

	cited := map[uint64]string{rel1: citeAt(rel1), rel2: citeAt(rel2)}
	if !strings.Contains(cited[rel1], `"Committee": ["Hay"]`) {
		t.Fatalf("release-1 citation must credit only Hay: %s", cited[rel1])
	}
	if !strings.Contains(cited[rel2], `"Committee": ["Hay", "Poyner"]`) {
		t.Fatalf("release-2 citation must credit Hay and Poyner: %s", cited[rel2])
	}
	if !strings.Contains(cited[rel1], `"Version": "1"`) || !strings.Contains(cited[rel2], `"Version": "2"`) {
		t.Fatal("citations must carry their version stamps")
	}
	recite := func(step string) {
		t.Helper()
		for rel, want := range cited {
			if got := citeAt(rel); got != want {
				t.Fatalf("after %s, release %d's citation changed (fixity violated):\n got %s\nwant %s", step, rel, got, want)
			}
		}
	}

	// Hay leaves the committee in release 3.
	if ok, err := b.Delete("FC", "11", "p1"); !ok || err != nil {
		t.Fatalf("retract = (%v, %v), want a live delete", ok, err)
	}
	rel3 := commit("release-3")
	recite("a commit that retracts a tuple")
	if cited[rel3] = citeAt(rel3); !strings.Contains(cited[rel3], `"Committee": ["Poyner"]`) {
		t.Fatalf("release-3 citation must credit only Poyner: %s", cited[rel3])
	}

	if err := b.Store().Flush(); err != nil {
		t.Fatal(err)
	}
	recite("a flush")
	if err := b.Store().Compact(); err != nil {
		t.Fatal(err)
	}
	if st := b.Store().Stats(); st.Compactions != 1 || st.Levels[0].Tables != 0 {
		t.Fatalf("compaction did not merge the two flushed tables: %+v", st)
	}
	recite("a compaction")
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if b, err = backend.OpenLSM(dir, nil, opt); err != nil {
		t.Fatal(err)
	}
	recite("a close and reopen")
}

// TestAsOfOnlyCommittedVersions: Citer.AsOf pins committed versions only.
// The version still being written has no fixed contents — a Citer "pinned"
// to it would see the next write after its next Reset — so it is rejected
// with ErrRange, like version 0 and versions past it.
func TestAsOfOnlyCommittedVersions(t *testing.T) {
	b, err := backend.OpenLSM(t.TempDir(), gtopdb.Schema(), lsm.Options{DisableBackgroundCompaction: true})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	citer, err := NewBackendFromProgram(b, gtopdb.ViewsProgram)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Insert("Family", "11", "Calcitonin", "gpcr"); err != nil {
		t.Fatal(err)
	}
	committed, err := b.Commit("release-1")
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Insert("Family", "12", "Orexin", "gpcr"); err != nil {
		t.Fatal(err)
	}
	for _, v := range []uint64{b.Version(), 0, b.Version() + 1} {
		if _, err := citer.AsOf(v); !errors.Is(err, ErrRange) {
			t.Fatalf("AsOf(%d) with Versions() = %v: err = %v, want ErrRange", v, b.Versions(), err)
		}
	}
	if _, err := citer.AsOf(committed); err != nil {
		t.Fatalf("AsOf(%d), a committed version: %v", committed, err)
	}
}

// TestPlanIndependenceRandomQueries checks the paper's plan-independence
// claim on randomly generated GtoPdb queries: adding a redundant atom and
// renaming variables never changes the citation.
func TestPlanIndependenceRandomQueries(t *testing.T) {
	cfg := gtopdb.DefaultConfig()
	cfg.Families = 60
	db := gtopdb.Generate(cfg)
	citer, err := NewFromProgram(db, gtopdb.ViewsProgram)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(11))
	f := func() bool {
		q := workload.RandomGtoPdbQuery(r, 2)
		variant := q.Clone()
		// Redundant copy of the first atom with fresh variable names for
		// its existential positions keeps equivalence.
		variant.Atoms = append(variant.Atoms, variant.Atoms[0])
		res1, err := citer.Engine().Cite(q)
		if err != nil {
			return false
		}
		res2, err := citer.Engine().Cite(variant)
		if err != nil {
			return false
		}
		if len(res1.Tuples) != len(res2.Tuples) {
			return false
		}
		for i := range res1.Tuples {
			if core.PolyString(res1.Tuples[i].Combined) != core.PolyString(res2.Tuples[i].Combined) {
				return false
			}
		}
		return res1.Citation.JSON() == res2.Citation.JSON()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestEngineRewritingsAlwaysCertified re-verifies, through the public
// surface, that every rewriting the engine reports expands to a query
// equivalent to the asked one (the soundness invariant).
func TestEngineRewritingsAlwaysCertified(t *testing.T) {
	citer := newPaperCiter(t)
	queries := []string{
		`Q(N) :- Family(F, N, Ty), Ty = "gpcr", FamilyIntro(F, Tx)`,
		`Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx)`,
		`Q(N, Pn) :- Family(F, N, Ty), FC(F, C), Person(C, Pn, A)`,
		`Q(N) :- Family(F, N, Ty), F = "11"`,
	}
	for _, qs := range queries {
		res, err := citer.Cite(context.Background(), Request{Datalog: qs})
		if err != nil {
			t.Fatalf("%s: %v", qs, err)
		}
		for _, r := range res.Result().Rewritings {
			exp, err := r.Expand()
			if err != nil {
				t.Fatalf("%s: expand %s: %v", qs, r, err)
			}
			if !equivalentQueries(exp, res.Result().Query) {
				t.Fatalf("%s: rewriting %s not equivalent", qs, r)
			}
		}
	}
}

// TestCitationAgreesWithDirectEvaluation: the tuples the citation reports
// must be exactly the query's answers over the database.
func TestCitationAgreesWithDirectEvaluation(t *testing.T) {
	cfg := gtopdb.DefaultConfig()
	cfg.Families = 80
	db := gtopdb.Generate(cfg)
	citer, err := NewFromProgram(db, gtopdb.ViewsProgram)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(13))
	for i := 0; i < 25; i++ {
		q := workload.RandomGtoPdbQuery(r, 3)
		res, err := citer.Engine().Cite(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		direct, err := evalDirect(db, q)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Tuples) != len(direct) {
			t.Fatalf("%s: %d cited tuples vs %d answers", q, len(res.Tuples), len(direct))
		}
		for _, tc := range res.Tuples {
			if !direct[tc.Tuple.Key()] {
				t.Fatalf("%s: cited tuple %v is not an answer", q, tc.Tuple)
			}
		}
	}
}

// TestEveryAnswerTupleGetsACitation: with the paper's five views over the
// GtoPdb schema and partial rewritings admitted, no tuple is left uncited.
func TestEveryAnswerTupleGetsACitation(t *testing.T) {
	citer := newPaperCiter(t)
	res, err := citer.Cite(context.Background(), Request{Datalog: `Q(N, Pn) :- Family(F, N, Ty), FC(F, C), Person(C, Pn, A)`})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumTuples() == 0 {
		t.Fatal("query should have answers")
	}
	for i := 0; i < res.NumTuples(); i++ {
		if poly := tuplePoly(t, res, i); poly == "0" || poly == "" {
			t.Fatalf("tuple %v has no citation", res.Rows()[i])
		}
	}
}
