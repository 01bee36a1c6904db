package workload

import (
	"math/rand"
	"testing"

	"citare/internal/cq"
	"citare/internal/eval"
	"citare/internal/rewrite"
)

func TestChainQueryShape(t *testing.T) {
	q := ChainQuery(3)
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(q.Atoms) != 3 || len(q.Head) != 2 {
		t.Fatalf("chain query: %s", q)
	}
}

func TestWindowViewsCoverChain(t *testing.T) {
	views := WindowViews(4, 10)
	if len(views) != 10 {
		t.Fatalf("want 10 views, got %d", len(views))
	}
	for _, v := range views {
		if err := v.Validate(); err != nil {
			t.Fatalf("%s: %v", v, err)
		}
	}
	// Span-1 windows alone must rewrite the chain totally.
	q := ChainQuery(4)
	rs, err := rewrite.Enumerate(q, views[:4], rewrite.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 || rs[0].NumViews() != 4 {
		t.Fatalf("span-1 cover: %v", rs)
	}
	// More views ⇒ at least as many rewritings.
	rsAll, err := rewrite.Enumerate(q, views, rewrite.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rsAll) < len(rs) {
		t.Fatalf("more views should not shrink the rewriting set: %d vs %d", len(rsAll), len(rs))
	}
}

func TestChainDBEvaluates(t *testing.T) {
	db := ChainDB(3, 50, 8, 42)
	res, err := eval.EvalOpts(db, ChainQuery(3), eval.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) == 0 {
		t.Fatal("layered chain with width 8 and 50 edges per layer should produce join results")
	}
	// Determinism across identical seeds.
	db2 := ChainDB(3, 50, 8, 42)
	res2, err := eval.EvalOpts(db2, ChainQuery(3), eval.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != len(res2.Tuples) {
		t.Fatal("generator is not deterministic per seed")
	}
}

func TestChainCitationViews(t *testing.T) {
	views, err := ChainCitationViews(3, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(views) != 6 {
		t.Fatalf("want 6 citation views, got %d", len(views))
	}
	for _, v := range views {
		if v.Spec == nil || v.CiteQ == nil {
			t.Fatalf("incomplete citation view %s", v.Name())
		}
	}
}

func TestRandomGtoPdbQueryValid(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		q := RandomGtoPdbQuery(r, 3)
		if err := q.Validate(); err != nil {
			t.Fatalf("invalid random query %s: %v", q, err)
		}
	}
	for _, q := range GtoPdbQueries() {
		if err := q.Validate(); err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
	}
}

func TestWindowViewEquivalence(t *testing.T) {
	// A window view expanded equals the corresponding chain fragment.
	v := WindowView(1, 2)
	frag := &cq.Query{Name: "F", Head: v.Head, Atoms: v.Atoms}
	if !cq.Equivalent(v, frag) {
		t.Fatal("window view must equal its fragment")
	}
}
