// Package workload generates the deterministic fixtures that the eval,
// shard, rewrite and root tests share: layered chain-join databases and
// their chain queries, sliding-window views over a chain (the search space
// of the rewriting-enumeration benchmarks), and GtoPdb-shaped conjunctive
// queries, a fixed mix and random ones. Everything is seeded and
// reproducible.
package workload

import (
	"fmt"
	"math/rand"

	"citare/internal/cq"
	"citare/internal/storage"
)

// ChainSchema declares binary relations R0(A,B) … R{k-1}(A,B).
func ChainSchema(k int) *storage.Schema {
	s := storage.NewSchema()
	for i := 0; i < k; i++ {
		s.MustAddRelation(&storage.RelSchema{
			Name: fmt.Sprintf("R%d", i),
			Cols: []storage.Column{{Name: "A"}, {Name: "B"}},
		})
	}
	return s
}

// ChainDB populates a chain schema: each Ri holds `rows` edges i→i+1 layers
// of a layered graph with `width` nodes per layer, so joins have predictable
// fan-out.
func ChainDB(k, rows, width int, seed int64) *storage.DB {
	r := rand.New(rand.NewSource(seed))
	db := storage.NewDB(ChainSchema(k))
	if width <= 0 {
		width = 16
	}
	for i := 0; i < k; i++ {
		rel := fmt.Sprintf("R%d", i)
		for j := 0; j < rows; j++ {
			from := fmt.Sprintf("n%d_%d", i, r.Intn(width))
			to := fmt.Sprintf("n%d_%d", i+1, r.Intn(width))
			db.MustInsert(rel, from, to)
		}
	}
	return db
}

// ChainQuery builds Q(X0, Xk) :- R0(X0,X1), …, R{k-1}(X{k-1},Xk).
func ChainQuery(k int) *cq.Query {
	q := &cq.Query{Name: "Q"}
	for i := 0; i < k; i++ {
		q.Atoms = append(q.Atoms, cq.NewAtom(fmt.Sprintf("R%d", i),
			cq.Var(fmt.Sprintf("X%d", i)), cq.Var(fmt.Sprintf("X%d", i+1))))
	}
	q.Head = []cq.Term{cq.Var("X0"), cq.Var(fmt.Sprintf("X%d", k))}
	return q
}

// WindowView builds the view W{start}_{span}(Xstart, Xend) covering the
// chain segment [start, start+span).
func WindowView(start, span int) *cq.Query {
	v := &cq.Query{Name: fmt.Sprintf("W%d_%d", start, span)}
	for i := start; i < start+span; i++ {
		v.Atoms = append(v.Atoms, cq.NewAtom(fmt.Sprintf("R%d", i),
			cq.Var(fmt.Sprintf("X%d", i)), cq.Var(fmt.Sprintf("X%d", i+1))))
	}
	v.Head = []cq.Term{cq.Var(fmt.Sprintf("X%d", start)), cq.Var(fmt.Sprintf("X%d", start+span))}
	return v
}

// WindowViews generates n distinct window views over a k-chain, cycling
// through spans 1, 2, 3 and shifting start positions — a controllable
// rewriting search space (more views ⇒ more covers ⇒ more rewritings).
func WindowViews(k, n int) []*cq.Query {
	var out []*cq.Query
	span, start := 1, 0
	for len(out) < n {
		if start+span > k {
			span++
			start = 0
			if span > k {
				break
			}
			continue
		}
		out = append(out, WindowView(start, span))
		start++
	}
	return out
}

// GtoPdbQueries returns a deterministic mix of conjunctive queries over the
// GtoPdb schema, from single-relation selections to three-way joins, used by
// the sharded-evaluation parity tests.
func GtoPdbQueries() []*cq.Query {
	v := cq.Var
	c := cq.Const
	return []*cq.Query{
		{ // families of one type
			Name: "QType", Head: []cq.Term{v("N")},
			Atoms: []cq.Atom{cq.NewAtom("Family", v("F"), v("N"), c("type-01"))},
		},
		{ // families with intro
			Name: "QIntro", Head: []cq.Term{v("N"), v("Tx")},
			Atoms: []cq.Atom{
				cq.NewAtom("Family", v("F"), v("N"), v("Ty")),
				cq.NewAtom("FamilyIntro", v("F"), v("Tx")),
			},
		},
		{ // committee membership
			Name: "QCommittee", Head: []cq.Term{v("N"), v("Pn")},
			Atoms: []cq.Atom{
				cq.NewAtom("Family", v("F"), v("N"), v("Ty")),
				cq.NewAtom("FC", v("F"), v("P")),
				cq.NewAtom("Person", v("P"), v("Pn"), v("Af")),
			},
		},
		{ // introductions of one type (the paper's Example 2.3 shape)
			Name: "QTypeIntro", Head: []cq.Term{v("N"), v("Tx")},
			Atoms: []cq.Atom{
				cq.NewAtom("Family", v("F"), v("N"), v("Ty")),
				cq.NewAtom("FamilyIntro", v("F"), v("Tx")),
			},
			Comps: []cq.Comparison{{L: v("Ty"), Op: cq.OpEq, R: c("type-02")}},
		},
	}
}

// RandomGtoPdbQuery draws a random conjunctive query over the GtoPdb schema
// with up to maxJoins joins, for fuzz-style property tests.
func RandomGtoPdbQuery(r *rand.Rand, maxJoins int) *cq.Query {
	q := &cq.Query{Name: "QR"}
	q.Atoms = append(q.Atoms, cq.NewAtom("Family", cq.Var("F"), cq.Var("N"), cq.Var("Ty")))
	head := []cq.Term{cq.Var("N")}
	n := r.Intn(maxJoins + 1)
	for i := 0; i < n; i++ {
		switch r.Intn(3) {
		case 0:
			q.Atoms = append(q.Atoms, cq.NewAtom("FamilyIntro", cq.Var("F"), cq.Var(fmt.Sprintf("Tx%d", i))))
			head = append(head, cq.Var(fmt.Sprintf("Tx%d", i)))
		case 1:
			q.Atoms = append(q.Atoms, cq.NewAtom("FC", cq.Var("F"), cq.Var(fmt.Sprintf("P%d", i))))
		case 2:
			q.Comps = append(q.Comps, cq.Comparison{L: cq.Var("Ty"), Op: cq.OpEq,
				R: cq.Const(fmt.Sprintf("type-%02d", r.Intn(4)))})
		}
	}
	q.Head = head
	return q
}
