package core_test

// The set-semantics oracle of unfolded evaluation. The engine evaluates a
// rewriting through its expansion over base relations; Definition 3.2 sums
// over the rewriting's bindings, and a view relation is a set, so a view
// tuple with two derivations is still one binding. The reference below is
// the implementation unfolding replaced, kept for exactly this comparison:
// materialize every view into a storage.DB and evaluate the rewriting over
// the view relations. A naive unfolding — one monomial per frame of the
// expansion — doubles the coefficients of every view tuple derived twice.

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"citare/internal/backend"
	"citare/internal/core"
	"citare/internal/cq"
	"citare/internal/datalog"
	"citare/internal/eval"
	"citare/internal/lsm"
	"citare/internal/provenance"
	"citare/internal/rewrite"
	"citare/internal/shard"
	"citare/internal/storage"
)

// oracleViews: VE hides a variable of a relation without a key (a view tuple
// per A, a derivation per B); VJ hides one behind a join; VK hides one the
// key determines; VC has a head constant once normalized, VR a repeated head
// variable; VS hides nothing.
const oracleViews = `
view λA. VE(A) :- R(A, B).
cite VE λA. CVE(A) :- R(A, B).
view λB. VJ(A, B) :- R(A, B), S(A, C).
cite VJ λB. CVJ(A, B) :- R(A, B).
view λK1. VK(K1) :- K(K1, V).
cite VK λK1. CVK(K1, V) :- K(K1, V).
view VC(A, B) :- R(A, B), B = "k".
cite VC CVC(A) :- R(A, "k").
view VR(A, A2) :- R(A, A2), A = A2.
cite VR CVR(A) :- R(A, A).
view VS(A, C) :- S(A, C).
cite VS CVS(A, C) :- S(A, C).
`

// oracleQueries: $C is a constant drawn from the value pool.
var oracleQueries = []string{
	`Q(A) :- R(A, B)`,
	`Q(A) :- R(A, B), A = $C`,
	`Q(A) :- R(A, B), B = "k"`,
	`Q(A) :- R(A, A)`,
	`Q(A, B) :- R(A, B), S(A, C)`,
	`Q(A, C) :- R(A, B), S(A, C)`,
	`Q(A, C) :- R(A, B), S(A, C), C != $C`,
	`Q(A, V) :- R(A, B), K(A, V), V != $C`,
	`Q(A, V) :- R(A, B), K(A, V), A = $C`,
	`Q(K1) :- K(K1, V)`,
}

var oraclePool = []string{"a", "b", "c", "k", "1", "2"}

// oracleWorldViews parses oracleViews.
func oracleWorldViews(t testing.TB) []*core.CitationView {
	t.Helper()
	prog, err := datalog.ParseProgram(oracleViews)
	if err != nil {
		t.Fatal(err)
	}
	views, err := core.FromProgram(prog)
	if err != nil {
		t.Fatal(err)
	}
	return views
}

func oracleSchema() *storage.Schema {
	s := storage.NewSchema()
	two := func(a, b string) []storage.Column { return []storage.Column{{Name: a}, {Name: b}} }
	s.MustAddRelation(&storage.RelSchema{Name: "R", Cols: two("a", "b")})
	s.MustAddRelation(&storage.RelSchema{Name: "S", Cols: two("a", "c")})
	s.MustAddRelation(&storage.RelSchema{Name: "K", Cols: two("k", "v"), Key: []string{"k"}})
	return s
}

// oracleInstance draws a database over the pool: small enough that most
// values of R.a and S.a carry several tuples.
func oracleInstance(r *rand.Rand) *storage.DB {
	db := storage.NewDB(oracleSchema())
	pick := func() string { return oraclePool[r.Intn(len(oraclePool))] }
	for i := 0; i < 14; i++ {
		db.MustInsert("R", pick(), pick())
		db.MustInsert("S", pick(), pick())
	}
	db.MustInsert("R", "a", "b") // VE("a"), twice derived whatever the draw
	db.MustInsert("R", "a", "k")
	for _, k := range oraclePool[:4] {
		db.MustInsert("K", k, pick())
	}
	return db
}

// oraclePolys is the reference: the rewriting's Σ-over-bindings polynomial
// per head-tuple key, over view relations materialized with eval.
func oraclePolys(t *testing.T, db *storage.DB, views []*core.CitationView, r *rewrite.Rewriting, baseTokens bool) map[string]provenance.Poly {
	t.Helper()
	s := storage.NewSchema()
	for _, rs := range db.Schema().Relations() {
		s.MustAddRelation(&storage.RelSchema{Name: rs.Name, Cols: rs.Cols})
	}
	for _, v := range views {
		cols := make([]storage.Column, len(v.Def.Head))
		for i := range cols {
			cols[i] = storage.Column{Name: fmt.Sprintf("h%d", i)}
		}
		s.MustAddRelation(&storage.RelSchema{Name: "__view_" + v.Name(), Cols: cols})
	}
	exec := storage.NewDB(s)
	for _, rs := range db.Schema().Relations() {
		for _, tu := range db.Relation(rs.Name).Tuples() {
			exec.MustInsert(rs.Name, tu...)
		}
	}
	params := map[string][]int{}
	for _, v := range views {
		res, err := eval.EvalOpts(db, v.Def, eval.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, tu := range res.Tuples {
			exec.MustInsert("__view_"+v.Name(), tu...)
		}
		if params[v.Name()], err = v.Def.ParamPositions(); err != nil {
			t.Fatal(err)
		}
	}
	q := &cq.Query{Name: "RW", Head: r.Head, Comps: r.Comps}
	for _, va := range r.ViewAtoms {
		q.Atoms = append(q.Atoms, cq.Atom{Pred: "__view_" + va.View.Name, Args: va.Args})
	}
	q.Atoms = append(q.Atoms, r.BaseAtoms...)
	pl, err := eval.Compile(eval.DBViewOf(exec), q)
	if err != nil {
		t.Fatal(err)
	}
	slot := map[string]int{}
	for i, name := range pl.Vars() {
		slot[name] = i
	}
	value := func(frame []string, term cq.Term) string {
		if term.IsConst {
			return term.Value
		}
		return frame[slot[term.Name]]
	}
	polys := map[string]provenance.Poly{}
	err = pl.Each(context.Background(), eval.Options{}, func(frame []string) error {
		head := make(storage.Tuple, len(r.Head))
		for i, term := range r.Head {
			head[i] = value(frame, term)
		}
		var toks []provenance.Token
		for _, va := range r.ViewAtoms {
			var vals []string
			for _, pos := range params[va.View.Name] {
				vals = append(vals, value(frame, va.Args[pos]))
			}
			toks = append(toks, core.NewViewToken(va.View.Name, vals...).Encode())
		}
		if baseTokens {
			for _, a := range r.BaseAtoms {
				toks = append(toks, core.NewRelToken(a.Pred).Encode())
			}
		}
		p, ok := polys[head.Key()]
		if !ok {
			p = provenance.NewPoly()
			polys[head.Key()] = p
		}
		p.Add(provenance.NewMonomial(toks...), 1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return polys
}

// TestUnfoldedMatchesMaterializedOracle compares the engine, polynomial for
// polynomial with coefficients, against the materializing reference on
// seeded random instances, for a plain, a three-shard and an LSM-backed
// engine.
func TestUnfoldedMatchesMaterializedOracle(t *testing.T) {
	views := oracleWorldViews(t)
	var err error
	// The raw semiring: no idempotence or pruning to hide a coefficient.
	pol := plainPolicy()
	pol.AllowPartial, pol.IncludeBaseTokens = true, true

	usedViews := map[string]bool{}
	partialWithComparison, manyDerivations := false, false
	for seed := int64(1); seed <= 12; seed++ {
		r := rand.New(rand.NewSource(seed))
		db := oracleInstance(r)
		engines := map[string]*core.Engine{}
		if engines["plain"], err = core.NewEngine(core.DBSource{DB: db}, views, pol); err != nil {
			t.Fatal(err)
		}
		sdb, err := shard.FromDB(db, 3)
		if err != nil {
			t.Fatal(err)
		}
		if engines["shards=3"], err = core.NewEngine(core.ShardSource{DB: sdb}, views, pol); err != nil {
			t.Fatal(err)
		}
		store, err := backend.OpenLSM(t.TempDir(), db.Schema(), lsm.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer store.Close()
		for _, rs := range db.Schema().Relations() {
			for _, tu := range db.Relation(rs.Name).Tuples() {
				if err := store.Insert(rs.Name, tu...); err != nil {
					t.Fatal(err)
				}
			}
		}
		if _, err := store.Commit("seed"); err != nil {
			t.Fatal(err)
		}
		if engines["lsm"], err = core.NewEngine(backend.Head(store), views, pol); err != nil {
			t.Fatal(err)
		}

		for _, tmpl := range oracleQueries {
			src := strings.ReplaceAll(tmpl, "$C", fmt.Sprintf("%q", oraclePool[r.Intn(len(oraclePool))]))
			for name, e := range engines {
				res, err := e.CiteQuery(context.Background(), mustQuery(t, src), 0, nil)
				if err != nil {
					t.Fatalf("seed %d, %s, %s: %v", seed, name, src, err)
				}
				for k, rw := range res.BoundRewritings() {
					want := oraclePolys(t, db, views, rw, pol.IncludeBaseTokens)
					for _, va := range rw.ViewAtoms {
						usedViews[va.View.Name] = true
					}
					partialWithComparison = partialWithComparison || len(rw.BaseAtoms) > 0 && len(rw.Comps) > 0
					seen := 0
					for _, tc := range res.Tuples {
						var got *provenance.Poly
						for i := range tc.PerRewriting {
							if tc.PerRewriting[i].Rewriting == k {
								got = &tc.PerRewriting[i].Poly
							}
						}
						w, ok := want[tc.Tuple.Key()]
						switch {
						case got == nil && !ok:
							continue
						case got == nil || !ok || !got.Equal(w):
							t.Fatalf("seed %d, %s, %s\nrewriting %s, tuple %q:\n got %v\nwant %v",
								seed, name, src, rw, []string(tc.Tuple), got, w)
						}
						seen++
					}
					if seen != len(want) {
						t.Fatalf("seed %d, %s, %s: rewriting %s cites %d tuples, the reference %d", seed, name, src, rw, seen, len(want))
					}
				}
			}
		}
		// The instance must be one a naive unfolding gets wrong.
		res, err := eval.EvalOpts(db, mustQuery(t, `Q(A, B) :- R(A, B)`), eval.Options{})
		if err != nil {
			t.Fatal(err)
		}
		perA := map[string]int{}
		for _, tu := range res.Tuples {
			perA[tu[0]]++
			manyDerivations = manyDerivations || perA[tu[0]] > 1
		}
	}
	for _, v := range views {
		if !usedViews[v.Name()] {
			t.Errorf("no rewriting used view %s: the oracle does not cover its shape", v.Name())
		}
	}
	if !partialWithComparison || !manyDerivations {
		t.Errorf("coverage: partial rewriting with a residual comparison %v, view tuple with two derivations %v",
			partialWithComparison, manyDerivations)
	}
}
