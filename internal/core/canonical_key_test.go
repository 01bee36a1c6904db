package core_test

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"citare/internal/core"
	"citare/internal/cq"
	"citare/internal/datalog"
	"citare/internal/storage"
)

// TestCanonicalKeyMatchesReference holds the citation-cache key — a shape's
// canonical template followed by the query's own values
// (core.Prepared.AppendCanonical) — against the reference it replaces, the
// cq.Query.CanonicalKey of each minimized query. Over seeded worlds, every
// query is spelled many ways: with its variables renamed, its atoms
// permuted, a redundant copy of an atom added, and constants bound into it
// through equalities, which other spellings bind to other values. Two
// spellings may share a key only if the reference equates them (a shared key
// is a shared citation), and spellings the reference equates must share one
// too (no hit of the cache is lost), symmetric queries included.
func TestCanonicalKeyMatchesReference(t *testing.T) {
	seeds := int64(300)
	if testing.Short() {
		seeds = 60
	}
	templated, fallbacks, hits := 0, 0, 0
	for seed := int64(1); seed <= seeds; seed++ {
		w := genWorld(seed)
		prog, err := datalog.ParseProgram(strings.Join(w.views, "\n"))
		if err != nil {
			t.Fatal(err)
		}
		views, err := core.FromProgram(prog)
		if err != nil {
			t.Fatal(err)
		}
		e, err := core.NewEngine(core.DBSource{DB: w.db()}, views, w.pol)
		if err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewSource(seed))
		type spelled struct {
			q        *cq.Query
			key, ref string
		}
		var all []spelled
		for _, src := range w.queries {
			for _, b := range boundVariants(r, mustQuery(t, src)) {
				for _, q := range spellings(r, b) {
					p := e.Prepare(q.Clone())
					if !p.Satisfiable() {
						continue
					}
					s := spelled{q: q, key: string(p.AppendCanonical(nil)), ref: p.Min().CanonicalKey()}
					if s.key[0] == 't' {
						templated++
					} else {
						fallbacks++
					}
					all = append(all, s)
				}
			}
		}
		for i, a := range all {
			for _, b := range all[:i] {
				switch {
				case a.key == b.key && a.ref != b.ref:
					t.Fatalf("seed %d: one key for queries the reference tells apart:\n%s\n%s\nkey %q", seed, a.q, b.q, a.key)
				case a.key != b.key && a.ref == b.ref:
					t.Fatalf("seed %d: two keys for queries the reference equates:\n%s  %q\n%s  %q", seed, a.q, a.key, b.q, b.key)
				case a.key == b.key:
					hits++
				}
			}
		}
	}
	if templated == 0 || fallbacks == 0 || hits == 0 {
		t.Fatalf("%d templated keys, %d spelled by CanonicalKey, %d shared: the property checked too little", templated, fallbacks, hits)
	}
	t.Logf("%d templated keys, %d spelled by CanonicalKey, %d pairs sharing one", templated, fallbacks, hits)
}

// boundVariants returns q and q with one or two of its variables bound to
// constants by equalities: the same variables bound to several values, which
// give queries of one shape under different constants.
func boundVariants(r *rand.Rand, q *cq.Query) []*cq.Query {
	vars := q.Vars()
	out := []*cq.Query{q}
	x, y := vars[r.Intn(len(vars))], vars[r.Intn(len(vars))]
	values := []string{"a", "b", "c", "d", "e"}
	for range 3 {
		b := q.Clone()
		b.Comps = append(b.Comps, cq.Comparison{L: cq.Var(x), Op: cq.OpEq, R: cq.Const(values[r.Intn(len(values))])})
		out = append(out, b)
		if x != y {
			b2 := b.Clone()
			b2.Comps = append(b2.Comps, cq.Comparison{L: cq.Var(y), Op: cq.OpEq, R: cq.Const(values[r.Intn(len(values))])})
			out = append(out, b2)
		}
	}
	return out
}

// spellings returns q as written, with its variables renamed, with its atoms
// permuted, and with a redundant copy of one atom — its variables outside the
// head renamed apart, so that it maps onto the original.
func spellings(r *rand.Rand, q *cq.Query) []*cq.Query {
	renamed := q.Apply(renaming(q, "R_"))
	permuted := q.Clone()
	r.Shuffle(len(permuted.Atoms), func(i, j int) { permuted.Atoms[i], permuted.Atoms[j] = permuted.Atoms[j], permuted.Atoms[i] })
	redundant := q.Clone()
	a := q.Atoms[r.Intn(len(q.Atoms))]
	head := map[string]bool{}
	for _, t := range q.Head {
		head[t.Name] = true
	}
	fresh := cq.Subst{}
	for _, t := range a.Args {
		if t.IsVar() && !head[t.Name] {
			fresh[t.Name] = cq.Var("Fresh_" + t.Name)
		}
	}
	redundant.Atoms = slices.Insert(redundant.Atoms, r.Intn(len(q.Atoms)+1), fresh.ApplyAtom(a))
	return []*cq.Query{q, renamed, permuted, redundant}
}

// renaming renames every variable of q with a prefix.
func renaming(q *cq.Query, prefix string) cq.Subst {
	s := cq.Subst{}
	for _, v := range q.Vars() {
		s[v] = cq.Var(prefix + v)
	}
	return s
}

// TestCanonicalKeyFramesTemplate: a template ends with the query's literal
// comparison constants, which may spell anything — also the framing of the
// values that follow it. Here one query's literal is another's framed value:
// only a framed template keeps their keys apart.
func TestCanonicalKeyFramesTemplate(t *testing.T) {
	db := storage.NewDB(storage.NewSchema())
	db.Schema().MustAddRelation(&storage.RelSchema{Name: "R", Cols: []storage.Column{{Name: "a"}, {Name: "b"}}})
	e, err := core.NewEngine(core.DBSource{DB: db}, nil, core.DefaultPolicy())
	if err != nil {
		t.Fatal(err)
	}
	a := e.Prepare(mustQuery(t, `Q(X) :- R(X, Y), X < "", Y = "1:a|1:b"`))
	b := e.Prepare(mustQuery(t, `Q(X) :- R(X, Y), X < "|7:1:a", Y = "b"`))
	ka, kb := string(a.AppendCanonical(nil)), string(b.AppendCanonical(nil))
	if ka[0] != 't' || kb[0] != 't' {
		t.Fatalf("keys %q and %q: want both spelled from a template", ka, kb)
	}
	if ka == kb {
		t.Fatalf("two queries the reference tells apart share the key %q", ka)
	}
}
