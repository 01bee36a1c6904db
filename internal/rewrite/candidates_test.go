package rewrite

import (
	"maps"
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"citare/internal/cq"
)

// drawQuery draws a valid query of one to three atoms over R/2 and U/1,
// with the variables prefix0–prefix3, the constants "1" and "2", up to two
// comparisons (=, != or <) and a head of up to two terms.
func drawQuery(r *rand.Rand, name, prefix string) *cq.Query {
	constant := func() cq.Term { return cq.Const(strconv.Itoa(1 + r.Intn(2))) }
	q := &cq.Query{Name: name}
	var vars []cq.Term
	for range 1 + r.Intn(3) {
		a, arity := cq.Atom{Pred: "R"}, 2
		if r.Intn(3) == 0 {
			a.Pred, arity = "U", 1
		}
		for range arity {
			if r.Intn(4) == 0 {
				a.Args = append(a.Args, constant())
				continue
			}
			x := cq.Var(prefix + strconv.Itoa(r.Intn(4)))
			a.Args = append(a.Args, x)
			vars = append(vars, x)
		}
		q.Atoms = append(q.Atoms, a)
	}
	bodyTerm := func() cq.Term {
		if len(vars) == 0 || r.Intn(4) == 0 {
			return constant()
		}
		return vars[r.Intn(len(vars))]
	}
	for range r.Intn(3) {
		op := []cq.CompOp{cq.OpEq, cq.OpNe, cq.OpLt}[r.Intn(3)]
		q.Comps = append(q.Comps, cq.Comparison{L: bodyTerm(), Op: op, R: bodyTerm()})
	}
	for range r.Intn(3) {
		q.Head = append(q.Head, bodyTerm())
	}
	return q
}

// viewOf draws a view over part of q: a nonempty subset of its atoms, the
// comparisons among q's that the subset keeps valid, and a head of some of
// the subset's variables.
func viewOf(r *rand.Rand, name string, q *cq.Query) *cq.Query {
	v := &cq.Query{Name: name}
	for _, a := range q.Atoms {
		if r.Intn(2) == 0 {
			v.Atoms = append(v.Atoms, a)
		}
	}
	if len(v.Atoms) == 0 {
		v.Atoms = q.Atoms[:1]
	}
	body := v.BodyVars()
	for _, c := range q.Comps {
		if (c.L.IsConst || body[c.L.Name]) && (c.R.IsConst || body[c.R.Name]) && r.Intn(3) > 0 {
			v.Comps = append(v.Comps, c)
		}
	}
	for _, x := range slices.Sorted(maps.Keys(body)) {
		if r.Intn(2) == 0 {
			v.Head = append(v.Head, cq.Var(x))
		}
	}
	return v
}

// bruteCandidates is candidates by brute force: every assignment of each
// view's atoms to the query's, unified argument by argument, with
// cq.ComparisonsImplied applied to the complete mapping.
func bruteCandidates(vs *Views, q *cq.Query) map[string]bool {
	out := make(map[string]bool)
	for i := range vs.views {
		pv := &vs.views[i]
		image := make([]int, len(pv.fresh.Atoms))
		var each func(k int)
		each = func(k int) {
			if k < len(image) {
				for j := range q.Atoms {
					image[k] = j
					each(k + 1)
				}
				return
			}
			h := make(cq.Subst)
			for k, a := range pv.fresh.Atoms {
				if b := q.Atoms[image[k]]; a.Pred != b.Pred || !unifyArgs(a.Args, b.Args, h) {
					return
				}
			}
			if !cq.ComparisonsImplied(pv.fresh.Comps, q.Comps, h) {
				return
			}
			if c := buildCandidate(q, pv, h, image); c != nil {
				out[c.key()] = true
			}
		}
		each(0)
	}
	return out
}

// unifyArgs extends h so that ts map onto us term by term.
func unifyArgs(ts, us []cq.Term, h cq.Subst) bool {
	if len(ts) != len(us) {
		return false
	}
	for i, t := range ts {
		if t.IsConst {
			if !t.Equal(us[i]) {
				return false
			}
		} else if prev, ok := h[t.Name]; ok {
			if !prev.Equal(us[i]) {
				return false
			}
		} else {
			h[t.Name] = us[i]
		}
	}
	return true
}

// TestCandidatesMatchBruteForce holds the view candidates the one search
// finds to the brute-force set, on 3,000 seeded draws of a normalized query
// and one to three views with =, != and <, drawn on their own or over part of
// the query.
func TestCandidatesMatchBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(46))
	var cands int
	for i := 0; i < 3000; {
		q, _, sat := drawQuery(r, "Q", "X").NormalizeConstants()
		if !sat {
			continue
		}
		var views []*cq.Query
		for k := range 1 + r.Intn(3) {
			if name := "V" + strconv.Itoa(k); r.Intn(2) == 0 {
				views = append(views, drawQuery(r, name, "X"))
			} else {
				views = append(views, viewOf(r, name, q))
			}
		}
		vs, err := PrepareViews(views)
		if err != nil {
			t.Fatal(err)
		}
		got := make(map[string]bool)
		for _, c := range vs.candidates(q) {
			got[c.key()] = true
		}
		if want := bruteCandidates(vs, q); !maps.Equal(got, want) {
			t.Fatalf("draw %d: query %v, views %v: candidates %q, reference %q",
				i, q, views, slices.Sorted(maps.Keys(got)), slices.Sorted(maps.Keys(want)))
		}
		cands += len(got)
		i++
	}
	if cands < 3000 {
		t.Fatalf("only %d candidates in 3000 draws", cands)
	}
}
