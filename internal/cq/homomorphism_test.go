package cq

import (
	"fmt"
	"math/rand"
	"strconv"
	"testing"
)

// neChain is Q(N) :- Family(F0, N, T), …, Family(Fk-1, N, T),
// F0 != F1, …, Fk-2 != Fk-1.
func neChain(k int) *Query {
	qq := &Query{Name: "Q", Head: []Term{v("N")}}
	for i := range k {
		qq.Atoms = append(qq.Atoms, atom("Family", v(fmt.Sprintf("F%d", i)), v("N"), v("T")))
		if i > 0 {
			qq.Comps = append(qq.Comps, Comparison{L: v(fmt.Sprintf("F%d", i-1)), Op: OpNe, R: v(fmt.Sprintf("F%d", i))})
		}
	}
	return qq
}

// TestHomomorphismChainAllocs gates the search on the k = 7 != chain, whose
// comparisons prune every mapping of two adjacent atoms onto non-adjacent
// ones: a search that tested comparisons only at complete mappings, or
// copied its mapping per step, allocated 390,416 objects on the equivalence
// and 10,273,345 on the failed containment.
func TestHomomorphismChainAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	chain := neChain(7)
	more := chain.Clone()
	more.Comps = append(more.Comps, Comparison{L: v("F0"), Op: OpNe, R: v("F2")})
	for _, tc := range []struct {
		name string
		run  func() bool
		want bool
	}{
		{"Equivalent(q, q.Clone())", func() bool { return Equivalent(chain, chain.Clone()) }, true},
		{"Contains(q, q ∧ F0 != F2)", func() bool { return Contains(chain, more) }, false},
	} {
		var got bool
		allocs := testing.AllocsPerRun(5, func() { got = tc.run() })
		if got != tc.want {
			t.Fatalf("%s = %v, want %v", tc.name, got, tc.want)
		}
		if allocs > 1000 {
			t.Fatalf("%s allocates %.0f objects, want ≤ 1000", tc.name, allocs)
		}
	}
}

// oracleQuery draws a valid query of one to maxAtoms atoms over R/2, S/2 and
// U/1, with the variables prefix0–prefix3, the constants "1"–"3", up to two
// comparisons (=, != or <) and a head of up to two terms.
func oracleQuery(r *rand.Rand, prefix string, maxAtoms int) *Query {
	preds := []struct {
		name  string
		arity int
	}{{"R", 2}, {"S", 2}, {"U", 1}}
	constant := func() Term { return Const(strconv.Itoa(1 + r.Intn(3))) }
	qq := &Query{Name: "Q"}
	var vars []Term
	for range 1 + r.Intn(maxAtoms) {
		p := preds[r.Intn(len(preds))]
		a := Atom{Pred: p.name}
		for range p.arity {
			if r.Intn(4) == 0 {
				a.Args = append(a.Args, constant())
				continue
			}
			x := Var(prefix + strconv.Itoa(r.Intn(4)))
			a.Args = append(a.Args, x)
			vars = append(vars, x)
		}
		qq.Atoms = append(qq.Atoms, a)
	}
	bodyTerm := func() Term {
		if len(vars) == 0 || r.Intn(4) == 0 {
			return constant()
		}
		return vars[r.Intn(len(vars))]
	}
	for range r.Intn(3) {
		op := []CompOp{OpEq, OpNe, OpLt}[r.Intn(3)]
		qq.Comps = append(qq.Comps, Comparison{L: bodyTerm(), Op: op, R: bodyTerm()})
	}
	for range r.Intn(3) {
		qq.Head = append(qq.Head, bodyTerm())
	}
	return qq
}

// renameApart renames the variables X0–X3 of an oracle query to Y0–Y3.
func renameApart(qq *Query) *Query {
	s := make(Subst)
	for i := range 4 {
		s["X"+strconv.Itoa(i)] = Var("Y" + strconv.Itoa(i))
	}
	return qq.Apply(s)
}

// oraclePair draws (q1, q2) of at most four atoms each: two independent
// queries over the same variable names; a query renamed apart and extended
// with the atom and comparisons of another, beside the query (containment
// mostly holds); or a query renamed apart beside itself with more
// comparisons (containment holds when they are implied).
func oraclePair(r *rand.Rand) (*Query, *Query) {
	switch r.Intn(3) {
	case 0:
		return oracleQuery(r, "X", 4), oracleQuery(r, "X", 4)
	case 1:
		base, extra := oracleQuery(r, "X", 3), oracleQuery(r, "Y", 1)
		q1 := renameApart(base)
		q1.Atoms = append(q1.Atoms, extra.Atoms...)
		q1.Comps = append(q1.Comps, extra.Comps...)
		return q1, base
	default:
		base := oracleQuery(r, "X", 4)
		q2 := base.Clone()
		q2.Comps = append(q2.Comps, oracleQuery(r, "X", 4).Comps...)
		if q2.Validate() != nil {
			q2 = base
		}
		return renameApart(base), q2
	}
}

// unify extends h so that ts map onto us term by term.
func unify(ts, us []Term, h Subst) bool {
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

// bruteHomomorphism decides FindHomomorphism(from, onto) by trying every
// assignment of from's atoms to onto's, unifying the heads and the assigned
// atoms, and applying ComparisonsImplied to the complete mapping.
func bruteHomomorphism(from, onto *Query) bool {
	image := make([]int, len(from.Atoms))
	h := make(Subst)
	for {
		clear(h)
		ok := unify(from.Head, onto.Head, h)
		for i, a := range from.Atoms {
			b := onto.Atoms[image[i]]
			ok = ok && a.Pred == b.Pred && unify(a.Args, b.Args, h)
		}
		if ok && ComparisonsImplied(from.Comps, onto.Comps, h) {
			return true
		}
		// The next assignment, as an odometer over onto's atom indices.
		i := 0
		for ; i < len(image); i++ {
			if image[i]++; image[i] < len(onto.Atoms) {
				break
			}
			image[i] = 0
		}
		if i == len(image) {
			return false
		}
	}
}

// isHomomorphism checks a mapping FindHomomorphism returned.
func isHomomorphism(from, onto *Query, h Subst) bool {
	for i, t := range from.Head {
		if !h.Apply(t).Equal(onto.Head[i]) {
			return false
		}
	}
	for _, a := range from.Atoms {
		img := h.ApplyAtom(a)
		found := false
		for _, b := range onto.Atoms {
			found = found || img.Equal(b)
		}
		if !found {
			return false
		}
	}
	return ComparisonsImplied(from.Comps, onto.Comps, h)
}

// TestHomomorphismMatchesBruteForce holds the one search to a brute-force
// reference on 12,000 seeded pairs of small queries with =, != and <:
// FindHomomorphism on the pair as drawn, and Contains, which normalizes
// both queries first, against the reference on the normalized pair.
func TestHomomorphismMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(46))
	var found, contained int
	for i := range 12000 {
		q1, q2 := oraclePair(r)
		if r.Intn(2) == 0 {
			q1, q2 = q2, q1
		}
		h, ok := FindHomomorphism(q2, q1)
		if want := bruteHomomorphism(q2, q1); ok != want {
			t.Fatalf("pair %d: FindHomomorphism(%v, %v) = %v, reference %v", i, q2, q1, ok, want)
		}
		if ok && !isHomomorphism(q2, q1, h) {
			t.Fatalf("pair %d: FindHomomorphism(%v, %v) returned %v, not a homomorphism", i, q2, q1, h)
		}
		want := true
		if n1, _, sat1 := q1.NormalizeConstants(); sat1 {
			n2, _, sat2 := q2.NormalizeConstants()
			want = sat2 && bruteHomomorphism(n2, n1)
		}
		got := Contains(q1, q2)
		if got != want {
			t.Fatalf("pair %d: Contains(%v, %v) = %v, reference %v", i, q1, q2, got, want)
		}
		if ok {
			found++
		}
		if got {
			contained++
		}
	}
	// Both answers must be common, or the agreement says little.
	if found < 2000 || found > 10000 || contained < 2000 || contained > 10000 {
		t.Fatalf("unbalanced draw: %d homomorphisms, %d containments of 12000", found, contained)
	}
}
