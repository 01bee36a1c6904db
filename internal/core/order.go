package core

import (
	"citare/internal/cache"
	"citare/internal/cq"
	"citare/internal/provenance"
)

// Order is a partial order ≤ over citation monomials (§3.4 of the paper).
// LessEq(a, b) means a ≤ b: b is at least as preferable as a. Implementations
// must be reflexive and transitive.
type Order interface {
	Name() string
	LessEq(a, b provenance.Monomial) bool
}

// ByViewCount prefers monomials with fewer view multiplicands (Example 3.6):
// M1 ≤ M2 iff the number of view tokens in M1 is ≥ that of M2. Base-relation
// tokens are ignored ("we only cite views, not base relations").
type ByViewCount struct{}

// Name implements Order.
func (ByViewCount) Name() string { return "view-count" }

// LessEq implements Order.
func (ByViewCount) LessEq(a, b provenance.Monomial) bool {
	return tokenCount(a, "v|") >= tokenCount(b, "v|")
}

// ByUncovered prefers monomials with fewer C_R atoms (Example 3.7): M1 ≤ M2
// iff M1 has at least as many base-relation tokens as M2.
type ByUncovered struct{}

// Name implements Order.
func (ByUncovered) Name() string { return "uncovered" }

// LessEq implements Order.
func (ByUncovered) LessEq(a, b provenance.Monomial) bool {
	return tokenCount(a, "r|") >= tokenCount(b, "r|")
}

// ByViewInclusion prefers citations stemming from more specific ("best fit")
// views, per Example 3.8: for tokens a (from view instance V1) and b (from
// V2), a ≤ b iff V2 ⊆ V1 as instantiated queries. The order lifts to
// monomials by first normalizing each monomial (a·b = a if b ≤ a) and then
// requiring every token of the first to be dominated by some token of the
// second.
//
// Every concurrent Cite asks the order on the engine's Policy: the comparisons
// it remembers, keyed by token pairs (data values), sit in a bounded shared LRU.
type ByViewInclusion struct {
	views map[string]*CitationView
	cache *cache.Sharded[bool]
}

// NewByViewInclusion builds the inclusion order over the given views.
func NewByViewInclusion(views []*CitationView) *ByViewInclusion {
	m := make(map[string]*CitationView, len(views))
	for _, v := range views {
		m[v.Name()] = v
	}
	return &ByViewInclusion{views: m, cache: cache.NewSharded[bool](8, 4096)}
}

// Name implements Order.
func (o *ByViewInclusion) Name() string { return "view-inclusion" }

// tokenLessEq reports a ≤ b: b's instantiated view is contained in a's.
func (o *ByViewInclusion) tokenLessEq(a, b provenance.Token) bool {
	if a == b {
		return true
	}
	res, _, _ := o.cache.GetOrCompute(string(a)+"\x00"+string(b), func() (bool, error) {
		return o.tokenLessEqUncached(a, b), nil
	})
	return res
}

func (o *ByViewInclusion) tokenLessEqUncached(a, b provenance.Token) bool {
	ta, errA := DecodeToken(a)
	tb, errB := DecodeToken(b)
	if errA != nil || errB != nil {
		return false
	}
	if ta.Kind != ViewToken || tb.Kind != ViewToken {
		// C_R markers are incomparable under inclusion (they do not stem
		// from citation functions).
		return false
	}
	qa := o.instantiated(ta)
	qb := o.instantiated(tb)
	if qa == nil || qb == nil {
		return false
	}
	return cq.Contains(qb, qa) // V_b ⊆ V_a  ⇒  a ≤ b
}

func (o *ByViewInclusion) instantiated(t Token) *cq.Query {
	v := o.views[t.Name]
	if v == nil {
		return nil
	}
	inst, err := v.InstantiatedDef(t.Params)
	if err != nil {
		return nil
	}
	return inst
}

// normalizeMonomial drops tokens dominated by other tokens in the same
// product (a·b = a if b ≤ a, Example 3.8).
func (o *ByViewInclusion) normalizeMonomial(m provenance.Monomial) []provenance.Token {
	toks := m.Support()
	var out []provenance.Token
	for i, t := range toks {
		dominated := false
		for j, u := range toks {
			if i == j {
				continue
			}
			// t dominated by u when t ≤ u strictly; ties keep the first.
			if o.tokenLessEq(t, u) && !o.tokenLessEq(u, t) {
				dominated = true
				break
			}
			if o.tokenLessEq(t, u) && o.tokenLessEq(u, t) && j < i {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, t)
		}
	}
	return out
}

// LessEq implements Order: a1···an ≤ b1···bm iff for every ai there exists
// bj with ai ≤ bj (after per-monomial normalization).
func (o *ByViewInclusion) LessEq(a, b provenance.Monomial) bool {
	as := o.normalizeMonomial(a)
	bs := o.normalizeMonomial(b)
	for _, ai := range as {
		found := false
		for _, bj := range bs {
			if o.tokenLessEq(ai, bj) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// Orders combines several orders lexicographically-ish: a ≤ b iff a ≤ b
// under every component (a conservative conjunction that stays a partial
// order).
type Orders []Order

// LessEq reports a ≤ b under the conjunction of all component orders. An
// empty Orders relates nothing (no pruning).
func (os Orders) LessEq(a, b provenance.Monomial) bool {
	if len(os) == 0 {
		return false
	}
	for _, o := range os {
		if !o.LessEq(a, b) {
			return false
		}
	}
	return true
}

// NormalForm removes every monomial M2 for which a distinct monomial M1 with
// M2 ≤ M1 (and not M1 ≤ M2) exists — the paper's polynomial normal form.
// Ties (mutual domination) keep the deterministically-first monomial.
// Coefficients of kept monomials are preserved.
func (os Orders) NormalForm(p provenance.Poly) provenance.Poly {
	if len(os) == 0 || p.NumMonomials() <= 1 {
		return p
	}
	terms := p.Terms()
	out := provenance.NewPoly()
	for i, t := range terms {
		dominated := false
		for j, u := range terms {
			if i == j {
				continue
			}
			le := os.LessEq(t.Mono, u.Mono)
			ge := os.LessEq(u.Mono, t.Mono)
			if le && !ge {
				dominated = true
				break
			}
			if le && ge && j < i {
				dominated = true
				break
			}
		}
		if !dominated {
			out.Add(t.Mono, t.Coeff) // in key order: out stays sorted
		}
	}
	return out
}

// PolyLessEq lifts the order to polynomials: p2 ≤ p1 iff every monomial in
// NF(p2) is dominated by some monomial in NF(p1) (§3.4).
func (os Orders) PolyLessEq(p2, p1 provenance.Poly) bool {
	if len(os) == 0 {
		return false
	}
	n2 := os.NormalForm(p2)
	n1 := os.NormalForm(p1)
	for _, t2 := range n2.Terms() {
		found := false
		for _, t1 := range n1.Terms() {
			if os.LessEq(t2.Mono, t1.Mono) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// MaximalPolys keeps only the +R-maximal polynomials: p1 +R p2 = p1 when
// p2 ≤ p1. Ties keep the first. Indices into the input are returned so
// callers can keep companion data aligned.
func (os Orders) MaximalPolys(ps []provenance.Poly) []int {
	if len(os) == 0 {
		out := make([]int, len(ps))
		for i := range ps {
			out[i] = i
		}
		return out
	}
	var out []int
	for i := range ps {
		dominated := false
		for j := range ps {
			if i == j {
				continue
			}
			le := os.PolyLessEq(ps[i], ps[j])
			ge := os.PolyLessEq(ps[j], ps[i])
			if le && !ge {
				dominated = true
				break
			}
			if le && ge && j < i {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, i)
		}
	}
	return out
}
