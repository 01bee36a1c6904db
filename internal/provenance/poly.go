// Package provenance implements the free commutative semiring of provenance
// polynomials ℕ[X] of Green, Karvounarakis and Tannen (PODS 2007), which the
// paper's citation model (§3.1) builds on: a Token annotates one input, a
// Monomial is the joint use (·) of tokens, and a Poly is an alternative use
// (+) of monomials with their multiplicities. The citation policy interprets
// these polynomials; this package builds, compares and renders them.
//
// # Representation
//
// The algebra is flat: no map and no sorted, joined key string is built per
// monomial or per polynomial. A Monomial is its distinct tokens in sorted
// order beside their exponents, with the canonical Key made once, at
// construction; it is immutable and copies share its slices. A Poly is its
// Terms in key order behind one pointer: copies share them, and an Add
// through one shows in all. Add only appends (or bumps the term added last);
// the next read merges equal keys, drops cancelled terms and sorts.
//
// Sharing is safe under one contract. Monomial.Support and Poly.Terms return
// the value's own slices: read-only. And a Poly is frozen once it leaves the
// stage that built and read it — the citation pipeline's gather stage — like
// format's records: no Add afterwards, so concurrent readers of a cached
// citation find merged terms and never write.
package provenance

import (
	"slices"
	"strings"
)

// Token is a base annotation attached to an input tuple.
type Token string

// Monomial is a finite multiset of tokens (a product x1^e1 · … · xk^ek in
// the free semiring ℕ[X]). Immutable; see the package comment.
type Monomial struct {
	toks []Token // distinct, sorted
	exps []int   // aligned with toks, every exponent ≥ 1
	key  string
}

// NewMonomial builds a monomial from tokens (repeats raise exponents).
func NewMonomial(tokens ...Token) Monomial {
	toks := slices.Clone(tokens)
	slices.Sort(toks)
	exps := make([]int, 0, len(toks))
	for i, t := range toks {
		if i > 0 && toks[i-1] == t {
			exps[len(exps)-1]++
		} else {
			exps = append(exps, 1)
		}
	}
	return newMonomial(slices.Compact(toks), exps)
}

// newMonomial keeps toks — distinct, sorted — and their exponents.
func newMonomial(toks []Token, exps []int) Monomial {
	return Monomial{toks: toks, exps: exps, key: spell(toks, exps, true)}
}

// spell writes a monomial out, "x^1·y^2" with unit exponents and "x·y^2"
// without.
func spell(toks []Token, exps []int, units bool) string {
	n := 0
	for _, t := range toks {
		n += len(t) + len("^1·")
	}
	var sb strings.Builder
	sb.Grow(n)
	for i, t := range toks {
		if i > 0 {
			sb.WriteString("·")
		}
		sb.WriteString(string(t))
		if units || exps[i] != 1 {
			sb.WriteByte('^')
			sb.WriteString(itoa(exps[i]))
		}
	}
	return sb.String()
}

// One returns the empty monomial (the multiplicative unit).
func MonomialOne() Monomial { return Monomial{} }

// Times multiplies two monomials (multiset union).
func (m Monomial) Times(n Monomial) Monomial {
	toks := slices.Concat(m.toks, n.toks)
	slices.Sort(toks)
	toks = slices.Compact(toks)
	exps := make([]int, len(toks))
	for i, t := range toks {
		exps[i] = m.Exp(t) + n.Exp(t)
	}
	return newMonomial(toks, exps)
}

// Degree returns the total degree (with multiplicity).
func (m Monomial) Degree() int {
	d := 0
	for _, e := range m.exps {
		d += e
	}
	return d
}

// Support returns the distinct tokens in sorted order. The slice is the
// monomial's own: read-only.
func (m Monomial) Support() []Token { return m.toks }

// Exp returns the exponent of a token.
func (m Monomial) Exp(t Token) int {
	if i, ok := slices.BinarySearch(m.toks, t); ok {
		return m.exps[i]
	}
	return 0
}

// flat reports whether every exponent is 1.
func (m Monomial) flat() bool { return m.Degree() == len(m.toks) }

// Flatten returns the monomial with all exponents clipped to 1 (idempotent
// multiplication, as in why-provenance).
func (m Monomial) Flatten() Monomial {
	if m.flat() {
		return m
	}
	return newMonomial(m.toks, slices.Repeat([]int{1}, len(m.toks)))
}

// Key returns a canonical encoding of the monomial.
func (m Monomial) Key() string { return m.key }

// String renders the monomial, e.g. "x·y^2"; the unit renders as "1".
func (m Monomial) String() string {
	if len(m.toks) == 0 {
		return "1"
	}
	return spell(m.toks, m.exps, false)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// Poly is a provenance polynomial: an ℕ-linear combination of monomials, an
// element of the free commutative semiring over tokens. Copies share one body
// (package comment); Add is the only mutation, and a function returning a new
// polynomial merges it.
type Poly struct{ b *polyBody }

// polyBody holds a polynomial's terms. The first clean of them are merged:
// one per key, none with a zero coefficient, in key order. Add appends behind
// them; the next read merges the whole.
type polyBody struct {
	terms []Term
	clean int
}

// NewPoly returns the zero polynomial.
func NewPoly() Poly { return Poly{b: &polyBody{}} }

// PolyFromMonomial returns the polynomial 1·m.
func PolyFromMonomial(m Monomial) Poly {
	return Poly{b: &polyBody{terms: []Term{{Key: m.key, Mono: m, Coeff: 1}}, clean: 1}}
}

func compareKey(t Term, key string) int { return strings.Compare(t.Key, key) }

// merged returns the terms merged: what Add appended since the last call is
// sorted and folded into the rest.
func (b *polyBody) merged() []Term {
	if head, tail := b.terms[:b.clean], b.terms[b.clean:]; len(tail) > 0 {
		slices.SortFunc(tail, func(x, y Term) int { return compareKey(x, y.Key) })
		out := make([]Term, 0, len(b.terms))
		for len(head)+len(tail) > 0 {
			var t Term
			if len(tail) == 0 || len(head) > 0 && head[0].Key <= tail[0].Key {
				t, head = head[0], head[1:]
			} else {
				t, tail = tail[0], tail[1:]
			}
			if k := len(out); k > 0 && out[k-1].Key == t.Key {
				out[k-1].Coeff += t.Coeff
			} else {
				out = append(out, t)
			}
		}
		b.terms = slices.DeleteFunc(out, func(t Term) bool { return t.Coeff == 0 })
		b.clean = len(b.terms)
	}
	return b.terms
}

// Add adds coefficient·m into the polynomial (mutating). It costs an append,
// or nothing when m was added last (a single-term polynomial's one monomial);
// appended terms are merged on the next read, and by Add itself once they
// outnumber the merged ones, so repeats of a few monomials never pile up.
func (p *Poly) Add(m Monomial, coefficient int) {
	b := p.b
	n := len(b.terms)
	if n-b.clean > b.clean+16 {
		n = len(b.merged())
	}
	switch {
	case n > 0 && b.terms[n-1].Key == m.key:
		if b.terms[n-1].Coeff += coefficient; b.terms[n-1].Coeff == 0 {
			b.terms, b.clean = b.terms[:n-1], min(b.clean, n-1)
		}
	case coefficient != 0:
		if b.clean == n && (n == 0 || b.terms[n-1].Key < m.key) {
			b.clean++ // in key order still
		}
		b.terms = append(b.terms, Term{Key: m.key, Mono: m, Coeff: coefficient})
	}
}

// collect returns the polynomial of the given terms, merged.
func collect(terms []Term) Poly {
	b := &polyBody{terms: terms}
	b.merged()
	return Poly{b: b}
}

// Plus returns p + q.
func (p Poly) Plus(q Poly) Poly { return collect(slices.Concat(p.Terms(), q.Terms())) }

// Times returns p · q (distributing over monomials).
func (p Poly) Times(q Poly) Poly {
	ps, qs := p.Terms(), q.Terms()
	out := make([]Term, 0, len(ps)*len(qs))
	for _, t1 := range ps {
		for _, t2 := range qs {
			m := t1.Mono.Times(t2.Mono)
			out = append(out, Term{Key: m.key, Mono: m, Coeff: t1.Coeff * t2.Coeff})
		}
	}
	return collect(out)
}

// IsZero reports whether the polynomial has no terms.
func (p Poly) IsZero() bool { return len(p.Terms()) == 0 }

// NumMonomials returns the number of distinct monomials.
func (p Poly) NumMonomials() int { return len(p.Terms()) }

// Term is one monomial of a polynomial with its canonical key and its
// coefficient.
type Term struct {
	Key   string
	Mono  Monomial
	Coeff int
}

// Terms returns the polynomial's terms in deterministic (key) order. The
// slice is the polynomial's own: read-only.
func (p Poly) Terms() []Term {
	if p.b == nil {
		return nil
	}
	return p.b.merged()
}

// Monomials returns the monomials in deterministic (key) order.
func (p Poly) Monomials() []Monomial {
	terms := p.Terms()
	out := make([]Monomial, len(terms))
	for i, t := range terms {
		out[i] = t.Mono
	}
	return out
}

// Coefficient returns the coefficient of a monomial.
func (p Poly) Coefficient(m Monomial) int {
	terms := p.Terms()
	if i, ok := slices.BinarySearchFunc(terms, m.key, compareKey); ok {
		return terms[i].Coeff
	}
	return 0
}

// Equal reports structural equality of polynomials.
func (p Poly) Equal(q Poly) bool {
	return slices.EqualFunc(p.Terms(), q.Terms(), func(a, b Term) bool {
		return a.Key == b.Key && a.Coeff == b.Coeff
	})
}

// Idempotent returns the polynomial with all coefficients and exponents
// clipped to 1 — the image of p in the why-provenance quotient. This is the
// "assume + is idempotent" step of the paper's Example 3.4. A polynomial
// that is its own image is returned as is.
func (p Poly) Idempotent() Poly {
	terms := p.Terms()
	if !slices.ContainsFunc(terms, func(t Term) bool { return t.Coeff != 1 || !t.Mono.flat() }) {
		return p
	}
	flat := make([]Term, len(terms))
	for i, t := range terms {
		m := t.Mono.Flatten()
		flat[i] = Term{Key: m.key, Mono: m, Coeff: 1}
	}
	out := collect(flat)
	for i := range out.b.terms {
		out.b.terms[i].Coeff = 1
	}
	return out
}

// String renders the polynomial deterministically, e.g. "2·x·y + z".
func (p Poly) String() string {
	if p.IsZero() {
		return "0"
	}
	terms := p.Terms()
	parts := make([]string, len(terms))
	for i, t := range terms {
		if parts[i] = t.Mono.String(); t.Coeff != 1 {
			parts[i] = itoa(t.Coeff) + "·" + parts[i]
		}
	}
	return strings.Join(parts, " + ")
}
