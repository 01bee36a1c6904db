package provenance

import (
	"slices"
	"sort"
	"strings"
)

// Monomial is a finite multiset of tokens (a product x1^e1 · … · xk^ek in
// the free semiring ℕ[X]).
type Monomial struct {
	exps map[Token]int
}

// NewMonomial builds a monomial from tokens (repeats raise exponents).
func NewMonomial(tokens ...Token) Monomial {
	m := Monomial{exps: make(map[Token]int, len(tokens))}
	for _, t := range tokens {
		m.exps[t]++
	}
	return m
}

// One returns the empty monomial (the multiplicative unit).
func MonomialOne() Monomial { return Monomial{exps: map[Token]int{}} }

// Times multiplies two monomials (multiset union).
func (m Monomial) Times(n Monomial) Monomial {
	out := Monomial{exps: make(map[Token]int, len(m.exps)+len(n.exps))}
	for t, e := range m.exps {
		out.exps[t] += e
	}
	for t, e := range n.exps {
		out.exps[t] += e
	}
	return out
}

// Degree returns the total degree (with multiplicity).
func (m Monomial) Degree() int {
	d := 0
	for _, e := range m.exps {
		d += e
	}
	return d
}

// Support returns the distinct tokens in sorted order.
func (m Monomial) Support() []Token {
	out := make([]Token, 0, len(m.exps))
	for t := range m.exps {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Exp returns the exponent of a token.
func (m Monomial) Exp(t Token) int { return m.exps[t] }

// Flatten returns the monomial with all exponents clipped to 1 (idempotent
// multiplication, as in the why/posbool semirings).
func (m Monomial) Flatten() Monomial {
	out := Monomial{exps: make(map[Token]int, len(m.exps))}
	for t := range m.exps {
		out.exps[t] = 1
	}
	return out
}

// Key returns a canonical encoding of the monomial.
func (m Monomial) Key() string {
	toks := m.Support()
	parts := make([]string, 0, len(toks))
	for _, t := range toks {
		parts = append(parts, string(t)+"^"+itoa(m.exps[t]))
	}
	return strings.Join(parts, "·")
}

// String renders the monomial, e.g. "x·y^2"; the unit renders as "1".
func (m Monomial) String() string {
	if len(m.exps) == 0 {
		return "1"
	}
	toks := m.Support()
	parts := make([]string, 0, len(toks))
	for _, t := range toks {
		if e := m.exps[t]; e == 1 {
			parts = append(parts, string(t))
		} else {
			parts = append(parts, string(t)+"^"+itoa(e))
		}
	}
	return strings.Join(parts, "·")
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

// Poly is a provenance polynomial: an ℕ-linear combination of monomials.
// It is the free commutative semiring over tokens; any Semiring receives it
// homomorphically via EvalPoly.
type Poly struct {
	coeff map[string]int
	mono  map[string]Monomial
}

// NewPoly returns the zero polynomial.
func NewPoly() Poly {
	return Poly{coeff: map[string]int{}, mono: map[string]Monomial{}}
}

// PolyFromMonomial returns a polynomial holding one monomial with
// coefficient 1.
func PolyFromMonomial(m Monomial) Poly {
	p := NewPoly()
	p.Add(m, 1)
	return p
}

// PolyFromToken returns the polynomial consisting of the single token.
func PolyFromToken(t Token) Poly { return PolyFromMonomial(NewMonomial(t)) }

// Add adds coefficient·m into the polynomial (mutating).
func (p *Poly) Add(m Monomial, coefficient int) {
	k := m.Key()
	if _, ok := p.mono[k]; !ok {
		p.mono[k] = m
	}
	p.coeff[k] += coefficient
	if p.coeff[k] == 0 {
		delete(p.coeff, k)
		delete(p.mono, k)
	}
}

// Plus returns p + q.
func (p Poly) Plus(q Poly) Poly {
	out := NewPoly()
	for k, c := range p.coeff {
		out.Add(p.mono[k], c)
	}
	for k, c := range q.coeff {
		out.Add(q.mono[k], c)
	}
	return out
}

// Times returns p · q (distributing over monomials).
func (p Poly) Times(q Poly) Poly {
	out := NewPoly()
	for k1, c1 := range p.coeff {
		for k2, c2 := range q.coeff {
			out.Add(p.mono[k1].Times(q.mono[k2]), c1*c2)
		}
	}
	return out
}

// IsZero reports whether the polynomial has no terms.
func (p Poly) IsZero() bool { return len(p.coeff) == 0 }

// NumMonomials returns the number of distinct monomials.
func (p Poly) NumMonomials() int { return len(p.coeff) }

// Term is one monomial of a polynomial with its canonical key and its
// coefficient.
type Term struct {
	Key   string
	Mono  Monomial
	Coeff int
}

// Terms returns the polynomial's terms in deterministic (key) order.
func (p Poly) Terms() []Term {
	out := make([]Term, 0, len(p.mono))
	for k, m := range p.mono {
		out = append(out, Term{Key: k, Mono: m, Coeff: p.coeff[k]})
	}
	slices.SortFunc(out, func(a, b Term) int { return strings.Compare(a.Key, b.Key) })
	return out
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
func (p Poly) Coefficient(m Monomial) int { return p.coeff[m.Key()] }

// Equal reports structural equality of polynomials.
func (p Poly) Equal(q Poly) bool {
	if len(p.coeff) != len(q.coeff) {
		return false
	}
	for k, c := range p.coeff {
		if q.coeff[k] != c {
			return false
		}
	}
	return true
}

// Idempotent returns the polynomial with all coefficients and exponents
// clipped to 1 — the image of p in the why-provenance quotient. This is the
// "assume + is idempotent" step of the paper's Example 3.4.
func (p Poly) Idempotent() Poly {
	out := NewPoly()
	for k := range p.coeff {
		m := p.mono[k].Flatten()
		if out.Coefficient(m) == 0 {
			out.Add(m, 1)
		}
	}
	return out
}

// String renders the polynomial deterministically, e.g. "2·x·y + z".
func (p Poly) String() string {
	if p.IsZero() {
		return "0"
	}
	monos := p.Monomials()
	parts := make([]string, 0, len(monos))
	for _, m := range monos {
		c := p.coeff[m.Key()]
		switch {
		case c == 1:
			parts = append(parts, m.String())
		default:
			parts = append(parts, itoa(c)+"·"+m.String())
		}
	}
	return strings.Join(parts, " + ")
}

// EvalPoly specializes the polynomial into a concrete semiring by mapping
// tokens through val — the unique semiring homomorphism extending val.
func EvalPoly[T any](p Poly, sr Semiring[T], val func(Token) T) T {
	acc := sr.Zero()
	for _, m := range p.Monomials() {
		term := sr.One()
		for _, t := range m.Support() {
			for i := 0; i < m.Exp(t); i++ {
				term = sr.Times(term, val(t))
			}
		}
		c := p.Coefficient(m)
		for i := 0; i < c; i++ {
			acc = sr.Plus(acc, term)
		}
	}
	return acc
}

// PolySemiring exposes Poly as a Semiring (the free one).
type PolySemiring struct{}

// Name implements Semiring.
func (PolySemiring) Name() string { return "poly" }

// Zero implements Semiring.
func (PolySemiring) Zero() Poly { return NewPoly() }

// One implements Semiring.
func (PolySemiring) One() Poly { return PolyFromMonomial(MonomialOne()) }

// Plus implements Semiring.
func (PolySemiring) Plus(a, b Poly) Poly { return a.Plus(b) }

// Times implements Semiring.
func (PolySemiring) Times(a, b Poly) Poly { return a.Times(b) }

// Equal implements Semiring.
func (PolySemiring) Equal(a, b Poly) bool { return a.Equal(b) }
