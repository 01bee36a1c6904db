package provenance

import (
	"math/rand"
	"testing"
	"testing/quick"
)

var tokenPool = []Token{"x", "y", "z", "w"}

func genTokens(r *rand.Rand) []Token {
	n := r.Intn(3)
	out := make([]Token, n)
	for i := range out {
		out[i] = tokenPool[r.Intn(len(tokenPool))]
	}
	return out
}

// TestPolySemiringLaws checks the commutative-semiring axioms of Plus and
// Times on random polynomials, with NewPoly as 0 and the empty monomial as 1.
func TestPolySemiringLaws(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	gen := func() Poly {
		p := NewPoly()
		for i, n := 0, r.Intn(3); i < n; i++ {
			p.Add(NewMonomial(genTokens(r)...), 1+r.Intn(2))
		}
		return p
	}
	zero, one := NewPoly(), PolyFromMonomial(MonomialOne())
	f := func() bool {
		a, b, c := gen(), gen(), gen()
		// + commutative/associative, 0 neutral.
		if !a.Plus(b).Equal(b.Plus(a)) {
			return false
		}
		if !a.Plus(b).Plus(c).Equal(a.Plus(b.Plus(c))) {
			return false
		}
		if !a.Plus(zero).Equal(a) {
			return false
		}
		// · commutative/associative, 1 neutral, 0 annihilates.
		if !a.Times(b).Equal(b.Times(a)) {
			return false
		}
		if !a.Times(b).Times(c).Equal(a.Times(b.Times(c))) {
			return false
		}
		if !a.Times(one).Equal(a) {
			return false
		}
		if !a.Times(zero).Equal(zero) {
			return false
		}
		// Distributivity.
		return a.Times(b.Plus(c)).Equal(a.Times(b).Plus(a.Times(c)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatalf("poly semiring laws: %v", err)
	}
}

func TestMonomialBasics(t *testing.T) {
	m := NewMonomial("x", "y", "x")
	if m.Degree() != 3 || m.Exp("x") != 2 || m.Exp("y") != 1 {
		t.Fatalf("bad multiset: %v", m)
	}
	if m.String() != "x^2·y" {
		t.Fatalf("render: %s", m.String())
	}
	if m.Flatten().Degree() != 2 {
		t.Fatal("flatten must clip exponents")
	}
	if MonomialOne().String() != "1" {
		t.Fatal("unit renders as 1")
	}
}

func TestPolyStringAndIdempotent(t *testing.T) {
	p := NewPoly()
	p.Add(NewMonomial("x", "y"), 2)
	p.Add(NewMonomial("z"), 1)
	if p.String() != "2·x·y + z" {
		t.Fatalf("render: %s", p.String())
	}
	idem := p.Idempotent()
	if idem.Coefficient(NewMonomial("x", "y")) != 1 {
		t.Fatal("idempotent must clip coefficients")
	}
	if idem.NumMonomials() != 2 {
		t.Fatalf("monomial count: %d", idem.NumMonomials())
	}
}
