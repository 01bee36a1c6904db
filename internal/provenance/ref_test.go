package provenance

// The map-based Monomial and Poly this package used before its algebra went
// flat, kept verbatim (names aside) as the reference the flat one is checked
// against: every key, every String spelling, every order must stay
// byte-identical. It builds a map per monomial and per polynomial and a
// sorted, joined key string per Key call — do not use it for anything else.

import (
	"slices"
	"sort"
	"strings"
)

type refMonomial struct{ exps map[Token]int }

func newRefMonomial(tokens ...Token) refMonomial {
	m := refMonomial{exps: make(map[Token]int, len(tokens))}
	for _, t := range tokens {
		m.exps[t]++
	}
	return m
}

func (m refMonomial) Times(n refMonomial) refMonomial {
	out := refMonomial{exps: make(map[Token]int, len(m.exps)+len(n.exps))}
	for t, e := range m.exps {
		out.exps[t] += e
	}
	for t, e := range n.exps {
		out.exps[t] += e
	}
	return out
}

func (m refMonomial) Degree() int {
	d := 0
	for _, e := range m.exps {
		d += e
	}
	return d
}

func (m refMonomial) Support() []Token {
	out := make([]Token, 0, len(m.exps))
	for t := range m.exps {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (m refMonomial) Exp(t Token) int { return m.exps[t] }

func (m refMonomial) Flatten() refMonomial {
	out := refMonomial{exps: make(map[Token]int, len(m.exps))}
	for t := range m.exps {
		out.exps[t] = 1
	}
	return out
}

func (m refMonomial) Key() string {
	toks := m.Support()
	parts := make([]string, 0, len(toks))
	for _, t := range toks {
		parts = append(parts, string(t)+"^"+itoa(m.exps[t]))
	}
	return strings.Join(parts, "·")
}

func (m refMonomial) String() string {
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

type refPoly struct {
	coeff map[string]int
	mono  map[string]refMonomial
}

func newRefPoly() refPoly {
	return refPoly{coeff: map[string]int{}, mono: map[string]refMonomial{}}
}

func (p *refPoly) Add(m refMonomial, coefficient int) {
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

func (p refPoly) Plus(q refPoly) refPoly {
	out := newRefPoly()
	for k, c := range p.coeff {
		out.Add(p.mono[k], c)
	}
	for k, c := range q.coeff {
		out.Add(q.mono[k], c)
	}
	return out
}

func (p refPoly) Times(q refPoly) refPoly {
	out := newRefPoly()
	for k1, c1 := range p.coeff {
		for k2, c2 := range q.coeff {
			out.Add(p.mono[k1].Times(q.mono[k2]), c1*c2)
		}
	}
	return out
}

func (p refPoly) IsZero() bool { return len(p.coeff) == 0 }

type refTerm struct {
	Key   string
	Mono  refMonomial
	Coeff int
}

func (p refPoly) Terms() []refTerm {
	out := make([]refTerm, 0, len(p.mono))
	for k, m := range p.mono {
		out = append(out, refTerm{Key: k, Mono: m, Coeff: p.coeff[k]})
	}
	slices.SortFunc(out, func(a, b refTerm) int { return strings.Compare(a.Key, b.Key) })
	return out
}

func (p refPoly) Coefficient(m refMonomial) int { return p.coeff[m.Key()] }

func (p refPoly) Equal(q refPoly) bool {
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

func (p refPoly) Idempotent() refPoly {
	out := newRefPoly()
	for k := range p.coeff {
		m := p.mono[k].Flatten()
		if out.Coefficient(m) == 0 {
			out.Add(m, 1)
		}
	}
	return out
}

func (p refPoly) String() string {
	if p.IsZero() {
		return "0"
	}
	terms := p.Terms()
	parts := make([]string, 0, len(terms))
	for _, t := range terms {
		switch c := t.Coeff; {
		case c == 1:
			parts = append(parts, t.Mono.String())
		default:
			parts = append(parts, itoa(c)+"·"+t.Mono.String())
		}
	}
	return strings.Join(parts, " + ")
}
