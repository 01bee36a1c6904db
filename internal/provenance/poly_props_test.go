package provenance

import (
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
	"time"
)

// The flat algebra against the map-based reference (ref_test.go): op
// sequences drawn from a byte string run on both, and after every op the two
// must agree on everything observable.

// opTokens has repeats of a prefix, an empty token, NUL and core-shaped
// tokens; none holds '^' or '·', which Key does not escape (two different
// monomials could then share a key, and which of them a polynomial keeps
// was never defined).
var opTokens = []Token{"x", "y", "xy", "x y", "", "a\x00b", `v|V1|"11"`, `v|V1|"1"`, `r|Family`, "ü"}

type monoPair struct {
	flat Monomial
	ref  refMonomial
}

type polyPair struct {
	flat Poly
	ref  refPoly
}

func checkMono(t *testing.T, at string, m monoPair) {
	t.Helper()
	if m.flat.Key() != m.ref.Key() || m.flat.String() != m.ref.String() || m.flat.Degree() != m.ref.Degree() {
		t.Fatalf("%s: monomial %q/%q degree %d, reference %q/%q degree %d",
			at, m.flat.Key(), m.flat.String(), m.flat.Degree(), m.ref.Key(), m.ref.String(), m.ref.Degree())
	}
	if !slices.Equal(m.flat.Support(), m.ref.Support()) {
		t.Fatalf("%s: support %q, reference %q", at, m.flat.Support(), m.ref.Support())
	}
	for _, tok := range opTokens {
		if m.flat.Exp(tok) != m.ref.Exp(tok) {
			t.Fatalf("%s: Exp(%q) = %d, reference %d", at, tok, m.flat.Exp(tok), m.ref.Exp(tok))
		}
	}
}

func checkPoly(t *testing.T, at string, p polyPair, monos []monoPair) {
	t.Helper()
	terms, want := p.flat.Terms(), p.ref.Terms()
	if len(terms) != len(want) || p.flat.NumMonomials() != len(want) || p.flat.IsZero() != p.ref.IsZero() {
		t.Fatalf("%s: %d terms (%s), reference %d (%s)", at, len(terms), p.flat, len(want), p.ref)
	}
	for i, w := range want {
		got := terms[i]
		if got.Key != w.Key || got.Coeff != w.Coeff || got.Mono.Key() != w.Key {
			t.Fatalf("%s: term %d is %d·%q, reference %d·%q", at, i, got.Coeff, got.Key, w.Coeff, w.Key)
		}
		checkMono(t, at, monoPair{got.Mono, w.Mono})
		if ms := p.flat.Monomials(); ms[i].Key() != w.Key {
			t.Fatalf("%s: Monomials()[%d] = %q, reference %q", at, i, ms[i].Key(), w.Key)
		}
	}
	if p.flat.String() != p.ref.String() {
		t.Fatalf("%s: String %q, reference %q", at, p.flat.String(), p.ref.String())
	}
	for _, m := range monos {
		if p.flat.Coefficient(m.flat) != p.ref.Coefficient(m.ref) {
			t.Fatalf("%s: Coefficient(%q) = %d, reference %d", at, m.flat.Key(), p.flat.Coefficient(m.flat), p.ref.Coefficient(m.ref))
		}
	}
}

// runPolyOps interprets data as an op sequence over a few monomial and
// polynomial registers. Polynomial registers may alias each other (op 6):
// an Add through one must show in the other, in both implementations.
func runPolyOps(t *testing.T, data []byte) {
	t.Helper()
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	monos := []monoPair{{MonomialOne(), newRefMonomial()}}
	polys := []polyPair{{NewPoly(), newRefPoly()}}
	mono := func() monoPair { return monos[next()%len(monos)] }
	poly := func() polyPair { return polys[next()%len(polys)] }
	keepMono := func(m monoPair) {
		checkMono(t, "monomial", m)
		if m.flat.Degree() <= 12 {
			monos = append(monos, m)
		}
	}
	keepPoly := func(at string, p polyPair) {
		checkPoly(t, at, p, monos)
		if p.flat.NumMonomials() <= 48 {
			polys = append(polys, p)
		}
	}
	for step := 0; len(data) > 0 && step < 200; step++ {
		switch op := next() % 12; op {
		case 0: // NewMonomial, with repeats
			toks := make([]Token, next()%5)
			for i := range toks {
				toks[i] = opTokens[next()%len(opTokens)]
			}
			keepMono(monoPair{NewMonomial(toks...), newRefMonomial(toks...)})
		case 1:
			a, b := mono(), mono()
			keepMono(monoPair{a.flat.Times(b.flat), a.ref.Times(b.ref)})
		case 2:
			a := mono()
			keepMono(monoPair{a.flat.Flatten(), a.ref.Flatten()})
		case 3, 4, 5: // Add: positive, negative, or what cancels the term
			p, m := poly(), mono()
			c := []int{1, 1, 2, 3, -1, -2, 0}[next()%7]
			if op == 5 {
				c = -p.ref.Coefficient(m.ref)
			}
			p.flat.Add(m.flat, c)
			p.ref.Add(m.ref, c)
			checkPoly(t, "Add", p, monos)
		case 6:
			polys = append(polys, poly())
		case 7:
			polys = append(polys, polyPair{NewPoly(), newRefPoly()})
		case 8:
			a, b := poly(), poly()
			keepPoly("Plus", polyPair{a.flat.Plus(b.flat), a.ref.Plus(b.ref)})
		case 9:
			a, b := poly(), poly()
			if a.flat.NumMonomials()*b.flat.NumMonomials() <= 64 {
				keepPoly("Times", polyPair{a.flat.Times(b.flat), a.ref.Times(b.ref)})
			}
		case 10:
			// Not kept: Idempotent hands a polynomial that is its own image
			// back as is, the reference a copy — an Add would tell them apart.
			a := poly()
			checkPoly(t, "Idempotent", polyPair{a.flat.Idempotent(), a.ref.Idempotent()}, monos)
			if idem := a.flat.Idempotent(); !idem.Equal(idem.Idempotent()) {
				t.Fatalf("Idempotent is not idempotent on %s", a.flat)
			}
		case 11:
			a, b := poly(), poly()
			if got, want := a.flat.Equal(b.flat), a.ref.Equal(b.ref); got != want {
				t.Fatalf("Equal(%s, %s) = %v, reference %v", a.flat, b.flat, got, want)
			}
		}
	}
	for _, p := range polys { // aliased registers saw each other's Adds
		checkPoly(t, "end", p, monos)
	}
}

func TestPolyOpsMatchReference(t *testing.T) {
	r := rand.New(rand.NewSource(18))
	for i := 0; i < 400; i++ {
		data := make([]byte, 16+r.Intn(400))
		r.Read(data)
		runPolyOps(t, data)
	}
}

func FuzzPolyOps(f *testing.F) {
	f.Add([]byte{0, 2, 0, 0, 3, 0, 1, 0, 3, 0, 1, 0, 5, 0, 1})
	f.Add([]byte{0, 3, 1, 1, 2, 0, 1, 4, 3, 0, 1, 4, 8, 0, 0, 9, 1, 1, 10, 1, 6, 0, 3, 1, 1, 2})
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 8; i++ {
		data := make([]byte, 64)
		r.Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) { runPolyOps(t, data) })
}

// TestPolyAddScales: a boolean query over a large instance adds every binding's
// monomial to one polynomial, so Add must stay (amortised) logarithmic — a
// sorted-slice insert makes 200k distinct monomials cost over 100× what 20k
// cost. n log n alone is 12×, and 17 MB of terms no longer sit in cache the
// way 1.7 MB do: measured here, the flat polynomial reads 16–20×, and the
// map-based reference 14–24× for the same Adds and read.
func TestPolyAddScales(t *testing.T) {
	monos := make([]Monomial, 200_000)
	r := rand.New(rand.NewSource(3))
	for i, j := range r.Perm(len(monos)) {
		monos[i] = NewMonomial(Token("v|V|" + itoa(j+1)))
	}
	// Timed with the collector off: what a cycle costs follows the 200k
	// monomials this test keeps alive, not the n it is adding.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	cost := func(n, runs int) time.Duration {
		best := time.Duration(1 << 62)
		for range runs {
			runtime.GC()
			t0 := time.Now()
			p := NewPoly()
			for _, m := range monos[:n] {
				p.Add(m, 1)
			}
			if got := len(p.Terms()); got != n {
				t.Fatalf("%d terms after %d Adds", got, n)
			}
			best = min(best, time.Since(t0))
		}
		return best
	}
	small, large := cost(20_000, 10), cost(200_000, 3)
	t.Logf("20k Adds and a read: %v; 200k: %v (%.1f×)", small, large, float64(large)/float64(small))
	if large > 40*small {
		t.Fatalf("200k distinct monomials cost %v, 20k cost %v: more than 40×", large, small)
	}
}
