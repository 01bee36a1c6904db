// Package provenance implements commutative-semiring provenance in the style
// of Green, Karvounarakis and Tannen (PODS 2007), which the paper's citation
// model (§3.1) builds on: annotations are combined with · for joint use and
// + for alternative use. The package provides the free semiring of
// provenance polynomials ℕ[X], standard concrete semirings (Boolean, counting,
// lineage, why-provenance, PosBool, tropical), semiring-annotated query
// evaluation, and the homomorphic specialization of polynomials into any
// concrete semiring.
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
	"sort"
	"strings"
)

// Token is a base annotation attached to an input tuple.
type Token string

// Semiring is a commutative semiring (K, +, ·, 0, 1). Implementations must
// satisfy: + and · commutative and associative, 0 neutral for +, 1 neutral
// for ·, · distributes over +, and 0 annihilates (0·a = 0).
type Semiring[T any] interface {
	Name() string
	Zero() T
	One() T
	Plus(a, b T) T
	Times(a, b T) T
	Equal(a, b T) bool
}

// ---------------------------------------------------------------------------
// Boolean semiring ({false,true}, ∨, ∧): "is the tuple in the result?"

// BoolSemiring is the Boolean semiring.
type BoolSemiring struct{}

// Name implements Semiring.
func (BoolSemiring) Name() string { return "bool" }

// Zero implements Semiring.
func (BoolSemiring) Zero() bool { return false }

// One implements Semiring.
func (BoolSemiring) One() bool { return true }

// Plus implements Semiring.
func (BoolSemiring) Plus(a, b bool) bool { return a || b }

// Times implements Semiring.
func (BoolSemiring) Times(a, b bool) bool { return a && b }

// Equal implements Semiring.
func (BoolSemiring) Equal(a, b bool) bool { return a == b }

// ---------------------------------------------------------------------------
// Counting semiring (ℕ, +, ×): bag multiplicity.

// NatSemiring is the counting semiring.
type NatSemiring struct{}

// Name implements Semiring.
func (NatSemiring) Name() string { return "nat" }

// Zero implements Semiring.
func (NatSemiring) Zero() int { return 0 }

// One implements Semiring.
func (NatSemiring) One() int { return 1 }

// Plus implements Semiring.
func (NatSemiring) Plus(a, b int) int { return a + b }

// Times implements Semiring.
func (NatSemiring) Times(a, b int) int { return a * b }

// Equal implements Semiring.
func (NatSemiring) Equal(a, b int) bool { return a == b }

// ---------------------------------------------------------------------------
// Tropical semiring (ℕ∪{∞}, min, +): cost of the cheapest derivation.

// TropVal is a tropical value; Inf is the semiring zero.
type TropVal struct {
	Inf bool
	N   int
}

// TropicalSemiring is the (min, +) semiring.
type TropicalSemiring struct{}

// Name implements Semiring.
func (TropicalSemiring) Name() string { return "tropical" }

// Zero implements Semiring.
func (TropicalSemiring) Zero() TropVal { return TropVal{Inf: true} }

// One implements Semiring.
func (TropicalSemiring) One() TropVal { return TropVal{N: 0} }

// Plus implements Semiring (min).
func (TropicalSemiring) Plus(a, b TropVal) TropVal {
	if a.Inf {
		return b
	}
	if b.Inf {
		return a
	}
	if a.N <= b.N {
		return a
	}
	return b
}

// Times implements Semiring (+).
func (TropicalSemiring) Times(a, b TropVal) TropVal {
	if a.Inf || b.Inf {
		return TropVal{Inf: true}
	}
	return TropVal{N: a.N + b.N}
}

// Equal implements Semiring.
func (TropicalSemiring) Equal(a, b TropVal) bool {
	return a.Inf == b.Inf && (a.Inf || a.N == b.N)
}

// ---------------------------------------------------------------------------
// Lineage semiring: which input tuples contributed at all.

// Lineage is a set of tokens with a distinguished bottom (the semiring zero).
type Lineage struct {
	Bot bool
	Set map[Token]bool
}

// LineageOf builds a lineage value holding the given tokens.
func LineageOf(tokens ...Token) Lineage {
	s := make(map[Token]bool, len(tokens))
	for _, t := range tokens {
		s[t] = true
	}
	return Lineage{Set: s}
}

// Tokens returns the sorted token list.
func (l Lineage) Tokens() []Token {
	out := make([]Token, 0, len(l.Set))
	for t := range l.Set {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// LineageSemiring computes lineage: both + and · are union.
type LineageSemiring struct{}

// Name implements Semiring.
func (LineageSemiring) Name() string { return "lineage" }

// Zero implements Semiring.
func (LineageSemiring) Zero() Lineage { return Lineage{Bot: true} }

// One implements Semiring.
func (LineageSemiring) One() Lineage { return Lineage{Set: map[Token]bool{}} }

func lineageUnion(a, b Lineage) Lineage {
	s := make(map[Token]bool, len(a.Set)+len(b.Set))
	for t := range a.Set {
		s[t] = true
	}
	for t := range b.Set {
		s[t] = true
	}
	return Lineage{Set: s}
}

// Plus implements Semiring: union, with ⊥ as identity.
func (LineageSemiring) Plus(a, b Lineage) Lineage {
	if a.Bot {
		return b
	}
	if b.Bot {
		return a
	}
	return lineageUnion(a, b)
}

// Times implements Semiring: union, with ⊥ annihilating.
func (LineageSemiring) Times(a, b Lineage) Lineage {
	if a.Bot || b.Bot {
		return Lineage{Bot: true}
	}
	return lineageUnion(a, b)
}

// Equal implements Semiring.
func (LineageSemiring) Equal(a, b Lineage) bool {
	if a.Bot != b.Bot {
		return false
	}
	if a.Bot {
		return true
	}
	if len(a.Set) != len(b.Set) {
		return false
	}
	for t := range a.Set {
		if !b.Set[t] {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------------
// Why-provenance: sets of witnesses (token sets). PosBool additionally keeps
// only minimal witnesses (absorption a + ab = a).

// Witnesses is a set of token-sets, canonically encoded.
type Witnesses struct {
	// sets maps a canonical witness key to the witness's tokens.
	sets map[string][]Token
}

func witnessKey(tokens []Token) string {
	parts := make([]string, len(tokens))
	for i, t := range tokens {
		parts[i] = string(t)
	}
	sort.Strings(parts)
	// Deduplicate within a witness (witnesses are sets).
	dedup := parts[:0]
	var prev string
	for i, p := range parts {
		if i == 0 || p != prev {
			dedup = append(dedup, p)
		}
		prev = p
	}
	return strings.Join(dedup, "\x00")
}

func witnessFromKey(key string) []Token {
	if key == "" {
		return nil
	}
	parts := strings.Split(key, "\x00")
	out := make([]Token, len(parts))
	for i, p := range parts {
		out[i] = Token(p)
	}
	return out
}

// WitnessesOf builds a Witnesses value with one witness per argument list.
func WitnessesOf(witnesses ...[]Token) Witnesses {
	w := Witnesses{sets: make(map[string][]Token)}
	for _, set := range witnesses {
		k := witnessKey(set)
		w.sets[k] = witnessFromKey(k)
	}
	return w
}

// Sorted returns witnesses as sorted token slices in deterministic order.
func (w Witnesses) Sorted() [][]Token {
	keys := make([]string, 0, len(w.sets))
	for k := range w.sets {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([][]Token, len(keys))
	for i, k := range keys {
		out[i] = w.sets[k]
	}
	return out
}

// Len returns the number of witnesses.
func (w Witnesses) Len() int { return len(w.sets) }

// WhySemiring computes why-provenance (witness bases).
type WhySemiring struct{}

// Name implements Semiring.
func (WhySemiring) Name() string { return "why" }

// Zero implements Semiring: no witnesses.
func (WhySemiring) Zero() Witnesses { return Witnesses{sets: map[string][]Token{}} }

// One implements Semiring: the empty witness.
func (WhySemiring) One() Witnesses { return WitnessesOf(nil) }

// Plus implements Semiring: union of witness sets.
func (WhySemiring) Plus(a, b Witnesses) Witnesses {
	out := Witnesses{sets: make(map[string][]Token, a.Len()+b.Len())}
	for k, v := range a.sets {
		out.sets[k] = v
	}
	for k, v := range b.sets {
		out.sets[k] = v
	}
	return out
}

// Times implements Semiring: pairwise union of witnesses.
func (WhySemiring) Times(a, b Witnesses) Witnesses {
	out := Witnesses{sets: make(map[string][]Token)}
	for _, wa := range a.sets {
		for _, wb := range b.sets {
			merged := append(append([]Token{}, wa...), wb...)
			k := witnessKey(merged)
			out.sets[k] = witnessFromKey(k)
		}
	}
	return out
}

// Equal implements Semiring.
func (WhySemiring) Equal(a, b Witnesses) bool {
	if len(a.sets) != len(b.sets) {
		return false
	}
	for k := range a.sets {
		if _, ok := b.sets[k]; !ok {
			return false
		}
	}
	return true
}

// PosBoolSemiring is why-provenance with absorption: only ⊆-minimal
// witnesses are kept, so a + a·b = a. It is the free distributive lattice,
// the most compact "which inputs suffice" semiring, and is the formal basis
// for the paper's idempotence discussion (Example 3.4).
type PosBoolSemiring struct{}

// Name implements Semiring.
func (PosBoolSemiring) Name() string { return "posbool" }

// Zero implements Semiring.
func (PosBoolSemiring) Zero() Witnesses { return WhySemiring{}.Zero() }

// One implements Semiring.
func (PosBoolSemiring) One() Witnesses { return WhySemiring{}.One() }

func minimize(w Witnesses) Witnesses {
	keys := make([]string, 0, len(w.sets))
	for k := range w.sets {
		keys = append(keys, k)
	}
	isSubset := func(a, b []Token) bool { // a ⊆ b
		set := make(map[Token]bool, len(b))
		for _, t := range b {
			set[t] = true
		}
		for _, t := range a {
			if !set[t] {
				return false
			}
		}
		return true
	}
	out := Witnesses{sets: make(map[string][]Token)}
	for _, k := range keys {
		dominated := false
		for _, k2 := range keys {
			if k2 == k {
				continue
			}
			if isSubset(w.sets[k2], w.sets[k]) && !isSubset(w.sets[k], w.sets[k2]) {
				dominated = true
				break
			}
		}
		if !dominated {
			out.sets[k] = w.sets[k]
		}
	}
	return out
}

// Plus implements Semiring with absorption.
func (PosBoolSemiring) Plus(a, b Witnesses) Witnesses {
	return minimize(WhySemiring{}.Plus(a, b))
}

// Times implements Semiring with absorption.
func (PosBoolSemiring) Times(a, b Witnesses) Witnesses {
	return minimize(WhySemiring{}.Times(a, b))
}

// Equal implements Semiring.
func (PosBoolSemiring) Equal(a, b Witnesses) bool {
	return WhySemiring{}.Equal(minimize(a), minimize(b))
}
