package cq

import "sort"

// Homomorphism search and the Chandra–Merlin containment test.
//
// A homomorphism from query Q2 into query Q1 maps variables of Q2 to terms
// of Q1 such that every atom of Q2 lands on an atom of Q1, the head of Q2 is
// mapped onto the head of Q1, and every comparison predicate of Q2 is implied
// by Q1. Containment Q1 ⊆ Q2 holds (for pure CQs) iff such a homomorphism
// exists. With non-equality comparison predicates the implication check below
// is sound but not complete; both queries should be passed through
// NormalizeConstants first, which makes the test exact for the
// equality-selection fragment used throughout the paper.

// FindHomomorphism searches for a homomorphism from `from` into `onto` that
// maps the head of `from` exactly onto the head of `onto`. It returns the
// variable mapping and whether one exists.
func FindHomomorphism(from, onto *Query) (Subst, bool) {
	if len(from.Head) != len(onto.Head) {
		return nil, false
	}
	h := make(Subst)
	// Seed with the head mapping.
	for i, t := range from.Head {
		target := onto.Head[i]
		if t.IsConst {
			if !t.Equal(target) {
				return nil, false
			}
			continue
		}
		if prev, ok := h[t.Name]; ok {
			if !prev.Equal(target) {
				return nil, false
			}
			continue
		}
		h[t.Name] = target
	}
	return extendHomomorphism(from, onto, h)
}

func extendHomomorphism(from, onto *Query, h Subst) (Subst, bool) {
	// Index target atoms by predicate for candidate generation.
	byPred := make(map[string][]Atom)
	for _, a := range onto.Atoms {
		byPred[a.Pred] = append(byPred[a.Pred], a)
	}
	// Order source atoms: most-constrained first (constants and already
	// bound variables reduce branching).
	atoms := append([]Atom(nil), from.Atoms...)
	sort.SliceStable(atoms, func(i, j int) bool {
		return atomSelectivity(atoms[i], h) > atomSelectivity(atoms[j], h)
	})
	var rec func(i int, h Subst) (Subst, bool)
	rec = func(i int, h Subst) (Subst, bool) {
		if i == len(atoms) {
			if !comparisonsImplied(from, onto, h) {
				return nil, false
			}
			return h, true
		}
		a := atoms[i]
		for _, cand := range byPred[a.Pred] {
			if len(cand.Args) != len(a.Args) {
				continue
			}
			h2, ok := matchAtom(a, cand, h)
			if !ok {
				continue
			}
			if res, ok := rec(i+1, h2); ok {
				return res, true
			}
		}
		return nil, false
	}
	return rec(0, h)
}

// atomSelectivity scores how constrained an atom is under the current
// partial mapping (higher is more constrained).
func atomSelectivity(a Atom, h Subst) int {
	n := 0
	for _, t := range a.Args {
		if t.IsConst {
			n += 2
		} else if _, ok := h[t.Name]; ok {
			n += 2
		}
	}
	return n
}

// matchAtom extends h so that every argument of src maps to the corresponding
// argument of dst, or reports failure. h is not mutated.
func matchAtom(src, dst Atom, h Subst) (Subst, bool) {
	out := h
	copied := false
	for i, t := range src.Args {
		target := dst.Args[i]
		if t.IsConst {
			if !t.Equal(target) {
				return nil, false
			}
			continue
		}
		if prev, ok := out[t.Name]; ok {
			if !prev.Equal(target) {
				return nil, false
			}
			continue
		}
		if !copied {
			out = out.Clone()
			copied = true
		}
		out[t.Name] = target
	}
	return out, true
}

// comparisonsImplied reports whether every comparison of `from`, mapped
// through h, is implied by `onto`.
func comparisonsImplied(from, onto *Query, h Subst) bool {
	return ComparisonsImplied(from.Comps, onto.Comps, h)
}

// ComparisonsImplied reports whether every comparison in comps, mapped
// through h, is implied by the comparisons in `by`: it either evaluates to
// true on constants or appears syntactically among `by`. This is sound
// (never accepts a non-implication) and complete for the equality fragment
// after NormalizeConstants.
func ComparisonsImplied(comps []Comparison, by []Comparison, h Subst) bool {
	have := make(map[string]bool, len(by))
	for _, c := range by {
		have[c.Key()] = true
		// A strict comparison also implies its non-strict version.
		switch c.Op {
		case OpLt:
			have[Comparison{L: c.L, Op: OpLe, R: c.R}.Key()] = true
			have[Comparison{L: c.L, Op: OpNe, R: c.R}.Key()] = true
		case OpGt:
			have[Comparison{L: c.L, Op: OpGe, R: c.R}.Key()] = true
			have[Comparison{L: c.L, Op: OpNe, R: c.R}.Key()] = true
		}
	}
	for _, c := range comps {
		mc := Comparison{L: h.Apply(c.L), Op: c.Op, R: h.Apply(c.R)}
		if ok, ground := mc.EvalConst(); ground {
			if !ok {
				return false
			}
			continue
		}
		if mc.L.IsVar() && mc.R.IsVar() && mc.L.Name == mc.R.Name {
			if mc.Op == OpEq || mc.Op == OpLe || mc.Op == OpGe {
				continue
			}
			return false
		}
		if !have[mc.Key()] {
			return false
		}
	}
	return true
}

// Contains reports whether q1 ⊆ q2 (every answer of q1 over every database
// is an answer of q2). Both queries are normalized first; an unsatisfiable
// q1 is contained in everything.
func Contains(q1, q2 *Query) bool {
	n1, _, sat1 := q1.NormalizeConstants()
	if !sat1 {
		return true
	}
	n2, _, sat2 := q2.NormalizeConstants()
	if !sat2 {
		return false
	}
	_, ok := FindHomomorphism(n2, n1)
	return ok
}

// Equivalent reports whether q1 and q2 are equivalent (mutually contained).
func Equivalent(q1, q2 *Query) bool {
	return Contains(q1, q2) && Contains(q2, q1)
}

// Minimize computes the core of the query: a minimal equivalent sub-query
// obtained by repeatedly dropping atoms whose removal preserves equivalence.
// The result is unique up to isomorphism for satisfiable CQs.
func Minimize(q *Query) *Query {
	cur, _, sat := q.NormalizeConstants()
	if !sat {
		return cur
	}
	for {
		removed := false
		for i := range cur.Atoms {
			if len(cur.Atoms) == 1 {
				break
			}
			cand := cur.Clone()
			cand.Atoms = append(cand.Atoms[:i:i], cand.Atoms[i+1:]...)
			if err := cand.Validate(); err != nil {
				continue
			}
			if Equivalent(cand, cur) {
				cur = cand
				removed = true
				break
			}
		}
		if !removed {
			return cur
		}
	}
}

// CanonicalDatabase freezes the (normalized) query body into ground atoms:
// each variable becomes a fresh constant "⟨name⟩". Evaluating another query
// over this database decides containment (Chandra–Merlin), which the eval
// package uses for cross-validation tests.
func CanonicalDatabase(q *Query) ([]Atom, Subst) {
	frozen := make(Subst)
	for _, v := range q.Vars() {
		frozen[v] = Const("⟨" + v + "⟩")
	}
	atoms := make([]Atom, len(q.Atoms))
	for i, a := range q.Atoms {
		atoms[i] = frozen.ApplyAtom(a)
	}
	return atoms, frozen
}
