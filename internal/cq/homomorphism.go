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
//
// Homomorphisms is the one search: containment, minimization and the rewrite
// package's view candidates all run it. It binds source atoms one at a time,
// in the order given, to target atoms of the same predicate and arity,
// extending one mapping in place and undoing each binding on backtrack. A
// comparison is tested at the first depth where every variable it mentions
// is bound, not once the mapping is complete. That is exact: a binding is
// never changed below the depth that made it, so the comparison maps to the
// same terms at every leaf below, and ComparisonsImplied tests each
// comparison on its own — a comparison that fails there fails every leaf
// below, and one that holds holds at each of them. A comparison over a
// variable no atom binds (Validate rules that out) is tested at the leaf.

// FindHomomorphism searches for a homomorphism from `from` into `onto` that
// maps the head of `from` exactly onto the head of `onto`. It returns the
// variable mapping and whether one exists.
func FindHomomorphism(from, onto *Query) (Subst, bool) {
	// Seed with the head mapping.
	h := make(Subst)
	if len(from.Head) != len(onto.Head) || !(&homSearch{h: h}).bind(from.Head, onto.Head) {
		return nil, false
	}
	// Order source atoms: most-constrained first (constants and already
	// bound variables reduce branching).
	atoms := append([]Atom(nil), from.Atoms...)
	sort.SliceStable(atoms, func(i, j int) bool {
		return atomSelectivity(atoms[i], h) > atomSelectivity(atoms[j], h)
	})
	var found Subst
	Homomorphisms(atoms, from.Comps, onto, h, func(h Subst, _ []int) bool {
		found = h.Clone()
		return false
	})
	return found, found != nil
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

// Homomorphisms enumerates the homomorphisms from atoms and comps into
// onto: each extension h of seed that sends every one of atoms onto an atom
// of onto and under which comps are implied by onto's comparisons
// (ComparisonsImplied). It calls yield with h and image, where image[i] is
// the index in onto.Atoms that atoms[i] lands on; yield returns false to stop
// the search. Mappings come depth first: atoms[0]'s targets in onto's atom
// order, then atoms[1]'s, and so on. h is seed itself, extended in place and
// left as it was found: it and image are valid during the call only.
func Homomorphisms(atoms []Atom, comps []Comparison, onto *Query, seed Subst, yield func(h Subst, image []int) bool) {
	s := &homSearch{atoms: atoms, onto: onto.Atoms, h: seed, have: impliedBy(onto.Comps),
		checks: make([][]Comparison, len(atoms)+1), image: make([]int, len(atoms)), yield: yield}
	for _, c := range comps {
		d := max(s.boundAt(c.L), s.boundAt(c.R))
		s.checks[d] = append(s.checks[d], c)
	}
	s.extend(0)
}

// homSearch is the state of one Homomorphisms call.
type homSearch struct {
	atoms []Atom
	onto  []Atom
	h     Subst
	// bound logs the variables bound since the seed, in binding order, so
	// that backtracking deletes exactly those.
	bound []string
	have  implied
	// checks[d] are the comparisons whose variables are all bound once
	// atoms[:d] are.
	checks [][]Comparison
	image  []int
	yield  func(Subst, []int) bool
}

// boundAt returns the depth from which t is bound: 0 for a constant or a
// seeded variable, d+1 for a variable that first occurs in atoms[d], and the
// leaf for one no atom binds.
func (s *homSearch) boundAt(t Term) int {
	if _, ok := s.h[t.Name]; t.IsConst || ok {
		return 0
	}
	for d, a := range s.atoms {
		for _, u := range a.Args {
			if u.IsVar() && u.Name == t.Name {
				return d + 1
			}
		}
	}
	return len(s.atoms)
}

// extend tests the comparisons bound at depth d and binds atoms[d:]. It
// returns false once yield has stopped the search.
func (s *homSearch) extend(d int) bool {
	for _, c := range s.checks[d] {
		if !s.have.holds(s.h.ApplyComparison(c)) {
			return true
		}
	}
	if d == len(s.atoms) {
		return s.yield(s.h, s.image)
	}
	a := s.atoms[d]
	for j, b := range s.onto {
		if b.Pred != a.Pred || len(b.Args) != len(a.Args) {
			continue
		}
		mark := len(s.bound)
		s.image[d] = j
		more := !s.bind(a.Args, b.Args) || s.extend(d+1)
		for _, v := range s.bound[mark:] {
			delete(s.h, v)
		}
		s.bound = s.bound[:mark]
		if !more {
			return false
		}
	}
	return true
}

// bind extends h so that each of ts maps to the term of us at its position,
// logging each new binding. On a clash it reports false and leaves the
// bindings it made for the caller to undo.
func (s *homSearch) bind(ts, us []Term) bool {
	for i, t := range ts {
		target := us[i]
		if t.IsConst {
			if !t.Equal(target) {
				return false
			}
			continue
		}
		if prev, ok := s.h[t.Name]; ok {
			if !prev.Equal(target) {
				return false
			}
			continue
		}
		s.h[t.Name] = target
		s.bound = append(s.bound, t.Name)
	}
	return true
}

// ComparisonsImplied reports whether every comparison in comps, mapped
// through h, is implied by the comparisons in `by`: it either evaluates to
// true on constants or appears syntactically among `by`. This is sound
// (never accepts a non-implication) and complete for the equality fragment
// after NormalizeConstants.
func ComparisonsImplied(comps []Comparison, by []Comparison, h Subst) bool {
	have := impliedBy(by)
	for _, c := range comps {
		if !have.holds(h.ApplyComparison(c)) {
			return false
		}
	}
	return true
}

// implied is the set of comparisons some comparisons imply syntactically,
// each in its normal form (Comparison.norm).
type implied map[Comparison]bool

func impliedBy(by []Comparison) implied {
	if len(by) == 0 {
		return nil // the common case, and a nil map answers every lookup
	}
	have := make(implied, len(by))
	for _, c := range by {
		have[c.norm()] = true
		// A strict comparison also implies its non-strict version.
		switch c.Op {
		case OpLt:
			have[Comparison{L: c.L, Op: OpLe, R: c.R}.norm()] = true
			have[Comparison{L: c.L, Op: OpNe, R: c.R}.norm()] = true
		case OpGt:
			have[Comparison{L: c.L, Op: OpGe, R: c.R}.norm()] = true
			have[Comparison{L: c.L, Op: OpNe, R: c.R}.norm()] = true
		}
	}
	return have
}

// holds reports whether the comparison mc, already mapped, is implied: it
// is ground and true, reflexive and non-strict, or in the set.
func (have implied) holds(mc Comparison) bool {
	if ok, ground := mc.EvalConst(); ground {
		return ok
	}
	if mc.L.IsVar() && mc.R.IsVar() && mc.L.Name == mc.R.Name {
		return mc.Op == OpEq || mc.Op == OpLe || mc.Op == OpGe
	}
	return have[mc.norm()]
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
