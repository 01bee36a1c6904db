package cq

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Query is a conjunctive query with optional λ-parameters, following
// Definition 2.1 of the paper:
//
//	λX. Name(Head) :- Atoms, Comps
//
// Params (the λ-term X) is an ordered list of variable names; the paper
// requires X ⊆ Head variables, which Validate enforces. A query with no
// Params is unparameterized.
type Query struct {
	Name   string
	Params []string
	Head   []Term
	Atoms  []Atom
	Comps  []Comparison
}

// Clone returns a deep copy of the query.
func (q *Query) Clone() *Query {
	out := &Query{Name: q.Name}
	out.Params = append([]string(nil), q.Params...)
	out.Head = append([]Term(nil), q.Head...)
	out.Atoms = make([]Atom, len(q.Atoms))
	for i, a := range q.Atoms {
		out.Atoms[i] = a.Clone()
	}
	out.Comps = append([]Comparison(nil), q.Comps...)
	return out
}

// HeadVars returns the set of variable names occurring in the head.
func (q *Query) HeadVars() map[string]bool {
	vs := make(map[string]bool)
	for _, t := range q.Head {
		if t.IsVar() {
			vs[t.Name] = true
		}
	}
	return vs
}

// BodyVars returns the set of variable names occurring in relational atoms.
func (q *Query) BodyVars() map[string]bool {
	vs := make(map[string]bool)
	for _, a := range q.Atoms {
		for _, t := range a.Args {
			if t.IsVar() {
				vs[t.Name] = true
			}
		}
	}
	return vs
}

// Vars returns every variable name in the query (head, atoms, comparisons)
// in deterministic first-occurrence order.
func (q *Query) Vars() []string {
	var order []string
	seen := make(map[string]bool)
	add := func(t Term) {
		if t.IsVar() && !seen[t.Name] {
			seen[t.Name] = true
			order = append(order, t.Name)
		}
	}
	for _, t := range q.Head {
		add(t)
	}
	for _, a := range q.Atoms {
		for _, t := range a.Args {
			add(t)
		}
	}
	for _, c := range q.Comps {
		add(c.L)
		add(c.R)
	}
	return order
}

// ParamPositions returns, for each λ-parameter in order, the index of its
// first occurrence in the head, or an error when a parameter does not appear
// in the head (violating X ⊆ Y of Definition 2.1).
func (q *Query) ParamPositions() ([]int, error) {
	pos := make([]int, len(q.Params))
	for i, p := range q.Params {
		pos[i] = -1
		for j, t := range q.Head {
			if t.IsVar() && t.Name == p {
				pos[i] = j
				break
			}
		}
		if pos[i] < 0 {
			return nil, fmt.Errorf("cq: query %s: λ-parameter %s does not appear in the head", q.Name, p)
		}
	}
	return pos, nil
}

// Validate checks the structural well-formedness required by Definition 2.1:
// head variables must occur in the body (safety), λ-parameters must be head
// variables, and comparison variables must occur in some relational atom.
func (q *Query) Validate() error {
	if len(q.Atoms) == 0 {
		return fmt.Errorf("cq: query %s has no relational atoms", q.Name)
	}
	body := q.BodyVars()
	for _, t := range q.Head {
		if t.IsVar() && !body[t.Name] {
			return fmt.Errorf("cq: query %s is unsafe: head variable %s not in body", q.Name, t.Name)
		}
	}
	if _, err := q.ParamPositions(); err != nil {
		return err
	}
	for _, c := range q.Comps {
		for _, t := range []Term{c.L, c.R} {
			if t.IsVar() && !body[t.Name] {
				return fmt.Errorf("cq: query %s is unsafe: comparison variable %s not in body", q.Name, t.Name)
			}
		}
	}
	return nil
}

// Apply returns a copy of the query with the substitution applied to head,
// atoms and comparisons. λ-parameters that are substituted away are dropped
// from Params.
func (q *Query) Apply(s Subst) *Query {
	out := q.Clone()
	for i := range out.Head {
		out.Head[i] = s.Apply(out.Head[i])
	}
	for i := range out.Atoms {
		out.Atoms[i] = s.ApplyAtom(out.Atoms[i])
	}
	for i := range out.Comps {
		out.Comps[i] = s.ApplyComparison(out.Comps[i])
	}
	var params []string
	for _, p := range out.Params {
		if t, ok := s[p]; !ok || (t.IsVar() && t.Name == p) {
			params = append(params, p)
		} else if t.IsVar() {
			params = append(params, t.Name)
		}
		// Parameters substituted by constants are instantiated and
		// disappear from the λ-term.
	}
	out.Params = params
	return out
}

// Freshen renames every variable with the given prefix and a counter,
// returning the renamed query and the renaming used. Counter state is the
// caller's: pass the next free index and receive the updated one.
func (q *Query) Freshen(prefix string, next int) (*Query, Subst, int) {
	s := make(Subst)
	for _, v := range q.Vars() {
		s[v] = Var(fmt.Sprintf("%s%d", prefix, next))
		next++
	}
	return q.Apply(s), s, next
}

// String renders the query in the paper's notation, e.g.
//
//	λF. V1(F, N, Ty) :- Family(F, N, Ty)
func (q *Query) String() string {
	var sb strings.Builder
	if len(q.Params) > 0 {
		sb.WriteString("λ")
		sb.WriteString(strings.Join(q.Params, ","))
		sb.WriteString(". ")
	}
	name := q.Name
	if name == "" {
		name = "Q"
	}
	sb.WriteString(name)
	sb.WriteByte('(')
	for i, t := range q.Head {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(t.String())
	}
	sb.WriteString(") :- ")
	first := true
	for _, a := range q.Atoms {
		if !first {
			sb.WriteString(", ")
		}
		first = false
		sb.WriteString(a.String())
	}
	for _, c := range q.Comps {
		if !first {
			sb.WriteString(", ")
		}
		first = false
		sb.WriteString(c.String())
	}
	return sb.String()
}

// NormalizeConstants chases variable-constant and variable-variable
// equalities into the query: every comparison X = "c" substitutes the
// constant for X, every X = Y merges the variables, and trivially true
// constant comparisons are dropped. The returned substitution records what
// was applied (useful to recover λ-absorption, §2.2). The query is
// unsatisfiable when two distinct constants are equated; that is reported by
// the third return value being false.
func (q *Query) NormalizeConstants() (*Query, Subst, bool) {
	out := q.Clone()
	total := make(Subst)
	for {
		eqIdx := -1
		for i, c := range out.Comps {
			if c.Op == OpEq {
				eqIdx = i
				break
			}
		}
		if eqIdx < 0 {
			break
		}
		c := out.Comps[eqIdx]
		out.Comps = append(out.Comps[:eqIdx:eqIdx], out.Comps[eqIdx+1:]...)
		l, r := c.L, c.R
		switch {
		case l.IsConst && r.IsConst:
			if l.Value != r.Value {
				return out, total, false
			}
		case l.IsVar() && r.IsConst:
			out = out.Apply(Subst{l.Name: r})
			compose(total, l.Name, r)
		case l.IsConst && r.IsVar():
			out = out.Apply(Subst{r.Name: l})
			compose(total, r.Name, l)
		default: // var = var
			if l.Name != r.Name {
				out = out.Apply(Subst{l.Name: r})
				compose(total, l.Name, r)
			}
		}
	}
	// Evaluate any now-ground non-equality comparisons.
	var rest []Comparison
	for _, c := range out.Comps {
		if ok, ground := c.EvalConst(); ground {
			if !ok {
				return out, total, false
			}
			continue
		}
		rest = append(rest, c)
	}
	out.Comps = rest
	return out, total, true
}

// compose updates a cumulative substitution with v ↦ t, rewriting existing
// images through the new binding.
func compose(total Subst, v string, t Term) {
	for k, img := range total {
		if img.IsVar() && img.Name == v {
			total[k] = t
		}
	}
	if _, ok := total[v]; !ok {
		total[v] = t
	}
}

// Key returns a syntactic identity key for the query under its current
// variable names (no canonicalization).
func (q *Query) Key() string {
	parts := make([]string, 0, len(q.Atoms)+len(q.Comps)+2)
	var head []string
	for _, t := range q.Head {
		head = append(head, t.Key())
	}
	parts = append(parts, strings.Join(head, ","))
	parts = append(parts, strings.Join(q.Params, ","))
	var lits []string
	for _, a := range q.Atoms {
		lits = append(lits, "A"+a.Key())
	}
	for _, c := range q.Comps {
		lits = append(lits, "C"+c.Key())
	}
	sort.Strings(lits)
	parts = append(parts, strings.Join(lits, ";"))
	return strings.Join(parts, "|")
}

// CanonicalKey returns a variable-renaming- and atom-order-independent key:
// two queries that are isomorphic (identical up to renaming variables and
// reordering subgoals) receive equal CanonicalKeys. It is computed as the
// lexicographically smallest body encoding over all atom orders, explored
// greedily with backtracking on ties — exponential only on highly symmetric
// queries, which in this domain are tiny. This is a syntactic key:
// equivalent but non-isomorphic queries may still differ (use Equivalent for
// semantic comparison).
func (q *Query) CanonicalKey() string {
	key, _ := q.canonicalOrder()
	return key
}

// CanonicalRenaming returns the renaming of the query's variables that
// CanonicalKey spells it under: isomorphic queries are renamed alike, up to
// the query's own symmetries.
func (q *Query) CanonicalRenaming() Subst {
	_, order := q.canonicalOrder()
	ren, _ := q.prefixRenaming(order)
	return ren
}

// canonicalOrder returns the canonical key and the atom order it was
// spelled in.
func (q *Query) canonicalOrder() (best string, bestOrder []int) {
	n := len(q.Atoms)
	if n > 10 {
		// Fall back to the identity order for pathological inputs; still a
		// valid (weaker) key.
		return q.canonicalKeyInOrder(identityPerm(n)), identityPerm(n)
	}
	var rec func(chosen []int, used []bool)
	rec = func(chosen []int, used []bool) {
		if len(chosen) == n {
			key := q.canonicalKeyInOrder(chosen)
			if best == "" || key < best {
				best, bestOrder = key, slices.Clone(chosen)
			}
			return
		}
		// Encode each candidate next atom under the renaming induced by
		// the chosen prefix; recurse only into minimal-encoding ties.
		ren, next := q.prefixRenaming(chosen)
		minEnc := ""
		var ties []int
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			enc := encodeAtomCanonical(q.Atoms[i], ren, next)
			switch {
			case minEnc == "" || enc < minEnc:
				minEnc = enc
				ties = ties[:0]
				ties = append(ties, i)
			case enc == minEnc:
				ties = append(ties, i)
			}
		}
		for _, i := range ties {
			used[i] = true
			rec(append(chosen, i), used)
			used[i] = false
		}
	}
	rec(make([]int, 0, n), make([]bool, n))
	return best, bestOrder
}

func identityPerm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}

// prefixRenaming assigns canonical names x0, x1, … to variables in head
// order then in the order they appear along the chosen atom prefix.
func (q *Query) prefixRenaming(chosen []int) (Subst, int) {
	ren := make(Subst)
	next := 0
	touch := func(t Term) {
		if t.IsVar() {
			if _, ok := ren[t.Name]; !ok {
				ren[t.Name] = Var(fmt.Sprintf("x%d", next))
				next++
			}
		}
	}
	for _, t := range q.Head {
		touch(t)
	}
	for _, i := range chosen {
		for _, t := range q.Atoms[i].Args {
			touch(t)
		}
	}
	return ren, next
}

// encodeAtomCanonical encodes an atom under a partial renaming; unseen
// variables receive provisional names in argument order starting at next.
func encodeAtomCanonical(a Atom, ren Subst, next int) string {
	var sb strings.Builder
	sb.WriteString(a.Pred)
	local := make(map[string]string)
	for _, t := range a.Args {
		sb.WriteByte('\x00')
		switch {
		case t.IsConst:
			sb.WriteString("c:" + t.Value)
		default:
			if img, ok := ren[t.Name]; ok {
				sb.WriteString("v:" + img.Name)
			} else if nm, ok := local[t.Name]; ok {
				sb.WriteString("v:" + nm)
			} else {
				nm := fmt.Sprintf("x%d", next)
				next++
				local[t.Name] = nm
				sb.WriteString("v:" + nm)
			}
		}
	}
	return sb.String()
}

// canonicalKeyInOrder renames variables along the given atom order and
// returns the Key with atoms in that order and comparisons sorted.
func (q *Query) canonicalKeyInOrder(order []int) string {
	ren, next := q.prefixRenaming(order)
	// Any leftover variables (only in comparisons) get trailing names.
	for _, c := range q.Comps {
		for _, t := range []Term{c.L, c.R} {
			if t.IsVar() {
				if _, ok := ren[t.Name]; !ok {
					ren[t.Name] = Var(fmt.Sprintf("x%d", next))
					next++
				}
			}
		}
	}
	reordered := q.Clone()
	atoms := make([]Atom, len(order))
	for pos, i := range order {
		atoms[pos] = q.Atoms[i]
	}
	reordered.Atoms = atoms
	renamed := reordered.Apply(ren)
	var parts []string
	var head []string
	for _, t := range renamed.Head {
		head = append(head, t.Key())
	}
	parts = append(parts, strings.Join(head, ","))
	parts = append(parts, strings.Join(renamed.Params, ","))
	var body []string
	for _, a := range renamed.Atoms {
		body = append(body, "A"+a.Key())
	}
	var comps []string
	for _, c := range renamed.Comps {
		comps = append(comps, "C"+c.Key())
	}
	sort.Strings(comps)
	parts = append(parts, strings.Join(body, ";"), strings.Join(comps, ";"))
	return strings.Join(parts, "|")
}
