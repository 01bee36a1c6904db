package cq

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
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

// Clone returns a deep copy of the query. The head and every atom's
// arguments are cut from one slab, each capped at its own length.
func (q *Query) Clone() *Query {
	out := &Query{Name: q.Name}
	out.Params = append([]string(nil), q.Params...)
	n := len(q.Head)
	for _, a := range q.Atoms {
		n += len(a.Args)
	}
	slab := make([]Term, 0, n)
	cut := func(ts []Term) []Term {
		if ts == nil {
			return nil
		}
		start := len(slab)
		slab = append(slab, ts...)
		return slab[start:len(slab):len(slab)]
	}
	out.Head = cut(q.Head)
	out.Atoms = make([]Atom, len(q.Atoms))
	for i, a := range q.Atoms {
		out.Atoms[i] = Atom{Pred: a.Pred, Args: cut(a.Args)}
	}
	out.Comps = append([]Comparison(nil), q.Comps...)
	return out
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
	total := make(Subst)
	out := q.Clone()
	sat := out.normalize(total)
	return out, total, sat
}

// Normalize is NormalizeConstants without the substitution.
func (q *Query) Normalize() (*Query, bool) {
	out := q.Clone()
	return out, out.normalize(nil)
}

// NormalizeInPlace is Normalize on q itself, for a caller that owns q — a
// query just parsed — and would otherwise copy it only to drop the copy.
func (q *Query) NormalizeInPlace() bool { return q.normalize(nil) }

// normalize chases the equalities into q in place; what it substitutes is
// composed into total unless that is nil.
func (q *Query) normalize(total Subst) bool {
	for i := 0; i < len(q.Comps); {
		c := q.Comps[i]
		if c.Op != OpEq {
			i++
			continue
		}
		q.Comps = append(q.Comps[:i], q.Comps[i+1:]...)
		l, r := c.L, c.R
		switch {
		case l.IsConst && r.IsConst:
			if l.Value != r.Value {
				return false
			}
			continue
		case l.IsConst: // const = var
			l, r = r, l
		case r.IsVar() && l.Name == r.Name:
			continue
		}
		q.substitute(l.Name, r)
		if total != nil {
			compose(total, l.Name, r)
		}
	}
	// Evaluate any now-ground non-equality comparisons.
	rest := q.Comps[:0]
	for _, c := range q.Comps {
		if ok, ground := c.EvalConst(); ground {
			if !ok {
				return false
			}
			continue
		}
		rest = append(rest, c)
	}
	if len(rest) == 0 {
		rest = nil
	}
	q.Comps = rest
	return true
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

// substitute replaces the variable v by t throughout the query, in place, as
// Apply(Subst{v: t}) would: a λ-parameter renamed to a variable takes its
// name, one bound to a constant is dropped.
func (q *Query) substitute(v string, t Term) {
	sub := func(u *Term) {
		if u.IsVar() && u.Name == v {
			*u = t
		}
	}
	for i := range q.Head {
		sub(&q.Head[i])
	}
	for _, a := range q.Atoms {
		for i := range a.Args {
			sub(&a.Args[i])
		}
	}
	for i := range q.Comps {
		sub(&q.Comps[i].L)
		sub(&q.Comps[i].R)
	}
	params := q.Params[:0]
	for _, p := range q.Params {
		switch {
		case p != v:
			params = append(params, p)
		case t.IsVar():
			params = append(params, t.Name)
		}
	}
	if len(params) == 0 {
		params = nil
	}
	q.Params = params
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
	key, _, _ := canonical{q: q}.search()
	return key
}

// CanonicalRenaming returns the renaming of the query's variables that
// CanonicalKey spells it under: isomorphic queries are renamed alike, up to
// the query's own symmetries.
func (q *Query) CanonicalRenaming() Subst {
	c := canonical{q: q}
	_, order, _ := c.search()
	ren := make(Subst)
	for v, name := range c.renaming(order).vars {
		ren[v] = Var(name)
	}
	return ren
}

// CanonicalTemplate is CanonicalKey with the constants of params — a query
// shape's lifted constants (Shape), each value once — spelled as numbered
// placeholders instead of by value: one template serves every query of the
// shape, whatever its constants. Placeholders are numbered in the order the
// canonical spelling first meets them; slots[k] is the index in params of
// placeholder k. Appending the values a query of the shape has at those
// indices to tmpl gives a key that two queries share only if they are
// isomorphic, as CanonicalKey says they are; isomorphic queries of shapes
// whose templates are ok share it too.
//
// ok is false when no such key can be spelled: when the atom order is left
// to CanonicalKey's fallback (over ten atoms); when a lifted constant occurs
// in a comparison, whose canonical order would depend on the placeholder's
// number; and when two atom orders spell the least template but number the
// placeholders differently — the query is symmetric in a way its constants
// may break, and its key must read their values.
func (q *Query) CanonicalTemplate(params []string) (tmpl string, slots []int, ok bool) {
	c := canonical{q: q, ph: make(map[string]int, len(params))}
	for i, v := range params {
		c.ph[v] = i
	}
	if len(q.Atoms) > maxCanonicalAtoms {
		return "", nil, false
	}
	for _, cmp := range q.Comps {
		for _, t := range [2]Term{cmp.L, cmp.R} {
			if _, lifted := c.ph[t.Value]; t.IsConst && lifted {
				return "", nil, false
			}
		}
	}
	tmpl, order, unique := c.search()
	if !unique {
		return "", nil, false
	}
	return tmpl, c.renaming(order).slots, true
}

// maxCanonicalAtoms bounds the atom-order search; a larger query is spelled
// in its own atom order (a valid, weaker key).
const maxCanonicalAtoms = 10

// canonical is one canonical-form search over q. The constants in ph (value
// → index in a parameter list) are placeholders, renamed along the atom
// order as variables are; nil spells every constant by value.
type canonical struct {
	q  *Query
	ph map[string]int
}

// canonRenaming names variables x0, x1, … and placeholders 0, 1, … in the
// order a canonical spelling meets them; slots lists each placeholder's
// parameter index in that order.
type canonRenaming struct {
	vars  map[string]string
	phs   map[string]string
	slots []int
}

// search returns the canonical key and the atom order it was spelled in;
// unique is false when another order spells the same key with the
// placeholders numbered differently.
func (c canonical) search() (best string, bestOrder []int, unique bool) {
	q := c.q
	n := len(q.Atoms)
	if n > maxCanonicalAtoms {
		// Fall back to the identity order for pathological inputs; still a
		// valid (weaker) key.
		return c.keyInOrder(identityPerm(n)), identityPerm(n), true
	}
	var bestSlots []int
	var rec func(chosen []int, used []bool)
	rec = func(chosen []int, used []bool) {
		if len(chosen) == n {
			key := c.keyInOrder(chosen)
			switch {
			case best == "" || key < best:
				best, bestOrder, unique = key, slices.Clone(chosen), true
				bestSlots = c.renaming(chosen).slots
			case key == best && unique:
				unique = slices.Equal(bestSlots, c.renaming(chosen).slots)
			}
			return
		}
		// Encode each candidate next atom under the renaming induced by
		// the chosen prefix; recurse only into minimal-encoding ties.
		ren := c.renaming(chosen)
		minEnc := ""
		var ties []int
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			enc := c.encodeAtom(q.Atoms[i], ren)
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
	return best, bestOrder, unique
}

func identityPerm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}

// renaming names the variables and placeholders in head order, then in the
// order they appear along the chosen atom prefix.
func (c canonical) renaming(chosen []int) *canonRenaming {
	ren := &canonRenaming{vars: make(map[string]string)}
	if c.ph != nil {
		ren.phs = make(map[string]string)
	}
	for _, t := range c.q.Head {
		c.touch(ren, t)
	}
	for _, i := range chosen {
		for _, t := range c.q.Atoms[i].Args {
			c.touch(ren, t)
		}
	}
	return ren
}

// touch names t if it is a variable or a placeholder not named yet.
func (c canonical) touch(ren *canonRenaming, t Term) {
	if t.IsVar() {
		if _, ok := ren.vars[t.Name]; !ok {
			ren.vars[t.Name] = "x" + strconv.Itoa(len(ren.vars))
		}
		return
	}
	if i, lifted := c.ph[t.Value]; lifted {
		if _, ok := ren.phs[t.Value]; !ok {
			ren.phs[t.Value] = strconv.Itoa(len(ren.phs))
			ren.slots = append(ren.slots, i)
		}
	}
}

// encodeAtom encodes an atom under a prefix's renaming; unseen variables and
// placeholders receive provisional names in argument order, continuing the
// renaming's numbering.
func (c canonical) encodeAtom(a Atom, ren *canonRenaming) string {
	var sb strings.Builder
	sb.WriteString(a.Pred)
	vars, phs := len(ren.vars), len(ren.phs)
	local := make(map[Term]string)
	for _, t := range a.Args {
		sb.WriteByte('\x00')
		_, lifted := c.ph[t.Value]
		switch {
		case t.IsConst && !lifted:
			sb.WriteString("c:" + t.Value)
		case t.IsConst:
			if nm, ok := ren.phs[t.Value]; ok {
				sb.WriteString("p:" + nm)
			} else if nm, ok := local[t]; ok {
				sb.WriteString("p:" + nm)
			} else {
				nm := strconv.Itoa(phs)
				phs++
				local[t] = nm
				sb.WriteString("p:" + nm)
			}
		default:
			if nm, ok := ren.vars[t.Name]; ok {
				sb.WriteString("v:" + nm)
			} else if nm, ok := local[t]; ok {
				sb.WriteString("v:" + nm)
			} else {
				nm := "x" + strconv.Itoa(vars)
				vars++
				local[t] = nm
				sb.WriteString("v:" + nm)
			}
		}
	}
	return sb.String()
}

// keyInOrder spells the query with its atoms in the given order, its
// variables and placeholders renamed along it, and its comparisons sorted.
func (c canonical) keyInOrder(order []int) string {
	q := c.q
	ren := c.renaming(order)
	// Any leftover variables (only in comparisons) get trailing names.
	for _, cmp := range q.Comps {
		for _, t := range [2]Term{cmp.L, cmp.R} {
			if t.IsVar() {
				c.touch(ren, t)
			}
		}
	}
	key := func(t Term) string {
		if t.IsVar() {
			return "v:" + ren.vars[t.Name]
		}
		if nm, ok := ren.phs[t.Value]; ok {
			return "p:" + nm
		}
		return t.Key()
	}
	var sb strings.Builder
	for i, t := range q.Head {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(key(t))
	}
	sb.WriteByte('|')
	for i, p := range q.Params {
		if i > 0 {
			sb.WriteByte(',')
		}
		if nm, ok := ren.vars[p]; ok {
			p = nm
		}
		sb.WriteString(p)
	}
	sb.WriteByte('|')
	for i, ai := range order {
		if i > 0 {
			sb.WriteByte(';')
		}
		a := q.Atoms[ai]
		sb.WriteString("A" + a.Pred)
		for _, t := range a.Args {
			sb.WriteString("\x00" + key(t))
		}
	}
	sb.WriteByte('|')
	// Comparisons hold no placeholder (CanonicalTemplate refuses those):
	// their keys are the renamed comparisons'.
	comps := make([]string, len(q.Comps))
	for i, cmp := range q.Comps {
		rn := func(t Term) Term {
			if t.IsVar() {
				return Var(ren.vars[t.Name])
			}
			return t
		}
		comps[i] = "C" + Comparison{L: rn(cmp.L), Op: cmp.Op, R: rn(cmp.R)}.Key()
	}
	sort.Strings(comps)
	sb.WriteString(strings.Join(comps, ";"))
	return sb.String()
}
