// Package rewrite implements answering queries using views for the citation
// model (§2.2 of the paper): enumerating the rewritings of a conjunctive
// query whose subgoals are citation views (total rewritings) or views plus
// base relations (partial rewritings), per Definition 2.2.
//
// The algorithm is MiniCon-flavored:
//
//  1. the query is normalized (equality selections chased into constants)
//     and minimized to its core;
//  2. for each view, every homomorphism from the view's body into the query
//     yields a candidate view atom covering the image atoms, with the
//     MiniCon exposure condition checked per cover (query variables needed
//     outside the covered set must be images of the view's head variables);
//  3. exact disjoint covers of the query's atoms by candidates (plus base
//     atoms for partial rewritings) are enumerated;
//  4. every assembled rewriting is *certified*: its view atoms are expanded
//     back into base relations and checked equivalent to the query
//     (soundness is therefore unconditional);
//  5. Definition 2.2's minimality conditions are enforced — no subgoal is
//     removable (condition 3), and no subset of base subgoals can be
//     replaced by a view (condition 4).
//
// λ-parameter absorption (§2.2): when a view's λ-parameter position ends up
// holding a constant, the rewriting "absorbs" the query's comparison
// predicate as a parameter value — compare V4(F,N,Ty)("gpcr") in the paper's
// Example 2.2. Constants in non-parameter positions count as residual
// comparison predicates, which the preference model penalizes.
package rewrite

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"citare/internal/cq"
)

// ViewAtom is a view occurrence in a rewriting: the view applied to argument
// terms from the query.
type ViewAtom struct {
	// View is the original view definition (λ-parameters intact).
	View *cq.Query
	// Args are the view-head arguments expressed in query terms.
	Args []cq.Term
	// def is View normalized (cq.Query.NormalizeConstants), as PrepareViews
	// made it; nil on an atom built elsewhere, which Expand normalizes.
	def *cq.Query
}

// String renders the atom in the paper's notation: parameter values are
// written as a trailing argument list, e.g. V4(F, N, "gpcr")("gpcr").
func (va ViewAtom) String() string { return string(va.appendTo(nil, cq.Rebind{})) }

// appendTo appends String's spelling of the atom, its constants renamed by
// rb, to dst.
func (va ViewAtom) appendTo(dst []byte, rb cq.Rebind) []byte {
	dst = appendTerms(append(append(dst, va.View.Name...), '('), va.Args, rb)
	dst = append(dst, ')')
	// The parameter values, when every λ-parameter position holds one
	// (ParamValues).
	n := 0
	for _, p := range va.View.Params {
		i := slices.IndexFunc(va.View.Head, func(t cq.Term) bool { return t.IsVar() && t.Name == p })
		if i < 0 || !va.Args[i].IsConst {
			return dst[:len(dst)-n]
		}
		mark := len(dst)
		if n == 0 {
			dst = append(dst, '(')
		} else {
			dst = append(dst, ", "...)
		}
		dst = strconv.AppendQuote(dst, rb.Value(va.Args[i].Value))
		n += len(dst) - mark
	}
	if n > 0 {
		dst = append(dst, ')')
	}
	return dst
}

// appendTerms appends the terms, their constants renamed by rb, as a
// comma-separated argument list.
func appendTerms(dst []byte, ts []cq.Term, rb cq.Rebind) []byte {
	for i, t := range ts {
		if i > 0 {
			dst = append(dst, ", "...)
		}
		if t.IsConst {
			dst = strconv.AppendQuote(dst, rb.Value(t.Value))
		} else {
			dst = append(dst, t.Name...)
		}
	}
	return dst
}

// ParamValues returns the constant values at the view's λ-parameter
// positions when *all* parameters are instantiated; ok is false when any
// parameter position still holds a variable (the view is used "open", its
// parameter effectively ranging over the join).
func (va ViewAtom) ParamValues() ([]string, bool) {
	pos, err := va.View.ParamPositions()
	if err != nil {
		return nil, false
	}
	vals := make([]string, len(pos))
	for i, p := range pos {
		if !va.Args[p].IsConst {
			return nil, false
		}
		vals[i] = va.Args[p].Value
	}
	return vals, true
}

// residualConstants counts constants sitting in non-parameter head
// positions: selections the view does not absorb, i.e. remaining comparison
// predicates in the paper's sense.
func (va ViewAtom) residualConstants() int {
	paramPos := make(map[int]bool)
	if pos, err := va.View.ParamPositions(); err == nil {
		for _, p := range pos {
			paramPos[p] = true
		}
	}
	n := 0
	for i, t := range va.Args {
		if t.IsConst && !paramPos[i] {
			n++
		}
	}
	return n
}

// Rewriting is one equivalent rewriting of the input query (Definition 2.2).
type Rewriting struct {
	// Query is the normalized, minimized input query the rewriting is
	// equivalent to.
	Query *cq.Query
	// ViewAtoms are the view subgoals.
	ViewAtoms []ViewAtom
	// BaseAtoms are uncovered subgoals accessing base relations (empty for
	// total rewritings).
	BaseAtoms []cq.Atom
	// Comps are the remaining comparison predicates (non-equality
	// predicates survive normalization).
	Comps []cq.Comparison
	// Head is the rewriting's head (the query's head).
	Head []cq.Term
}

// IsTotal reports whether the rewriting uses only views and comparison
// predicates (Definition 2.2).
func (r *Rewriting) IsTotal() bool { return len(r.BaseAtoms) == 0 }

// NumViews returns the number of view subgoals.
func (r *Rewriting) NumViews() int { return len(r.ViewAtoms) }

// NumBase returns the number of base-relation subgoals.
func (r *Rewriting) NumBase() int { return len(r.BaseAtoms) }

// ResidualPredicates counts remaining comparison predicates: explicit
// comparisons plus constants in non-λ view-head positions and in base atoms.
// Rewritings whose selections are all λ-absorbed score zero (the paper's
// most-preferred case).
func (r *Rewriting) ResidualPredicates() int {
	n := len(r.Comps)
	for _, va := range r.ViewAtoms {
		n += va.residualConstants()
	}
	for _, a := range r.BaseAtoms {
		for _, t := range a.Args {
			if t.IsConst {
				n++
			}
		}
	}
	return n
}

// String renders the rewriting, e.g.
//
//	Q(N) :- V4(F, N, "gpcr")("gpcr"), V2(F, Tx)
func (r *Rewriting) String() string { return string(r.AppendBound(nil, cq.Rebind{})) }

// AppendBound appends the spelling String gives r.Rebind(rb, …) to dst,
// without building that rewriting.
func (r *Rewriting) AppendBound(dst []byte, rb cq.Rebind) []byte {
	name := r.Query.Name
	if name == "" {
		name = "Q"
	}
	dst = appendTerms(append(append(dst, name...), '('), r.Head, rb)
	dst = append(dst, ") :- "...)
	n := 0
	sep := func() {
		if n > 0 {
			dst = append(dst, ", "...)
		}
		n++
	}
	for _, va := range r.ViewAtoms {
		sep()
		dst = va.appendTo(dst, rb)
	}
	for _, a := range r.BaseAtoms {
		sep()
		dst = append(appendTerms(append(append(dst, a.Pred...), '('), a.Args, rb), ')')
	}
	for _, c := range r.Comps {
		sep()
		c.L, c.R = rb.Term(c.L), rb.Term(c.R)
		dst = append(dst, c.String()...)
	}
	return dst
}

// Key returns a canonical identity for deduplication (subgoal order
// independent). Each part carries a kind tag and self-delimiting content —
// view atoms render with strconv-quoted constants, base atoms and
// comparisons use the \x00-framed term keys — so the sorted ";" join cannot
// make two distinct rewritings collide.
func (r *Rewriting) Key() string {
	parts := make([]string, 0, len(r.ViewAtoms)+len(r.BaseAtoms)+len(r.Comps))
	for _, va := range r.ViewAtoms {
		parts = append(parts, "V"+va.String())
	}
	for _, a := range r.BaseAtoms {
		parts = append(parts, "B"+a.Key())
	}
	for _, c := range r.Comps {
		parts = append(parts, "C"+c.Key())
	}
	sort.Strings(parts)
	var sb strings.Builder
	for i, p := range parts {
		if i > 0 {
			sb.WriteByte(';')
		}
		sb.WriteString(p)
	}
	return sb.String()
}

// Rebind returns the rewriting with its constants renamed, as a rewriting of
// q — the equally renamed query. Definition 2.2 decides a rewriting by
// homomorphisms, which see a constant only through equality, so the
// rewritings of q are the renamed rewritings of r.Query (core.Engine keeps
// literal the constants for which that does not hold). Their order is not
// preserved: follow with SortByKey.
func (r *Rewriting) Rebind(rb cq.Rebind, q *cq.Query) *Rewriting {
	// Every renamed term list is cut from one slab.
	n := len(r.Head)
	for _, va := range r.ViewAtoms {
		n += len(va.Args)
	}
	for _, a := range r.BaseAtoms {
		n += len(a.Args)
	}
	slab := make([]cq.Term, 0, n)
	terms := func(ts []cq.Term) []cq.Term {
		if ts == nil {
			return nil
		}
		start := len(slab)
		for _, t := range ts {
			slab = append(slab, rb.Term(t))
		}
		return slab[start:len(slab):len(slab)]
	}
	out := &Rewriting{Query: q, Comps: rb.Comparisons(r.Comps), Head: terms(r.Head)}
	if r.ViewAtoms != nil {
		out.ViewAtoms = make([]ViewAtom, len(r.ViewAtoms))
		for i, va := range r.ViewAtoms {
			out.ViewAtoms[i] = ViewAtom{View: va.View, Args: terms(va.Args), def: va.def}
		}
	}
	if r.BaseAtoms != nil {
		out.BaseAtoms = make([]cq.Atom, len(r.BaseAtoms))
		for i, a := range r.BaseAtoms {
			out.BaseAtoms[i] = cq.Atom{Pred: a.Pred, Args: terms(a.Args)}
		}
	}
	return out
}

// renamed returns the rewriting's subgoals with their variables renamed by
// s and their constants by rb.
func (r *Rewriting) renamed(s cq.Subst, rb cq.Rebind) *Rewriting {
	out := &Rewriting{Query: r.Query, Head: r.Head}
	atom := func(a cq.Atom) cq.Atom {
		a = s.ApplyAtom(a)
		for i, t := range a.Args {
			a.Args[i] = rb.Term(t)
		}
		return a
	}
	for _, va := range r.ViewAtoms {
		out.ViewAtoms = append(out.ViewAtoms, ViewAtom{View: va.View, Args: atom(cq.Atom{Args: va.Args}).Args})
	}
	for _, a := range r.BaseAtoms {
		out.BaseAtoms = append(out.BaseAtoms, atom(a))
	}
	for _, c := range r.Comps {
		c = s.ApplyComparison(c)
		c.L, c.R = rb.Term(c.L), rb.Term(c.R)
		out.Comps = append(out.Comps, c)
	}
	return out
}

// Expand replaces every view atom by the view's body (existential variables
// freshened, head unified with the atom's arguments) yielding a query over
// base relations only — the rewriting's semantics. A view atom of an
// enumerated rewriting brings its definition normalized; only the freshening
// is per atom.
func (r *Rewriting) Expand() (*cq.Query, error) {
	out := &cq.Query{Name: r.Query.Name, Head: append([]cq.Term(nil), r.Head...)}
	for _, a := range r.BaseAtoms {
		out.Atoms = append(out.Atoms, a.Clone())
	}
	out.Comps = append(out.Comps, r.Comps...)
	for k, va := range r.ViewAtoms {
		def := va.def
		if def == nil {
			var sat bool
			if def, _, sat = normalizeView(va.View); !sat {
				return nil, fmt.Errorf("rewrite: view %s is unsatisfiable", va.View.Name)
			}
		}
		fresh, _, _ := def.Freshen("e"+strconv.Itoa(k)+"_", 0)
		if len(fresh.Head) != len(va.Args) {
			return nil, fmt.Errorf("rewrite: view %s arity mismatch", va.View.Name)
		}
		subst := make(cq.Subst)
		var extra []cq.Comparison
		for i, ht := range fresh.Head {
			arg := va.Args[i]
			if ht.IsConst {
				if arg.IsConst {
					if arg.Value != ht.Value {
						return nil, fmt.Errorf("rewrite: view %s head constant conflict", va.View.Name)
					}
					continue
				}
				extra = append(extra, cq.Comparison{L: arg, Op: cq.OpEq, R: ht})
				continue
			}
			if prev, ok := subst[ht.Name]; ok {
				if !prev.Equal(arg) {
					extra = append(extra, cq.Comparison{L: prev, Op: cq.OpEq, R: arg})
				}
				continue
			}
			subst[ht.Name] = arg
		}
		body := fresh.Apply(subst)
		out.Atoms = append(out.Atoms, body.Atoms...)
		out.Comps = append(out.Comps, body.Comps...)
		out.Comps = append(out.Comps, extra...)
	}
	return out, nil
}

// equivalentToQuery certifies the rewriting against its query.
func (r *Rewriting) equivalentToQuery() bool {
	exp, err := r.Expand()
	if err != nil {
		return false
	}
	if err := safeValidate(exp); err != nil {
		return false
	}
	return cq.Equivalent(exp, r.Query)
}

// normalizeView normalizes a view definition; tests count its calls.
var normalizeView = (*cq.Query).NormalizeConstants

func safeValidate(q *cq.Query) error {
	if len(q.Atoms) == 0 {
		return fmt.Errorf("no atoms")
	}
	return q.Validate()
}
