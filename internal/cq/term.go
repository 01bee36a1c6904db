// Package cq implements the conjunctive-query (CQ) algebra that underlies
// the fine-grained data-citation model of Davidson et al. (CIDR 2017).
//
// The package provides terms, atoms and (possibly λ-parameterized) queries,
// together with the classical reasoning tasks the citation model relies on:
// homomorphism search, query containment and equivalence (Chandra–Merlin),
// query minimization, and canonical databases. Queries follow the paper's
// notation
//
//	λX. V(Y) :- Q
//
// where X ⊆ Y are the λ-parameters, Y the head (distinguished) variables and
// Q a conjunction of relational atoms and comparison predicates.
package cq

import (
	"fmt"
	"strconv"
	"strings"
)

// Term is either a variable or a constant. The zero value is an unnamed
// variable and is not valid; construct terms with Var and Const.
type Term struct {
	// IsConst reports whether the term is a constant.
	IsConst bool
	// Value holds the constant value when IsConst is true.
	Value string
	// Name holds the variable name when IsConst is false.
	Name string
}

// Var returns a variable term with the given name.
func Var(name string) Term { return Term{Name: name} }

// Const returns a constant term with the given value.
func Const(value string) Term { return Term{IsConst: true, Value: value} }

// IsVar reports whether the term is a variable.
func (t Term) IsVar() bool { return !t.IsConst }

// Equal reports whether two terms are identical.
func (t Term) Equal(u Term) bool {
	if t.IsConst != u.IsConst {
		return false
	}
	if t.IsConst {
		return t.Value == u.Value
	}
	return t.Name == u.Name
}

// String renders the term in the paper's notation: variables verbatim,
// constants double-quoted.
func (t Term) String() string {
	if t.IsConst {
		return strconv.Quote(t.Value)
	}
	return t.Name
}

// Key returns a collision-free encoding of the term, usable as a map key.
func (t Term) Key() string {
	if t.IsConst {
		return "c:" + t.Value
	}
	return "v:" + t.Name
}

// Atom is a relational subgoal R(t1, ..., tk).
type Atom struct {
	Pred string
	Args []Term
}

// NewAtom constructs an atom over the given predicate and terms.
func NewAtom(pred string, args ...Term) Atom {
	return Atom{Pred: pred, Args: args}
}

// Clone returns a deep copy of the atom.
func (a Atom) Clone() Atom {
	args := make([]Term, len(a.Args))
	copy(args, a.Args)
	return Atom{Pred: a.Pred, Args: args}
}

// Equal reports whether two atoms are syntactically identical.
func (a Atom) Equal(b Atom) bool {
	if a.Pred != b.Pred || len(a.Args) != len(b.Args) {
		return false
	}
	for i := range a.Args {
		if !a.Args[i].Equal(b.Args[i]) {
			return false
		}
	}
	return true
}

// String renders the atom, e.g. Family(F, N, "gpcr").
func (a Atom) String() string {
	var sb strings.Builder
	sb.WriteString(a.Pred)
	sb.WriteByte('(')
	for i, t := range a.Args {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(t.String())
	}
	sb.WriteByte(')')
	return sb.String()
}

// Key returns a collision-free encoding of the atom.
func (a Atom) Key() string {
	parts := make([]string, 0, len(a.Args)+1)
	parts = append(parts, a.Pred)
	for _, t := range a.Args {
		parts = append(parts, t.Key())
	}
	return strings.Join(parts, "\x00")
}

// CompOp is a comparison operator in a comparison predicate.
type CompOp int

// Comparison operators. The citation model itself only needs equality with
// constants (λ-absorption, Example 2.2), but the engine evaluates the full
// set.
const (
	OpEq CompOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
)

// String returns the surface syntax of the operator.
func (op CompOp) String() string {
	switch op {
	case OpEq:
		return "="
	case OpNe:
		return "!="
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	}
	return fmt.Sprintf("op(%d)", int(op))
}

// Flip returns the operator with its operands swapped (a op b == b op' a).
func (op CompOp) Flip() CompOp {
	switch op {
	case OpLt:
		return OpGt
	case OpLe:
		return OpGe
	case OpGt:
		return OpLt
	case OpGe:
		return OpLe
	}
	return op
}

// Comparison is a comparison predicate L op R.
type Comparison struct {
	L  Term
	Op CompOp
	R  Term
}

// String renders the comparison, e.g. Ty = "gpcr".
func (c Comparison) String() string {
	return c.L.String() + " " + c.Op.String() + " " + c.R.String()
}

// Key returns a collision-free, orientation-normalized encoding.
func (c Comparison) Key() string {
	n := c.norm()
	return n.L.Key() + "\x00" + n.Op.String() + "\x00" + n.R.Key()
}

// norm returns the comparison in the orientation Key spells: the symmetric
// operators with the smaller term key on the left, so that X = "a" and
// "a" = X are one comparison, and > and >= turned into < and <=.
func (c Comparison) norm() Comparison {
	switch c.Op {
	case OpEq, OpNe:
		if termKeyLess(c.R, c.L) {
			c.L, c.R = c.R, c.L
		}
	case OpGt, OpGe:
		c.L, c.R, c.Op = c.R, c.L, c.Op.Flip()
	}
	return c
}

// termKeyLess reports whether t.Key() < u.Key() without spelling either:
// constants ("c:") sort before variables ("v:").
func termKeyLess(t, u Term) bool {
	if t.IsConst != u.IsConst {
		return t.IsConst
	}
	if t.IsConst {
		return t.Value < u.Value
	}
	return t.Name < u.Name
}

// EvalConst evaluates the comparison when both sides are constants. The
// second return value reports whether evaluation was possible. Values that
// both parse as integers are compared numerically, otherwise
// lexicographically.
func (c Comparison) EvalConst() (bool, bool) {
	if !c.L.IsConst || !c.R.IsConst {
		return false, false
	}
	return CompareValues(c.L.Value, c.Op, c.R.Value), true
}

// CompareValues applies op to two raw values, comparing numerically when both
// parse as integers and lexicographically otherwise.
func CompareValues(a string, op CompOp, b string) bool {
	var cmp int
	ai, errA := strconv.ParseInt(a, 10, 64)
	bi, errB := strconv.ParseInt(b, 10, 64)
	if errA == nil && errB == nil {
		switch {
		case ai < bi:
			cmp = -1
		case ai > bi:
			cmp = 1
		}
	} else {
		cmp = strings.Compare(a, b)
	}
	switch op {
	case OpEq:
		return cmp == 0
	case OpNe:
		return cmp != 0
	case OpLt:
		return cmp < 0
	case OpLe:
		return cmp <= 0
	case OpGt:
		return cmp > 0
	case OpGe:
		return cmp >= 0
	}
	return false
}

// Subst is a substitution from variable names to terms.
type Subst map[string]Term

// Apply maps a term through the substitution. Unmapped variables and all
// constants are returned unchanged.
func (s Subst) Apply(t Term) Term {
	if t.IsConst {
		return t
	}
	if u, ok := s[t.Name]; ok {
		return u
	}
	return t
}

// ApplyAtom maps every argument of the atom through the substitution.
func (s Subst) ApplyAtom(a Atom) Atom {
	out := a.Clone()
	for i := range out.Args {
		out.Args[i] = s.Apply(out.Args[i])
	}
	return out
}

// ApplyComparison maps both sides of the comparison through the substitution.
func (s Subst) ApplyComparison(c Comparison) Comparison {
	return Comparison{L: s.Apply(c.L), Op: c.Op, R: s.Apply(c.R)}
}

// Clone returns a copy of the substitution.
func (s Subst) Clone() Subst {
	out := make(Subst, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}
