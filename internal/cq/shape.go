package cq

import "strconv"

// Query shapes: constant lifting and rebinding.
//
// Every reasoning task in this package sees a constant only through
// equality (homomorphisms compare constants, they never order them), and a
// physical plan's join order depends only on which positions hold a
// constant, not on its value. Two queries that differ only by an injective
// renaming of such constants therefore compile to the same plans up to that
// renaming. Shape makes the renaming-invariant part a cache key; Rebind
// carries a plan compiled for one member of the shape over to another.

// Shape lifts the query's constants to positional parameters. It returns a
// key identifying the query up to the values of the lifted constants, and
// those values in first-occurrence order (head, atoms, comparisons). Equal
// constants share one parameter, so the equality pattern among constants is
// part of the key; a constant for which literal reports true stays in the
// key by value (literal == nil lifts every constant). A value is lifted or
// kept as a whole: literal must answer the same for every occurrence.
//
// The key is order-sensitive (atoms and comparisons are not sorted) and
// spells variable names as they are: a compiled plan exposes both. Every
// string is length-framed and a lifted position is written as a tagged
// index no term can spell, so the key is collision-free whatever bytes the
// names and constants contain.
func (q *Query) Shape(literal func(value string) bool) (key string, params []string) {
	buf := make([]byte, 0, 128)
	term := func(t Term) {
		switch {
		case !t.IsConst:
			buf = appendFramed(append(buf, 'v'), t.Name)
		case literal != nil && literal(t.Value):
			buf = appendFramed(append(buf, 'c'), t.Value)
		default:
			i := 0
			for i < len(params) && params[i] != t.Value {
				i++
			}
			if i == len(params) {
				params = append(params, t.Value)
			}
			buf = strconv.AppendInt(append(buf, 'p'), int64(i), 10)
			buf = append(buf, ',')
		}
	}
	buf = appendFramed(buf, q.Name)
	for _, p := range q.Params {
		buf = appendFramed(append(buf, 'l'), p)
	}
	buf = append(buf, 'H')
	for _, t := range q.Head {
		term(t)
	}
	for _, a := range q.Atoms {
		buf = appendFramed(append(buf, 'A'), a.Pred)
		for _, t := range a.Args {
			term(t)
		}
	}
	for _, c := range q.Comps {
		buf = append(buf, 'C', byte('0'+c.Op))
		term(c.L)
		term(c.R)
	}
	return string(buf), params
}

// appendFramed appends s preceded by its length, so that whatever follows
// cannot be mistaken for part of it.
func appendFramed(buf []byte, s string) []byte {
	buf = strconv.AppendInt(buf, int64(len(s)), 10)
	buf = append(buf, ':')
	return append(buf, s...)
}

// Rebind renames constants: the i-th constant of one parameter list becomes
// the i-th of another, every other constant stays. It carries a plan
// compiled for the first query of a shape to a later query of that shape;
// the zero Rebind is the identity. The lists have equal length and the
// first no repeated value; lists from Shape under one key have none either.
type Rebind struct {
	from, to []string
}

// NewRebind returns the renaming from one Shape parameter list to another
// of the same key: the identity when the lists are equal.
func NewRebind(from, to []string) Rebind {
	for i := range from {
		if from[i] != to[i] {
			return Rebind{from: from, to: to}
		}
	}
	return Rebind{}
}

// Identity reports whether the renaming changes nothing; callers then share
// the compiled plan instead of copying it.
func (r Rebind) Identity() bool { return len(r.from) == 0 }

// Value renames one constant value.
func (r Rebind) Value(v string) string {
	for i, f := range r.from {
		if f == v {
			return r.to[i]
		}
	}
	return v
}

// Term renames a constant term; variables pass through.
func (r Rebind) Term(t Term) Term {
	if t.IsConst {
		t.Value = r.Value(t.Value)
	}
	return t
}

// Comparisons returns a renamed copy of the comparison list.
func (r Rebind) Comparisons(cs []Comparison) []Comparison {
	if cs == nil {
		return nil
	}
	out := make([]Comparison, len(cs))
	for i, c := range cs {
		out[i] = Comparison{L: r.Term(c.L), Op: c.Op, R: r.Term(c.R)}
	}
	return out
}

// Query returns a renamed copy of the query, its terms cut from one slab as
// Clone cuts them.
func (r Rebind) Query(q *Query) *Query {
	out := q.Clone()
	out.Params = q.Params
	for i := range out.Head {
		out.Head[i] = r.Term(out.Head[i])
	}
	for _, a := range out.Atoms {
		for i := range a.Args {
			a.Args[i] = r.Term(a.Args[i])
		}
	}
	for i := range out.Comps {
		out.Comps[i].L, out.Comps[i].R = r.Term(out.Comps[i].L), r.Term(out.Comps[i].R)
	}
	return out
}
