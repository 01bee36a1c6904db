package provenance

import (
	"fmt"
	"sort"

	"citare/internal/cq"
	"citare/internal/eval"
	"citare/internal/storage"
)

// TupleToken builds the conventional token for a base tuple: Rel(v1,…,vk).
func TupleToken(rel string, t storage.Tuple) Token {
	return Token(rel + "(" + joinVals(t) + ")")
}

func joinVals(t storage.Tuple) string {
	out := ""
	for i, v := range t {
		if i > 0 {
			out += ","
		}
		out += v
	}
	return out
}

// Annotated is the provenance annotation of one output tuple.
type Annotated[T any] struct {
	Tuple storage.Tuple
	Value T
}

// Annotate evaluates q over db under the given semiring: every base tuple is
// annotated via annot, each binding contributes the ·-product of its matched
// tuples' annotations, and alternative bindings for the same output tuple
// are combined with +. The result is deterministically ordered by tuple key.
//
// This is exactly the SPJU annotation propagation of provenance semirings
// restricted to a single CQ (projections/joins); unions are handled by
// AnnotateUnion.
func Annotate[T any](db *storage.DB, q *cq.Query, sr Semiring[T], annot func(rel string, t storage.Tuple) T) ([]Annotated[T], error) {
	acc := make(map[string]T)
	tuples := make(map[string]storage.Tuple)
	err := eval.EachBinding(eval.DBViewOf(db), q, eval.Options{}, func(b eval.Binding, matches []eval.Match) error {
		out := make(storage.Tuple, len(q.Head))
		for i, t := range q.Head {
			if t.IsConst {
				out[i] = t.Value
			} else {
				out[i] = b[t.Name]
			}
		}
		term := sr.One()
		for _, m := range matches {
			term = sr.Times(term, annot(m.Rel, m.Tuple))
		}
		k := out.Key()
		if prev, ok := acc[k]; ok {
			acc[k] = sr.Plus(prev, term)
		} else {
			acc[k] = term
			tuples[k] = out
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	keys := make([]string, 0, len(acc))
	for k := range acc {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]Annotated[T], len(keys))
	for i, k := range keys {
		out[i] = Annotated[T]{Tuple: tuples[k], Value: acc[k]}
	}
	return out, nil
}

// AnnotateUnion evaluates a union of CQs (all with the same head arity),
// combining annotations of tuples produced by different disjuncts with +.
func AnnotateUnion[T any](db *storage.DB, qs []*cq.Query, sr Semiring[T], annot func(rel string, t storage.Tuple) T) ([]Annotated[T], error) {
	if len(qs) == 0 {
		return nil, fmt.Errorf("provenance: empty union")
	}
	arity := len(qs[0].Head)
	acc := make(map[string]T)
	tuples := make(map[string]storage.Tuple)
	for _, q := range qs {
		if len(q.Head) != arity {
			return nil, fmt.Errorf("provenance: union arity mismatch (%d vs %d)", len(q.Head), arity)
		}
		part, err := Annotate(db, q, sr, annot)
		if err != nil {
			return nil, err
		}
		for _, a := range part {
			k := a.Tuple.Key()
			if prev, ok := acc[k]; ok {
				acc[k] = sr.Plus(prev, a.Value)
			} else {
				acc[k] = a.Value
				tuples[k] = a.Tuple
			}
		}
	}
	keys := make([]string, 0, len(acc))
	for k := range acc {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]Annotated[T], len(keys))
	for i, k := range keys {
		out[i] = Annotated[T]{Tuple: tuples[k], Value: acc[k]}
	}
	return out, nil
}

// PolyProvenance annotates each base tuple with its own token and returns
// the provenance polynomial of every output tuple — the "most informative"
// provenance from which any other semiring is obtained by EvalPoly.
func PolyProvenance(db *storage.DB, q *cq.Query) ([]Annotated[Poly], error) {
	return Annotate[Poly](db, q, PolySemiring{}, func(rel string, t storage.Tuple) Poly {
		return PolyFromToken(TupleToken(rel, t))
	})
}
