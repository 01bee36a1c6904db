package core

import (
	"fmt"
	"slices"

	"citare/internal/cq"
	"citare/internal/provenance"
	"citare/internal/rewrite"
	"citare/internal/storage"
)

// unfolded is a certified rewriting in the form the engine evaluates it:
// through its expansion — the query over base relations the rewriting was
// certified equivalent with — on the epoch's snapshot, never over stored view
// relations. A view relation is a set, so a rewriting has one binding per
// valuation of its own variables; the expansion also ranges over the views'
// existential variables, so frames that agree on the rewriting's variables
// are one binding (Definition 3.2 sums over bindings). Built once per query
// shape beside the rewritings and shared read-only by every query of it.
type unfolded struct {
	r *rewrite.Rewriting
	// exp is the expansion of the shape's rewriting, and expShape its
	// physical shape. A later query of the shape reads r, exp and params
	// with their constants renamed by its own vector (Prepared.rb).
	exp      *cq.Query
	expShape physShape
	// views resolves r.ViewAtoms, in order, to the engine's citation views;
	// params are their λ-parameter terms, atom after atom, and baseToks
	// the C_R tokens of r's base atoms under the policy, encoded once.
	views    []viewAtomInfo
	params   []cq.Term
	baseToks []provenance.Token
	// own are r's own variables. dedupe says that two frames of exp can
	// agree on all of them; when false every frame is a binding of its own.
	own    []cq.Term
	dedupe bool
	// rename maps exp's variables onto the shape's minimized query when exp
	// is that query renamed: the frames of the output evaluation are then
	// exp's frames, and the rewriting's bindings are read off them. nil:
	// the rewriting enumerates exp on its own.
	rename cq.Subst
}

// viewAtomInfo pairs one view atom of a rewriting with its resolved citation
// view and the head positions its λ-parameters read from.
type viewAtomInfo struct {
	view     *CitationView
	paramPos []int
}

// unfold prepares a certified rewriting of the minimized query min for
// evaluation; canon is min's canonical renaming inverted (canonicalNames).
func (e *Engine) unfold(r *rewrite.Rewriting, min *cq.Query, canon map[string]string) (*unfolded, error) {
	exp, err := r.Expand()
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	u := &unfolded{r: r, exp: exp, expShape: shapeOf(exp), views: make([]viewAtomInfo, len(r.ViewAtoms))}
	for i, va := range r.ViewAtoms {
		v := e.byName[va.View.Name]
		if v == nil {
			return nil, fmt.Errorf("core: rewriting uses unknown view %s", va.View.Name)
		}
		pos, err := v.Def.ParamPositions()
		if err != nil {
			return nil, err
		}
		u.views[i] = viewAtomInfo{view: v, paramPos: pos}
		for _, hp := range pos {
			u.params = append(u.params, va.Args[hp])
		}
	}
	if e.policy.IncludeBaseTokens {
		for _, a := range r.BaseAtoms {
			u.baseToks = append(u.baseToks, NewRelToken(a.Pred).Encode())
		}
	}

	// r's own variables: those of r read as a query over the views.
	asQuery := &cq.Query{Head: r.Head, Atoms: slices.Clone(r.BaseAtoms), Comps: r.Comps}
	for _, va := range r.ViewAtoms {
		asQuery.Atoms = append(asQuery.Atoms, cq.Atom{Pred: va.View.Name, Args: va.Args})
	}
	vars := asQuery.Vars()
	own := make(map[string]bool, len(vars))
	for _, v := range vars {
		own[v] = true
		u.own = append(u.own, cq.Var(v))
	}
	u.dedupe = e.needsDedupe(exp, own)
	u.rename = renaming(exp, min, canon)
	return u, nil
}

// canonicalNames maps each canonical variable name of q
// (cq.Query.CanonicalRenaming) back to q's own.
func canonicalNames(q *cq.Query) map[string]string {
	canon := make(map[string]string)
	for v, c := range q.CanonicalRenaming() {
		canon[c.Name] = v
	}
	return canon
}

// renaming returns the renaming h of exp's variables with h(exp) equal to
// min atom for atom, comparison for comparison and head for head, or nil
// when there is none. It is found by the canonical renamings of the two,
// which spell isomorphic queries alike — canon is min's, inverted by
// canonicalNames; a rebind renames only constants, so h holds for every
// query of the shape.
func renaming(exp, min *cq.Query, canon map[string]string) cq.Subst {
	h := make(cq.Subst)
	for v, c := range exp.CanonicalRenaming() {
		h[v] = cq.Var(canon[c.Name])
	}
	if exp.Apply(h).Key() != min.Key() {
		return nil
	}
	return h
}

// needsDedupe decides whether the expansion can yield two frames that agree
// on the rewriting's own variables. It cannot when every atom that mentions
// an existential variable of a view has its relation's declared key bound to
// own variables and constants: relations are sets, so the own variables then
// fix every matched tuple, and with it the whole frame.
func (e *Engine) needsDedupe(exp *cq.Query, own map[string]bool) bool {
	schema := e.src.Schema()
	partitioned := e.curState().part != nil
	for _, a := range exp.Atoms {
		existential := false
		for _, t := range a.Args {
			if t.IsVar() && !own[t.Name] {
				existential = true
				break
			}
		}
		if existential && !keyBound(schema.Relation(a.Pred), a, own, partitioned) {
			return true
		}
	}
	return false
}

// keyBound reports whether the atom binds every column of its relation's
// primary key to an own variable or a constant, for a key the store enforces
// over the whole relation. A partitioned store checks keys inside each part,
// which is global only when the key contains the shard-key column.
func keyBound(rs *storage.RelSchema, a cq.Atom, own map[string]bool, partitioned bool) bool {
	if rs == nil || len(rs.Key) == 0 || len(a.Args) != rs.Arity() {
		return false
	}
	routed := !partitioned
	for _, k := range rs.Key {
		col := rs.ColIndex(k)
		if t := a.Args[col]; t.IsVar() && !own[t.Name] {
			return false
		}
		routed = routed || col == rs.ShardKeyIndex()
	}
	return routed
}
