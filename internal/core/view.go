package core

import (
	"context"
	"fmt"
	"sort"

	"citare/internal/cq"
	"citare/internal/datalog"
	"citare/internal/eval"
	"citare/internal/format"
	"citare/internal/storage"
)

// CitationView is the paper's Definition 2.1: a triple (V, C_V, F_V) of a
// (possibly λ-parameterized) view definition, a citation query sharing the
// same parameters, and a citation function shaping the citation query's
// output into a citation record.
type CitationView struct {
	// Def is the view definition λX. V(Y) :- Q.
	Def *cq.Query
	// CiteQ is the citation query λX. C_V(Y') :- Q'.
	CiteQ *cq.Query
	// Spec is the declarative citation function F_V.
	Spec *format.Spec
	// Fn, when non-nil, overrides Spec with a custom citation function.
	Fn func(rows []map[string]string) (*format.Object, error)
}

// Name returns the view's name.
func (v *CitationView) Name() string { return v.Def.Name }

// NewCitationView validates and assembles a citation view. Definition 2.1's
// structural requirements are enforced: both queries are safe, λ-parameters
// are head variables (X ⊆ Y), and V and C_V share the same λ-term.
func NewCitationView(def, citeQ *cq.Query, spec *format.Spec) (*CitationView, error) {
	if def == nil || citeQ == nil {
		return nil, fmt.Errorf("core: citation view requires both a view definition and a citation query")
	}
	if err := def.Validate(); err != nil {
		return nil, fmt.Errorf("core: view %s: %w", def.Name, err)
	}
	if err := citeQ.Validate(); err != nil {
		return nil, fmt.Errorf("core: citation query %s: %w", citeQ.Name, err)
	}
	if len(def.Params) != len(citeQ.Params) {
		return nil, fmt.Errorf("core: view %s and citation query %s must share the λ-term (got %v vs %v)",
			def.Name, citeQ.Name, def.Params, citeQ.Params)
	}
	for i := range def.Params {
		if def.Params[i] != citeQ.Params[i] {
			return nil, fmt.Errorf("core: view %s and citation query %s must share the λ-term (got %v vs %v)",
				def.Name, citeQ.Name, def.Params, citeQ.Params)
		}
	}
	if spec == nil {
		spec = defaultSpec(citeQ)
	}
	return &CitationView{Def: def, CiteQ: citeQ, Spec: spec}, nil
}

// defaultSpec lists every head variable of the citation query as a list
// field.
func defaultSpec(citeQ *cq.Query) *format.Spec {
	spec := &format.Spec{}
	for _, t := range citeQ.Head {
		if t.IsVar() {
			spec.Fields = append(spec.Fields, format.Field{Key: t.Name, Kind: format.FList, Var: t.Name})
		}
	}
	return spec
}

// FromDecl converts a parsed datalog view declaration into a CitationView.
func FromDecl(d *datalog.ViewDecl) (*CitationView, error) {
	return NewCitationView(d.View, d.Cite, d.Fmt)
}

// FromProgram converts a parsed citation-view program.
func FromProgram(p *datalog.Program) ([]*CitationView, error) {
	out := make([]*CitationView, 0, len(p.Views))
	for _, d := range p.Views {
		cv, err := FromDecl(d)
		if err != nil {
			return nil, err
		}
		out = append(out, cv)
	}
	return out, nil
}

// InstantiatedDef returns the view definition with λ-parameters bound to the
// token's values — the view instance V(Y)(a1,…,an) of the paper.
func (v *CitationView) InstantiatedDef(params []string) (*cq.Query, error) {
	return instantiate(v.Def, params)
}

// InstantiatedCiteQ returns the citation query instance C_V(Y')(a1,…,an).
func (v *CitationView) InstantiatedCiteQ(params []string) (*cq.Query, error) {
	return instantiate(v.CiteQ, params)
}

func instantiate(q *cq.Query, params []string) (*cq.Query, error) {
	if len(params) != len(q.Params) {
		return nil, fmt.Errorf("core: %s expects %d parameter values, got %d", q.Name, len(q.Params), len(params))
	}
	s := make(cq.Subst, len(params))
	for i, name := range q.Params {
		s[name] = cq.Const(params[i])
	}
	return q.Apply(s), nil
}

// RenderToken evaluates the citation for a single token against the
// database: the citation query is instantiated at the token's parameter
// values, evaluated, and shaped by the citation function — F_V(C_V(a⃗)) in
// the paper's notation. RelTokens render as a marker record.
func (v *CitationView) RenderToken(db *storage.DB, tok Token) (*format.Object, error) {
	return v.renderTokenOn(evalTarget{view: eval.DBViewOf(db)}, tok)
}

// RenderTokenSharded is RenderToken against a hash-partitioned database:
// the citation query evaluates scatter-gather with shard pruning, so a
// λ-parameter binding the shard key touches a single shard.
func (v *CitationView) RenderTokenSharded(p eval.Partitioned, tok Token) (*format.Object, error) {
	return v.renderTokenOn(evalTarget{view: p}, tok)
}

func (v *CitationView) renderTokenOn(t evalTarget, tok Token) (*format.Object, error) {
	return v.renderTokenCtx(context.Background(), t, tok, eval.Options{})
}

// renderTokenCtx renders the token's citation with the caller's context and
// evaluation options flowing into the citation-query evaluation — the
// engine's path, where cancellation and the resilient scatter driver must
// reach the underlying shard scans.
func (v *CitationView) renderTokenCtx(ctx context.Context, t evalTarget, tok Token, opts eval.Options) (*format.Object, error) {
	if tok.Kind != ViewToken || tok.Name != v.Name() {
		return nil, fmt.Errorf("core: token %s does not belong to view %s", tok, v.Name())
	}
	inst, err := v.InstantiatedCiteQ(tok.Params)
	if err != nil {
		return nil, err
	}
	rows, err := citationRows(ctx, t, inst, opts, v.CiteQ.Params, tok.Params)
	if err != nil {
		return nil, err
	}
	if v.Fn != nil {
		return v.Fn(rows)
	}
	return v.Spec.Render(rows)
}

// citationRows enumerates the bindings of the instantiated citation query
// as variable→value maps, re-adding the λ-parameter values (instantiation
// substitutes them away, but citation functions refer to them, e.g. the
// "ID": F field of FV1). Rows are ordered by the citation query's head
// values (so lists and groups render in C_V's output order), with the full
// binding as a tiebreak.
func citationRows(ctx context.Context, t evalTarget, inst *cq.Query, opts eval.Options, paramNames, paramVals []string) ([]map[string]string, error) {
	type sortedRow struct {
		key string
		row map[string]string
	}
	var rows []sortedRow
	// The request's ctx flows into the enumeration: a canceled caller aborts
	// its own token rendering. That cannot poison the shared rendered-token
	// cache — the cache never stores errors, and waiters of a failed
	// singleflight retry the computation themselves.
	pl, err := t.plan(ctx, inst)
	if err != nil {
		return nil, err
	}
	vars := pl.Vars()
	err = pl.Each(ctx, opts, func(frame []string, _ []eval.Match) error {
		row := make(map[string]string, len(vars)+len(paramNames))
		for i, name := range vars {
			row[name] = frame[i]
		}
		for i, name := range paramNames {
			row[name] = paramVals[i]
		}
		var head []byte
		for _, t := range inst.Head {
			if t.IsConst {
				head = append(head, t.Value...)
			} else {
				head = append(head, row[t.Name]...)
			}
			head = append(head, 0)
		}
		rows = append(rows, sortedRow{key: string(head) + rowKey(row), row: row})
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].key < rows[j].key })
	out := make([]map[string]string, len(rows))
	for i, r := range rows {
		out[i] = r.row
	}
	return out, nil
}

func rowKey(row map[string]string) string {
	keys := make([]string, 0, len(row))
	for k := range row {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb []byte
	for _, k := range keys {
		sb = append(sb, k...)
		sb = append(sb, 0)
		sb = append(sb, row[k]...)
		sb = append(sb, 0)
	}
	return string(sb)
}
