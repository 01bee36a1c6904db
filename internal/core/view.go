package core

import (
	"context"
	"fmt"
	"slices"

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
	// Fn, when non-nil, overrides Spec with a custom citation function. It
	// receives what Spec.Render would: the citation query's rows, a column
	// per variable and λ-parameter, sorted (format.Rows.Sort) by the citation
	// query's head.
	Fn func(rows *format.Rows) (*format.Object, error)
}

// Name returns the view's name.
func (v *CitationView) Name() string { return v.Def.Name }

// NewCitationView validates and assembles a citation view. Definition 2.1's
// structural requirements are enforced: both queries are safe, λ-parameters
// are head variables (X ⊆ Y), V and C_V share the same λ-term, and F_V reads
// only variables and λ-parameters of C_V.
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
	// Every token of the view would render such a field empty or drop it,
	// silently: a citation function may read only what its query provides.
	bound := append(citeQ.Vars(), citeQ.Params...)
	for _, name := range spec.Vars() {
		if !slices.Contains(bound, name) {
			return nil, fmt.Errorf("core: view %s: citation function reads variable %s, which citation query %s neither binds nor takes as a λ-parameter",
				def.Name, name, citeQ.Name)
		}
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
	return v.renderTokenCtx(context.Background(), evalTarget{view: eval.DBViewOf(db)}, tok, eval.Options{})
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
	// The request's ctx flows into the enumeration: a canceled caller aborts
	// its own token rendering. That cannot poison the shared rendered-token
	// cache — the cache never stores errors, and waiters of a failed
	// singleflight retry the computation themselves.
	pl, err := t.plan(ctx, inst)
	if err != nil {
		return nil, err
	}
	rows, err := tokenRows(pl.Vars(), func(add func(frame []string)) error {
		return pl.Each(ctx, opts, func(f []string, _ []eval.Match) error { add(f); return nil })
	}, inst.Head, v.CiteQ.Params, tok.Params)
	if err != nil {
		return nil, err
	}
	if v.Fn != nil {
		return v.Fn(rows)
	}
	return v.Spec.Render(rows)
}

// tokenRows collects the frames each delivers — valuations of vars — into a
// token's row set, sorted by the instantiated citation query's head. A column
// per variable, in slot order, then the λ-parameters: instantiation
// substitutes them away, but citation functions refer to them (the "ID": F
// field of FV1). One named like a variable takes its column.
func tokenRows(vars []string, each func(add func(frame []string)) error, head []cq.Term, paramNames, paramVals []string) (*format.Rows, error) {
	cols := slices.Clip(vars)
	paramCol := make([]int, len(paramNames))
	for i, name := range paramNames {
		if paramCol[i] = slices.Index(cols, name); paramCol[i] < 0 {
			paramCol[i], cols = len(cols), append(cols, name)
		}
	}
	rows := format.NewRows(cols...)
	row := make([]string, len(cols))
	err := each(func(frame []string) {
		copy(row, frame)
		for i, c := range paramCol {
			row[c] = paramVals[i]
		}
		rows.Append(row...)
	})
	lead := make([]format.KeyPart, len(head))
	for i, t := range head {
		if lead[i] = (format.KeyPart{Col: -1, Lit: t.Value}); t.IsVar() {
			lead[i].Col = rows.Col(t.Name)
		}
	}
	rows.Sort(lead)
	return rows, err
}
