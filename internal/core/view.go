package core

import (
	"context"
	"fmt"
	"slices"
	"strconv"
	"sync"

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
	// query's head. It must not modify them: the engine's token cache keeps
	// them to bring the token forward across later commits.
	Fn func(rows *format.Rows) (*format.Object, error)

	// shape is CiteQ instantiated once for every token of the view
	// (citeShape); nil for a view not made by NewCitationView, which an
	// Engine refuses.
	shape *citeShape
}

// citeShape is a view's citation query instantiated at placeholder values —
// one per λ-parameter, none a constant of the query — and its physical
// shape. Every token's query is that instance with the placeholders renamed
// to the token's values, so the token's query is never built, only the
// shape's plan bound: a plan reads no constant's value at compile time, and
// one a token repeats, or shares with the query, is only bound twice.
type citeShape struct {
	inst  *cq.Query
	ph    []string
	shape physShape
}

func newCiteShape(citeQ *cq.Query) *citeShape {
	consts := make(map[string]bool)
	eachConst(citeQ, func(v string) { consts[v] = true })
	cs := &citeShape{ph: make([]string, len(citeQ.Params))}
	for i := range cs.ph {
		cs.ph[i] = "\x00λ" + strconv.Itoa(i)
		for consts[cs.ph[i]] {
			cs.ph[i] += "\x00"
		}
	}
	cs.inst, _ = instantiate(citeQ, cs.ph) // one value per parameter: it cannot fail
	cs.shape = shapeOf(cs.inst)
	return cs
}

// bind returns the renaming that makes the shape's instance the query citeQ
// — the view's citation query — makes of a token's values; a token with
// another number of values fails as instantiating citeQ at them would.
func (cs *citeShape) bind(citeQ *cq.Query, vals []string) (cq.Rebind, error) {
	if len(vals) != len(cs.ph) {
		return cq.Rebind{}, fmt.Errorf("core: %s expects %d parameter values, got %d", citeQ.Name, len(cs.ph), len(vals))
	}
	return cq.NewRebind(cs.ph, vals), nil
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
	return &CitationView{Def: def, CiteQ: citeQ, Spec: spec, shape: newCiteShape(citeQ)}, nil
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

// renderTokenCtx renders the token's citation — F_V(C_V(a⃗)) in the paper's
// notation — at the target's snapshot, with the caller's context flowing
// into the citation-query evaluation, where cancellation must reach the
// underlying shard scans. The query is the view's citeShape bound to the
// token's values. It returns the rows the record was rendered from beside
// it.
func (v *CitationView) renderTokenCtx(ctx context.Context, t evalTarget, tok Token) (obj *format.Object, rows *format.Rows, err error) {
	if tok.Kind != ViewToken || tok.Name != v.Name() {
		return nil, nil, fmt.Errorf("core: token %s does not belong to view %s", tok, v.Name())
	}
	// The request's ctx flows into the enumeration: a canceled caller aborts
	// its own token rendering. That cannot poison the shared rendered-token
	// cache — the cache never stores errors, and waiters of a failed
	// singleflight retry the computation themselves.
	rb, err := v.shape.bind(v.CiteQ, tok.Params)
	if err != nil {
		return nil, nil, err
	}
	inst := v.shape.inst
	pl, err := t.boundPlan(ctx, inst, v.shape.shape, rb)
	if err != nil {
		return nil, nil, err
	}
	rows, err = tokenRows(pl.Vars(), func(add func(frame []string)) error {
		return pl.Each(ctx, eval.Options{}, func(f []string) error { add(f); return nil })
	}, inst.Head, rb, v.CiteQ.Params, tok.Params)
	if err != nil {
		return nil, nil, err
	}
	obj, err = v.render(rows)
	return obj, rows, err
}

// render applies the citation function F_V to the citation query's rows.
func (v *CitationView) render(rows *format.Rows) (*format.Object, error) {
	if v.Fn != nil {
		return v.Fn(rows)
	}
	return v.Spec.Render(rows)
}

// deltaRows is the semi-naive delta rule for a token's citation query over
// inserts: the rows C_V(a⃗) — inst, instantiated at params — gained between
// an earlier snapshot and the target's, when every relation C_V reads only
// gained rows in between; changes reports a relation's writes between the
// two. The query is evaluated once per
// atom whose relation gained any, that atom reading only the inserted rows
// and every other atom the new snapshot: a new row binds some atom to an
// inserted tuple, and an old one binds none. Rows two atoms' evaluations
// share are kept once. ok is false when the rule does not apply — a
// relation of C_V lost a row, or its changes are no longer known — and the
// token must be rendered afresh.
func (v *CitationView) deltaRows(ctx context.Context, changes func(rel string) *relChanges, t evalTarget, inst *cq.Query, params []string) (rows *format.Rows, ok bool, err error) {
	// The inserted tuples each atom can bind: those that agree with its
	// constants — a token's instantiated query is mostly a few point lookups,
	// and most inserts of a commit bind none of them.
	inserted := make([][]storage.Tuple, len(inst.Atoms))
	for i, a := range inst.Atoms {
		c := changes(a.Pred)
		if !c.known || c.deleted {
			return nil, false, nil
		}
		for _, t := range c.inserted {
			if agrees(a, t) {
				inserted[i] = append(inserted[i], t)
			}
		}
	}
	var plans []*eval.Plan
	for i, a := range inst.Atoms {
		ins := inserted[i]
		if len(ins) == 0 {
			continue
		}
		rel := t.view.Relation(a.Pred)
		if rel == nil {
			return nil, false, nil
		}
		q := *inst
		q.Atoms = slices.Clone(inst.Atoms)
		q.Atoms[i].Pred = deltaPred
		pl, err := eval.Compile(deltaView{DBView: t.view, delta: insertedRel{rs: rel.Schema(), rows: ins}}, &q)
		if err != nil {
			return nil, false, nil
		}
		plans = append(plans, pl)
	}
	if len(plans) == 0 {
		return nil, true, nil
	}
	seen := make(map[string]bool)
	rows, err = tokenRows(plans[0].Vars(), func(add func(frame []string)) error {
		for _, pl := range plans {
			err := pl.Each(ctx, eval.Options{}, func(f []string) error {
				if k := storage.Tuple(f).Key(); !seen[k] {
					seen[k] = true
					add(f)
				}
				return nil
			})
			if err != nil {
				return err
			}
		}
		return nil
	}, inst.Head, cq.Rebind{}, v.CiteQ.Params, params)
	if err != nil {
		return nil, false, err
	}
	return rows, true, nil
}

// relChanges is what a relation's writes between two snapshots come to:
// known false when they are no longer known, deleted when one of them is a
// delete, else the inserted tuples.
type relChanges struct {
	known, deleted bool
	inserted       []storage.Tuple
}

// agrees reports whether atom a can bind tuple t: t has a's arity and a's
// constants where a has them.
func agrees(a cq.Atom, t storage.Tuple) bool {
	if len(t) != len(a.Args) {
		return false
	}
	for i, arg := range a.Args {
		if arg.IsConst && t[i] != arg.Value {
			return false
		}
	}
	return true
}

// deltaPred names the atom that reads the inserted rows in one evaluation of
// the delta rule; no relation of a schema can be called so.
const deltaPred = "\x00inserted"

// deltaView is a snapshot with one more relation, deltaPred: a relation's
// inserted rows.
type deltaView struct {
	eval.DBView
	delta insertedRel
}

func (d deltaView) Relation(name string) eval.RelView {
	if name == deltaPred {
		return d.delta
	}
	return d.DBView.Relation(name)
}

// insertedRel is the rows inserted into a relation between two snapshots,
// as the delta rule's one atom reads them: few, so a lookup filters a scan.
type insertedRel struct {
	rs   *storage.RelSchema
	rows []storage.Tuple
}

func (r insertedRel) Schema() *storage.RelSchema { return r.rs }
func (r insertedRel) Len() int                   { return len(r.rows) }

func (r insertedRel) Scan(fn func(t storage.Tuple) bool) {
	for _, t := range r.rows {
		if !fn(t) {
			return
		}
	}
}

func (r insertedRel) Lookup(cols []int, vals []string, fn func(t storage.Tuple) bool) {
rows:
	for _, t := range r.rows {
		for i, c := range cols {
			if t[c] != vals[i] {
				continue rows
			}
		}
		if !fn(t) {
			return
		}
	}
}

// tokenRows collects the frames each delivers — valuations of vars — into a
// token's row set, sorted by the instantiated citation query's head (head
// with its constants renamed by rb). A column
// per variable, in slot order, then the λ-parameters: instantiation
// substitutes them away, but citation functions refer to them (the "ID": F
// field of FV1). One named like a variable takes its column.
func tokenRows(vars []string, each func(add func(frame []string)) error, head []cq.Term, rb cq.Rebind, paramNames, paramVals []string) (*format.Rows, error) {
	cols := slices.Clip(vars)
	paramCol := make([]int, len(paramNames))
	for i, name := range paramNames {
		if paramCol[i] = slices.Index(cols, name); paramCol[i] < 0 {
			paramCol[i], cols = len(cols), append(cols, name)
		}
	}
	// The rows gather in a pooled buffer and leave it in one exact copy.
	scratch := rowScratch.Get().(*[]string)
	buf, n := (*scratch)[:0], 0
	err := each(func(frame []string) {
		start := len(buf)
		buf = slices.Grow(buf, len(cols))[:start+len(cols)]
		copy(buf[start:], frame)
		for i, c := range paramCol {
			buf[start+c] = paramVals[i]
		}
		n++
	})
	rows := format.RowsOf(cols, slices.Clone(buf), n)
	clear(buf)
	if *scratch = buf; cap(buf) <= maxRowScratch {
		rowScratch.Put(scratch)
	}
	var lead [8]format.KeyPart
	rows.Sort(headOrder(lead[:0], head, rb, rows))
	return rows, err
}

// rowScratch holds the buffers tokenRows gathers rows in; one holding more
// than maxRowScratch values is left to the collector rather than kept.
var rowScratch = sync.Pool{New: func() any { return new([]string) }}

// maxRowScratch is 64 KiB of string headers, the bound the facade keeps on
// its pooled render scratch (maxRenderScratch).
const maxRowScratch = (64 << 10) / 16

// headOrder appends the lead of a token's row order to dst: the
// instantiated citation query's head, its constants renamed by rb, a column
// of rows per variable.
func headOrder(dst []format.KeyPart, head []cq.Term, rb cq.Rebind, rows *format.Rows) []format.KeyPart {
	for _, t := range head {
		p := format.KeyPart{Col: -1, Lit: rb.Value(t.Value)}
		if t.IsVar() {
			p.Col = rows.Col(t.Name)
		}
		dst = append(dst, p)
	}
	return dst
}
