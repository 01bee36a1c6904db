package sqlfe

import (
	"fmt"
	"strings"

	"citare/internal/cq"
	"citare/internal/storage"
)

// tableInstance is one FROM-clause entry after aliasing.
type tableInstance struct {
	rel   *storage.RelSchema
	alias string
	vars  []cq.Term // one variable per column
}

type sqlParser struct {
	schema *storage.Schema
	toks   []token
	pos    int

	instances []*tableInstance // a query names a few: found by alias in a scan
	pendingOn []cq.Comparison
}

func (p *sqlParser) peek() token { return p.toks[p.pos] }
func (p *sqlParser) next() token { t := p.toks[p.pos]; p.pos++; return t }

func (p *sqlParser) errHere(format string, args ...any) error {
	return &Error{Pos: int(p.peek().pos), Msg: fmt.Sprintf(format, args...)}
}

// Parse translates a conjunctive SQL query into a cq.Query over the schema.
func Parse(schema *storage.Schema, sql string) (*cq.Query, error) {
	toks, err := lex(sql)
	if err != nil {
		return nil, err
	}
	p := &sqlParser{schema: schema, toks: toks}
	q, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	if p.peek().kind != tEOF {
		return nil, p.errHere("trailing input %q", p.peek().text)
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	return q, nil
}

type selectItem struct {
	star  bool
	value cq.Term
	label string
}

func (p *sqlParser) parseSelect() (*cq.Query, error) {
	if !keyword(p.peek(), "SELECT") {
		return nil, p.errHere("expected SELECT, found %q", p.peek().text)
	}
	p.next()
	if keyword(p.peek(), "DISTINCT") {
		p.next() // set semantics is the default
	}
	// Select list is resolved after FROM; remember raw tokens.
	selStart := p.pos
	depth := 0
	for {
		t := p.peek()
		if t.kind == tEOF {
			return nil, p.errHere("missing FROM clause")
		}
		if depth == 0 && keyword(t, "FROM") {
			break
		}
		if t.kind == tLParen {
			depth++
		}
		if t.kind == tRParen {
			depth--
		}
		p.next()
	}
	selEnd := p.pos
	p.next() // FROM

	if err := p.parseFrom(); err != nil {
		return nil, err
	}

	var comps []cq.Comparison
	joinOn := p.pendingOn
	p.pendingOn = nil
	comps = append(comps, joinOn...)

	if keyword(p.peek(), "WHERE") {
		p.next()
		for {
			c, err := p.parseCondition()
			if err != nil {
				return nil, err
			}
			comps = append(comps, c)
			if keyword(p.peek(), "AND") {
				p.next()
				continue
			}
			break
		}
	}

	// Now resolve the select list with full alias knowledge.
	saved := p.pos
	p.pos = selStart
	items, err := p.parseSelectList(selEnd)
	if err != nil {
		return nil, err
	}
	p.pos = saved

	q := &cq.Query{Name: "Q", Atoms: make([]cq.Atom, 0, len(p.instances)), Head: make([]cq.Term, 0, len(items))}
	for _, inst := range p.instances {
		q.Atoms = append(q.Atoms, cq.Atom{Pred: inst.rel.Name, Args: inst.vars})
	}
	// Unify column=column equalities directly (cleaner CQs); keep the rest
	// as comparison predicates.
	subst := make(cq.Subst)
	resolve := func(t cq.Term) cq.Term {
		for !t.IsConst {
			img, ok := subst[t.Name]
			if !ok || (img.IsVar() && img.Name == t.Name) {
				break
			}
			t = img
		}
		return t
	}
	residual := make([]cq.Comparison, 0, len(comps))
	for _, c := range comps {
		l, r := resolve(c.L), resolve(c.R)
		if c.Op == cq.OpEq && l.IsVar() && r.IsVar() {
			if l.Name != r.Name {
				subst[l.Name] = r
			}
			continue
		}
		residual = append(residual, cq.Comparison{L: l, Op: c.Op, R: r})
	}
	if len(subst) > 0 {
		q2 := q.Apply(subst)
		q.Atoms = q2.Atoms
		for i := range residual {
			residual[i] = subst.ApplyComparison(residual[i])
		}
	}
	if len(residual) > 0 {
		q.Comps = residual
	}
	for _, it := range items {
		head := it.value
		if head.IsVar() {
			head = resolve(subst.Apply(head))
		}
		q.Head = append(q.Head, head)
	}
	if len(q.Head) == 0 {
		return nil, &Error{Pos: 0, Msg: "empty select list"}
	}
	return q, nil
}

// parseSelectList parses items up to end (exclusive token position).
func (p *sqlParser) parseSelectList(end int) ([]selectItem, error) {
	var items []selectItem
	for {
		if p.pos >= end {
			return nil, p.errHere("empty select item")
		}
		t := p.peek()
		switch {
		case t.kind == tStar:
			p.next()
			for _, inst := range p.instances {
				for i, col := range inst.rel.Cols {
					items = append(items, selectItem{value: inst.vars[i], label: col.Name})
				}
			}
		case t.kind == tString || t.kind == tNumber:
			p.next()
			items = append(items, selectItem{value: cq.Const(t.text), label: t.text})
		case t.kind == tIdent:
			term, label, err := p.parseColumnRef()
			if err != nil {
				return nil, err
			}
			// Optional AS alias (cosmetic only).
			if p.pos < end && keyword(p.peek(), "AS") {
				p.next()
				if p.peek().kind != tIdent {
					return nil, p.errHere("expected alias after AS")
				}
				label = p.next().text
			}
			items = append(items, selectItem{value: term, label: label})
		default:
			return nil, p.errHere("unexpected %q in select list", t.text)
		}
		if p.pos < end && p.peek().kind == tComma {
			p.next()
			continue
		}
		break
	}
	if p.pos != end {
		return nil, p.errHere("unexpected %q in select list", p.peek().text)
	}
	return items, nil
}

func (p *sqlParser) parseFrom() error {
	if err := p.parseTableRef(); err != nil {
		return err
	}
	for {
		switch {
		case p.peek().kind == tComma:
			p.next()
			if err := p.parseTableRef(); err != nil {
				return err
			}
		case keyword(p.peek(), "JOIN") || keyword(p.peek(), "INNER"):
			if keyword(p.peek(), "INNER") {
				p.next()
			}
			if !keyword(p.peek(), "JOIN") {
				return p.errHere("expected JOIN")
			}
			p.next()
			if err := p.parseTableRef(); err != nil {
				return err
			}
			if !keyword(p.peek(), "ON") {
				return p.errHere("expected ON after JOIN")
			}
			p.next()
			for {
				c, err := p.parseCondition()
				if err != nil {
					return err
				}
				p.pendingOn = append(p.pendingOn, c)
				if keyword(p.peek(), "AND") {
					p.next()
					continue
				}
				break
			}
		default:
			return nil
		}
	}
}

func (p *sqlParser) parseTableRef() error {
	t := p.peek()
	if t.kind != tIdent {
		return p.errHere("expected table name, found %q", t.text)
	}
	rel := p.schema.Relation(t.text)
	if rel == nil {
		return p.errHere("unknown table %q", t.text)
	}
	p.next()
	alias := ""
	if keyword(p.peek(), "AS") {
		p.next()
		if p.peek().kind != tIdent {
			return p.errHere("expected alias after AS")
		}
		alias = p.next().text
	} else if p.peek().kind == tIdent && !isClauseKeyword(p.peek()) {
		alias = p.next().text
	}
	if alias == "" {
		alias = t.text
	}
	if p.byAlias(alias) != nil {
		return p.errHere("duplicate table alias %q (alias repeated table instances)", alias)
	}
	inst := &tableInstance{rel: rel, alias: alias, vars: make([]cq.Term, len(rel.Cols))}
	for i, col := range rel.Cols {
		inst.vars[i] = cq.Var(alias + "_" + col.Name)
	}
	p.instances = append(p.instances, inst)
	return nil
}

// byAlias returns the table instance of an alias, or nil.
func (p *sqlParser) byAlias(alias string) *tableInstance {
	for _, inst := range p.instances {
		if inst.alias == alias {
			return inst
		}
	}
	return nil
}

func isClauseKeyword(t token) bool {
	for _, kw := range []string{"WHERE", "JOIN", "INNER", "ON", "AND", "FROM", "SELECT", "AS"} {
		if keyword(t, kw) {
			return true
		}
	}
	return false
}

func (p *sqlParser) parseCondition() (cq.Comparison, error) {
	l, err := p.parseOperand()
	if err != nil {
		return cq.Comparison{}, err
	}
	opTok := p.peek()
	if opTok.kind != tOp {
		return cq.Comparison{}, p.errHere("expected comparison operator, found %q", opTok.text)
	}
	p.next()
	var op cq.CompOp
	switch opTok.text {
	case "=":
		op = cq.OpEq
	case "!=":
		op = cq.OpNe
	case "<":
		op = cq.OpLt
	case "<=":
		op = cq.OpLe
	case ">":
		op = cq.OpGt
	case ">=":
		op = cq.OpGe
	}
	r, err := p.parseOperand()
	if err != nil {
		return cq.Comparison{}, err
	}
	return cq.Comparison{L: l, Op: op, R: r}, nil
}

func (p *sqlParser) parseOperand() (cq.Term, error) {
	t := p.peek()
	switch t.kind {
	case tString, tNumber:
		p.next()
		return cq.Const(t.text), nil
	case tIdent:
		term, _, err := p.parseColumnRef()
		return term, err
	}
	return cq.Term{}, p.errHere("expected column or literal, found %q", t.text)
}

// parseColumnRef resolves [alias.]column to the corresponding variable.
func (p *sqlParser) parseColumnRef() (cq.Term, string, error) {
	first := p.next() // tIdent guaranteed by callers
	if p.peek().kind == tDot {
		p.next()
		if p.peek().kind != tIdent {
			return cq.Term{}, "", p.errHere("expected column after %q.", first.text)
		}
		colTok := p.next()
		inst := p.byAlias(first.text)
		if inst == nil {
			return cq.Term{}, "", &Error{Pos: int(first.pos), Msg: fmt.Sprintf("unknown table alias %q", first.text)}
		}
		idx := inst.rel.ColIndex(colTok.text)
		if idx < 0 {
			return cq.Term{}, "", &Error{Pos: int(colTok.pos),
				Msg: fmt.Sprintf("table %s has no column %q", inst.rel.Name, colTok.text)}
		}
		return inst.vars[idx], colTok.text, nil
	}
	// Bare column: must be unambiguous across FROM instances.
	var found cq.Term
	var label string
	matches := 0
	for _, inst := range p.instances {
		if idx := inst.rel.ColIndex(first.text); idx >= 0 {
			found = inst.vars[idx]
			label = first.text
			matches++
		}
	}
	switch matches {
	case 0:
		return cq.Term{}, "", &Error{Pos: int(first.pos), Msg: fmt.Sprintf("unknown column %q", first.text)}
	case 1:
		return found, label, nil
	default:
		return cq.Term{}, "", &Error{Pos: int(first.pos),
			Msg: fmt.Sprintf("ambiguous column %q (qualify with an alias, e.g. %s.%s)",
				first.text, strings.ToLower(p.instances[0].alias), first.text)}
	}
}
