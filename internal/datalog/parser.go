package datalog

import (
	"fmt"

	"citare/internal/cq"
	"citare/internal/format"
)

// parser is a recursive-descent parser over the lexer's token stream, read
// two tokens ahead at most: no token list is built. A lexing error ends the
// stream — the parser sees end of input there — and is what finish reports,
// as if the whole input had been lexed before parsing began.
type parser struct {
	lx  lexer
	la  [2]token // lookahead
	n   int      // tokens held in la
	err error    // the lexing error that ended the stream
	// terms is the slab every term list is cut from, sized by listsBound;
	// atoms, when set, the atom list's capacity for the next rule.
	terms []cq.Term
	atoms int
}

func newParser(src string) *parser {
	lists, terms := listsBound(src)
	return &parser{lx: newLexer(src), terms: make([]cq.Term, 0, terms), atoms: lists}
}

// listsBound bounds the term lists of src, one per opening parenthesis, and
// their terms: one per list and one per comma inside parentheses. A quoted
// parenthesis can throw the count off; the lists then grow.
func listsBound(src string) (lists, terms int) {
	depth := 0
	for i := 0; i < len(src); i++ {
		switch src[i] {
		case '(':
			lists, terms, depth = lists+1, terms+1, depth+1
		case ')':
			depth = max(depth-1, 0)
		case ',':
			if depth > 0 {
				terms++
			}
		}
	}
	return lists, terms
}

// fill holds k tokens of lookahead.
func (p *parser) fill(k int) {
	for p.n < k {
		t := token{kind: tokEOF, line: p.lx.line, col: p.lx.col}
		if p.err == nil {
			var err error
			if t, err = p.lx.next(); err != nil {
				p.err, t = err, token{kind: tokEOF, line: p.lx.line, col: p.lx.col}
			}
		}
		p.la[p.n] = t
		p.n++
	}
}

func (p *parser) peek() token       { p.fill(1); return p.la[0] }
func (p *parser) peek2() token      { p.fill(2); return p.la[1] }
func (p *parser) at(k tokKind) bool { return p.peek().kind == k }

func (p *parser) next() token {
	t := p.peek()
	p.la[0], p.n = p.la[1], p.n-1
	return t
}

// finish returns what a parse came to: the first lexing error of the input,
// if it has one — the rest of the input is lexed to find it after a parse
// error — else err.
func (p *parser) finish(err error) error {
	for err != nil && p.err == nil {
		t, lerr := p.lx.next()
		if lerr != nil {
			p.err = lerr
		}
		if t.kind == tokEOF {
			break
		}
	}
	if p.err != nil {
		return p.err
	}
	return err
}

func (p *parser) expect(k tokKind) (token, error) {
	t := p.peek()
	if t.kind != k {
		return t, &Error{Line: t.line, Col: t.col,
			Msg: fmt.Sprintf("expected %s, found %s %q", k, t.kind, t.text)}
	}
	return p.next(), nil
}

func (p *parser) errHere(format string, args ...any) error {
	t := p.peek()
	return &Error{Line: t.line, Col: t.col, Msg: fmt.Sprintf(format, args...)}
}

// ParseQuery parses a single (possibly λ-parameterized) conjunctive query in
// the paper's notation.
func ParseQuery(src string) (*cq.Query, error) {
	p := newParser(src)
	q, err := p.parseRule()
	if err == nil {
		if p.at(tokDot) {
			p.next()
		}
		if !p.at(tokEOF) {
			err = p.errHere("trailing input after query")
		}
	}
	if err = p.finish(err); err != nil {
		return nil, err
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	return q, nil
}

// parseRule parses [λ params .] Name(terms) :- body.
func (p *parser) parseRule() (*cq.Query, error) {
	q := &cq.Query{}
	if p.atoms > 1 { // every list but the head's is an atom's
		q.Atoms, p.atoms = make([]cq.Atom, 0, p.atoms-1), 0
	}
	if p.at(tokLambda) {
		p.next()
		for {
			id, err := p.expect(tokIdent)
			if err != nil {
				return nil, err
			}
			q.Params = append(q.Params, id.text)
			if p.at(tokComma) {
				p.next()
				continue
			}
			break
		}
		if _, err := p.expect(tokDot); err != nil {
			return nil, err
		}
	}
	name, err := p.expect(tokIdent)
	if err != nil {
		return nil, err
	}
	q.Name = name.text
	head, err := p.parseTermList()
	if err != nil {
		return nil, err
	}
	q.Head = head
	if _, err := p.expect(tokTurnstile); err != nil {
		return nil, err
	}
	for {
		if err := p.parseLiteral(q); err != nil {
			return nil, err
		}
		if p.at(tokComma) {
			p.next()
			continue
		}
		break
	}
	return q, nil
}

// parseTermList parses "(" term {"," term} ")".
func (p *parser) parseTermList() ([]cq.Term, error) {
	if _, err := p.expect(tokLParen); err != nil {
		return nil, err
	}
	if p.at(tokRParen) {
		p.next()
		return nil, nil
	}
	start := len(p.terms)
	for {
		t, err := p.parseTerm()
		if err != nil {
			return nil, err
		}
		p.terms = append(p.terms, t)
		if p.at(tokComma) {
			p.next()
			continue
		}
		break
	}
	if _, err := p.expect(tokRParen); err != nil {
		return nil, err
	}
	return p.terms[start:len(p.terms):len(p.terms)], nil
}

func (p *parser) parseTerm() (cq.Term, error) {
	t := p.peek()
	switch t.kind {
	case tokIdent:
		p.next()
		return cq.Var(t.text), nil
	case tokString, tokNumber:
		p.next()
		return cq.Const(t.text), nil
	}
	return cq.Term{}, p.errHere("expected a term (variable, string or number), found %s %q", t.kind, t.text)
}

// parseLiteral parses an atom or a comparison and appends it to q.
func (p *parser) parseLiteral(q *cq.Query) error {
	// Atom: IDENT "(" ... — otherwise a comparison starting with a term.
	if p.at(tokIdent) && p.peek2().kind == tokLParen {
		name := p.next()
		args, err := p.parseTermList()
		if err != nil {
			return err
		}
		q.Atoms = append(q.Atoms, cq.Atom{Pred: name.text, Args: args})
		return nil
	}
	l, err := p.parseTerm()
	if err != nil {
		return err
	}
	opTok, err := p.expect(tokOp)
	if err != nil {
		return err
	}
	op, err := parseOp(opTok.text)
	if err != nil {
		return &Error{Line: opTok.line, Col: opTok.col, Msg: err.Error()}
	}
	r, err := p.parseTerm()
	if err != nil {
		return err
	}
	q.Comps = append(q.Comps, cq.Comparison{L: l, Op: op, R: r})
	return nil
}

func parseOp(text string) (cq.CompOp, error) {
	switch text {
	case "=":
		return cq.OpEq, nil
	case "!=":
		return cq.OpNe, nil
	case "<":
		return cq.OpLt, nil
	case "<=":
		return cq.OpLe, nil
	case ">":
		return cq.OpGt, nil
	case ">=":
		return cq.OpGe, nil
	}
	return 0, fmt.Errorf("unknown operator %q", text)
}

// ViewDecl is one citation view assembled from view/cite/fmt statements: the
// triple (V, C_V, F_V) of Definition 2.1.
type ViewDecl struct {
	View *cq.Query
	Cite *cq.Query
	Fmt  *format.Spec
}

// Program is a parsed citation-view program.
type Program struct {
	// Views holds citation views in declaration order, keyed by view name.
	Views []*ViewDecl
}

// View returns the declaration of the named view, or nil.
func (pr *Program) View(name string) *ViewDecl {
	for _, v := range pr.Views {
		if v.View.Name == name {
			return v
		}
	}
	return nil
}

// ParseProgram parses a citation-view program: a sequence of
//
//	view <rule> .
//	cite <viewname> <rule> .
//	fmt  <viewname> <spec> .
//
// statements. Every view must receive a cite statement with the same λ-term;
// fmt is optional (a generic all-columns spec is synthesized when missing).
func ParseProgram(src string) (*Program, error) {
	p := newParser(src)
	p.atoms = 0 // the lists are many rules
	prog, err := p.parseProgram()
	if err = p.finish(err); err != nil {
		return nil, err
	}
	return prog, nil
}

func (p *parser) parseProgram() (*Program, error) {
	prog := &Program{}
	byName := make(map[string]*ViewDecl)
	for !p.at(tokEOF) {
		kw, err := p.expect(tokIdent)
		if err != nil {
			return nil, err
		}
		switch kw.text {
		case "view":
			q, err := p.parseRule()
			if err != nil {
				return nil, err
			}
			if err := q.Validate(); err != nil {
				return nil, &Error{Line: kw.line, Col: kw.col, Msg: err.Error()}
			}
			if _, dup := byName[q.Name]; dup {
				return nil, &Error{Line: kw.line, Col: kw.col, Msg: fmt.Sprintf("duplicate view %s", q.Name)}
			}
			decl := &ViewDecl{View: q}
			byName[q.Name] = decl
			prog.Views = append(prog.Views, decl)
		case "cite":
			nameTok, err := p.expect(tokIdent)
			if err != nil {
				return nil, err
			}
			decl := byName[nameTok.text]
			if decl == nil {
				return nil, &Error{Line: nameTok.line, Col: nameTok.col,
					Msg: fmt.Sprintf("cite for undeclared view %s", nameTok.text)}
			}
			q, err := p.parseRule()
			if err != nil {
				return nil, err
			}
			if err := q.Validate(); err != nil {
				return nil, &Error{Line: kw.line, Col: kw.col, Msg: err.Error()}
			}
			if err := sameParams(decl.View, q); err != nil {
				return nil, &Error{Line: nameTok.line, Col: nameTok.col, Msg: err.Error()}
			}
			decl.Cite = q
		case "fmt":
			nameTok, err := p.expect(tokIdent)
			if err != nil {
				return nil, err
			}
			decl := byName[nameTok.text]
			if decl == nil {
				return nil, &Error{Line: nameTok.line, Col: nameTok.col,
					Msg: fmt.Sprintf("fmt for undeclared view %s", nameTok.text)}
			}
			spec, err := p.parseSpec()
			if err != nil {
				return nil, err
			}
			decl.Fmt = spec
		default:
			return nil, &Error{Line: kw.line, Col: kw.col,
				Msg: fmt.Sprintf("expected 'view', 'cite' or 'fmt', found %q", kw.text)}
		}
		if p.at(tokDot) {
			p.next()
		}
	}
	for _, decl := range prog.Views {
		if decl.Cite == nil {
			return nil, fmt.Errorf("datalog: view %s has no citation query (Definition 2.1 requires the triple (V, C_V, F_V))", decl.View.Name)
		}
		if decl.Fmt == nil {
			decl.Fmt = defaultSpec(decl.Cite)
		}
	}
	return prog, nil
}

// sameParams enforces Definition 2.1: V and C_V are parameterized by the
// same λ-term.
func sameParams(view, cite *cq.Query) error {
	if len(view.Params) != len(cite.Params) {
		return fmt.Errorf("view %s and citation query %s have different λ-terms (%v vs %v)",
			view.Name, cite.Name, view.Params, cite.Params)
	}
	for i := range view.Params {
		if view.Params[i] != cite.Params[i] {
			return fmt.Errorf("view %s and citation query %s have different λ-terms (%v vs %v)",
				view.Name, cite.Name, view.Params, cite.Params)
		}
	}
	return nil
}

// defaultSpec lists every head variable of the citation query as a list
// field, a serviceable citation when no fmt was declared.
func defaultSpec(cite *cq.Query) *format.Spec {
	spec := &format.Spec{}
	for _, t := range cite.Head {
		if t.IsVar() {
			spec.Fields = append(spec.Fields, format.Field{Key: t.Name, Kind: format.FList, Var: t.Name})
		}
	}
	return spec
}

// parseSpec parses { "Key": value, ... } where value is a variable, a
// string literal, [Var], or group(Var) { ... }.
func (p *parser) parseSpec() (*format.Spec, error) {
	fields, err := p.parseSpecFields()
	if err != nil {
		return nil, err
	}
	return &format.Spec{Fields: fields}, nil
}

func (p *parser) parseSpecFields() ([]format.Field, error) {
	if _, err := p.expect(tokLBrace); err != nil {
		return nil, err
	}
	var out []format.Field
	if p.at(tokRBrace) {
		p.next()
		return out, nil
	}
	for {
		keyTok, err := p.expect(tokString)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokColon); err != nil {
			return nil, err
		}
		f := format.Field{Key: keyTok.text}
		switch {
		case p.at(tokString):
			f.Kind = format.FLiteral
			f.Lit = p.next().text
		case p.at(tokLBracket):
			p.next()
			id, err := p.expect(tokIdent)
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokRBracket); err != nil {
				return nil, err
			}
			f.Kind = format.FList
			f.Var = id.text
		case p.at(tokIdent) && p.peek().text == "group" && p.peek2().kind == tokLParen:
			p.next() // group
			p.next() // (
			id, err := p.expect(tokIdent)
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokRParen); err != nil {
				return nil, err
			}
			sub, err := p.parseSpecFields()
			if err != nil {
				return nil, err
			}
			f.Kind = format.FGroup
			f.Var = id.text
			f.Sub = sub
		case p.at(tokIdent):
			f.Kind = format.FScalar
			f.Var = p.next().text
		default:
			return nil, p.errHere("expected a field value (variable, string, [Var] or group(Var){...})")
		}
		out = append(out, f)
		if p.at(tokComma) {
			p.next()
			continue
		}
		break
	}
	if _, err := p.expect(tokRBrace); err != nil {
		return nil, err
	}
	return out, nil
}
