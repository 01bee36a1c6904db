// Package datalog parses the paper's own notation for conjunctive queries
// and citation views:
//
//	Q(N) :- Family(F, N, Ty), Ty = "gpcr", FamilyIntro(F, Tx).
//
// and citation-view programs:
//
//	view lambda F. V1(F, N, Ty) :- Family(F, N, Ty).
//	cite V1 lambda F. CV1(F, N, Pn) :- Family(F, N, Ty), FC(F, C), Person(C, Pn, A).
//	fmt  V1 { "ID": F, "Name": N, "Committee": [Pn] }.
//
// Identifiers are variables; string literals and numbers are constants; the
// token before '(' is a predicate. "λ" and "lambda" are interchangeable.
// Comments run from '#' or '//' to end of line.
package datalog

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

type tokKind int

const (
	tokEOF tokKind = iota
	tokIdent
	tokString
	tokNumber
	tokLParen
	tokRParen
	tokLBrace
	tokRBrace
	tokLBracket
	tokRBracket
	tokComma
	tokDot
	tokColon
	tokTurnstile // :-
	tokOp        // = != < <= > >=
	tokLambda
)

func (k tokKind) String() string {
	switch k {
	case tokEOF:
		return "end of input"
	case tokIdent:
		return "identifier"
	case tokString:
		return "string"
	case tokNumber:
		return "number"
	case tokLParen:
		return "'('"
	case tokRParen:
		return "')'"
	case tokLBrace:
		return "'{'"
	case tokRBrace:
		return "'}'"
	case tokLBracket:
		return "'['"
	case tokRBracket:
		return "']'"
	case tokComma:
		return "','"
	case tokDot:
		return "'.'"
	case tokColon:
		return "':'"
	case tokTurnstile:
		return "':-'"
	case tokOp:
		return "comparison operator"
	case tokLambda:
		return "'λ'"
	}
	return "token"
}

type token struct {
	kind tokKind
	text string
	line int
	col  int
}

type lexer struct {
	src  string
	pos  int
	line int
	col  int
}

func newLexer(src string) lexer { return lexer{src: src, line: 1, col: 1} }

// Error is a parse error carrying source position.
type Error struct {
	Line, Col int
	Msg       string
}

// Error implements the error interface.
func (e *Error) Error() string {
	return fmt.Sprintf("datalog: line %d:%d: %s", e.Line, e.Col, e.Msg)
}

func (l *lexer) errf(line, col int, format string, args ...any) error {
	return &Error{Line: line, Col: col, Msg: fmt.Sprintf(format, args...)}
}

func (l *lexer) peekRune() (rune, int) {
	if l.pos >= len(l.src) {
		return 0, 0
	}
	return utf8.DecodeRuneInString(l.src[l.pos:])
}

func (l *lexer) advance(r rune, size int) {
	l.pos += size
	if r == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
}

func (l *lexer) skipSpaceAndComments() {
	for {
		r, size := l.peekRune()
		if size == 0 {
			return
		}
		if unicode.IsSpace(r) {
			l.advance(r, size)
			continue
		}
		if r == '#' || strings.HasPrefix(l.src[l.pos:], "//") {
			for {
				r, size = l.peekRune()
				if size == 0 {
					return
				}
				l.advance(r, size)
				if r == '\n' {
					break
				}
			}
			continue
		}
		return
	}
}

func isIdentStart(r rune) bool {
	return unicode.IsLetter(r) || r == '_'
}

func isIdentPart(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_'
}

func (l *lexer) next() (token, error) {
	l.skipSpaceAndComments()
	line, col := l.line, l.col
	r, size := l.peekRune()
	if size == 0 {
		return token{kind: tokEOF, line: line, col: col}, nil
	}
	mk := func(k tokKind, text string) token {
		return token{kind: k, text: text, line: line, col: col}
	}
	switch r {
	case '(':
		l.advance(r, size)
		return mk(tokLParen, "("), nil
	case ')':
		l.advance(r, size)
		return mk(tokRParen, ")"), nil
	case '{':
		l.advance(r, size)
		return mk(tokLBrace, "{"), nil
	case '}':
		l.advance(r, size)
		return mk(tokRBrace, "}"), nil
	case '[':
		l.advance(r, size)
		return mk(tokLBracket, "["), nil
	case ']':
		l.advance(r, size)
		return mk(tokRBracket, "]"), nil
	case ',':
		l.advance(r, size)
		return mk(tokComma, ","), nil
	case '.':
		l.advance(r, size)
		return mk(tokDot, "."), nil
	case 'λ':
		l.advance(r, size)
		return mk(tokLambda, "λ"), nil
	case ':':
		l.advance(r, size)
		if r2, s2 := l.peekRune(); r2 == '-' {
			l.advance(r2, s2)
			return mk(tokTurnstile, ":-"), nil
		}
		return mk(tokColon, ":"), nil
	case '=':
		l.advance(r, size)
		return mk(tokOp, "="), nil
	case '!':
		l.advance(r, size)
		if r2, s2 := l.peekRune(); r2 == '=' {
			l.advance(r2, s2)
			return mk(tokOp, "!="), nil
		}
		return token{}, l.errf(line, col, "unexpected '!' (did you mean '!='?)")
	case '<', '>':
		l.advance(r, size)
		text := string(r)
		if r2, s2 := l.peekRune(); r2 == '=' {
			l.advance(r2, s2)
			text += "="
		}
		return mk(tokOp, text), nil
	case '"':
		l.advance(r, size)
		if text, ok := l.plainString(); ok {
			return mk(tokString, text), nil
		}
		var sb strings.Builder
		for {
			r2, s2 := l.peekRune()
			if s2 == 0 {
				return token{}, l.errf(line, col, "unterminated string literal")
			}
			l.advance(r2, s2)
			if r2 == '"' {
				return mk(tokString, sb.String()), nil
			}
			if r2 == '\\' {
				r3, s3 := l.peekRune()
				if s3 == 0 {
					return token{}, l.errf(line, col, "unterminated escape")
				}
				l.advance(r3, s3)
				switch r3 {
				case 'n':
					sb.WriteByte('\n')
				case 't':
					sb.WriteByte('\t')
				case '"', '\\':
					sb.WriteRune(r3)
				default:
					return token{}, l.errf(l.line, l.col, "unknown escape \\%c", r3)
				}
				continue
			}
			sb.WriteRune(r2)
		}
	}
	// Numbers and identifiers are spelled by their source bytes: neither
	// can hold an invalid encoding, whose decoded rune would differ.
	start := l.pos
	if unicode.IsDigit(r) {
		for {
			r2, s2 := l.peekRune()
			if s2 == 0 || !unicode.IsDigit(r2) {
				break
			}
			l.advance(r2, s2)
		}
		return mk(tokNumber, l.src[start:l.pos]), nil
	}
	if isIdentStart(r) {
		for {
			r2, s2 := l.peekRune()
			if s2 == 0 || !isIdentPart(r2) {
				break
			}
			l.advance(r2, s2)
		}
		text := l.src[start:l.pos]
		if text == "lambda" {
			return mk(tokLambda, text), nil
		}
		return mk(tokIdent, text), nil
	}
	return token{}, l.errf(line, col, "unexpected character %q", r)
}

// plainString lexes the rest of a string literal whose opening quote was
// just read, when its value is its source bytes — no escape, no invalid
// encoding — and returns that substring. Otherwise it consumes nothing and
// reports false: the caller decodes the literal rune by rune.
func (l *lexer) plainString() (string, bool) {
	i := l.pos
	for i < len(l.src) {
		r, size := utf8.DecodeRuneInString(l.src[i:])
		switch {
		case r == '"':
			text := l.src[l.pos:i]
			for l.pos <= i {
				r2, s2 := l.peekRune()
				l.advance(r2, s2)
			}
			return text, true
		case r == '\\', r == utf8.RuneError && size == 1:
			return "", false
		}
		i += size
	}
	return "", false
}
