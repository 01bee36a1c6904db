// Package sqlfe is the SQL front end: a handwritten lexer and parser for the
// conjunctive SELECT–FROM–WHERE fragment (the class of "general queries" the
// paper's model covers), translated into cq queries against a storage
// schema.
//
// Supported surface:
//
//	SELECT [DISTINCT] cols | * FROM t [AS] a, u [AS] b [JOIN v [AS] c ON ...]
//	[WHERE cond [AND cond]...]
//
// with conditions of the form col op col, col op 'literal', col op number
// (op ∈ {=, !=, <>, <, <=, >, >=}). Identifiers are case-sensitive (they
// name schema relations); keywords are case-insensitive. Set semantics is
// assumed, matching the paper (DISTINCT is accepted and implied).
package sqlfe

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

type tokKind uint8

const (
	tEOF tokKind = iota
	tIdent
	tString
	tNumber
	tComma
	tDot
	tStar
	tLParen
	tRParen
	tOp
)

type token struct {
	text string
	pos  int32 // byte offset in the query
	kind tokKind
}

// Error is a SQL parse error with byte offset.
type Error struct {
	Pos int
	Msg string
}

// Error implements the error interface.
func (e *Error) Error() string { return fmt.Sprintf("sql: offset %d: %s", e.Pos, e.Msg) }

func lex(src string) ([]token, error) {
	// A token and its separator take three bytes of SQL or more: the list
	// rarely grows past this.
	out := make([]token, 0, len(src)/3+2)
	pos := 0
	for pos < len(src) {
		r, size := utf8.DecodeRuneInString(src[pos:])
		switch {
		case unicode.IsSpace(r):
			pos += size
		case r == ',':
			out = append(out, token{",", int32(pos), tComma})
			pos++
		case r == '.':
			out = append(out, token{".", int32(pos), tDot})
			pos++
		case r == '*':
			out = append(out, token{"*", int32(pos), tStar})
			pos++
		case r == '(':
			out = append(out, token{"(", int32(pos), tLParen})
			pos++
		case r == ')':
			out = append(out, token{")", int32(pos), tRParen})
			pos++
		case r == '=':
			out = append(out, token{"=", int32(pos), tOp})
			pos++
		case r == '!':
			if strings.HasPrefix(src[pos:], "!=") {
				out = append(out, token{"!=", int32(pos), tOp})
				pos += 2
			} else {
				return nil, &Error{pos, "unexpected '!'"}
			}
		case r == '<':
			switch {
			case strings.HasPrefix(src[pos:], "<="):
				out = append(out, token{"<=", int32(pos), tOp})
				pos += 2
			case strings.HasPrefix(src[pos:], "<>"):
				out = append(out, token{"!=", int32(pos), tOp})
				pos += 2
			default:
				out = append(out, token{"<", int32(pos), tOp})
				pos++
			}
		case r == '>':
			if strings.HasPrefix(src[pos:], ">=") {
				out = append(out, token{">=", int32(pos), tOp})
				pos += 2
			} else {
				out = append(out, token{">", int32(pos), tOp})
				pos++
			}
		case r == '\'':
			start := pos
			pos++
			// A literal without '' or an invalid encoding is its source bytes.
			if n := strings.IndexByte(src[pos:], '\''); n >= 0 && !strings.HasPrefix(src[pos+n+1:], "'") && utf8.ValidString(src[pos:pos+n]) {
				out = append(out, token{src[pos : pos+n], int32(start), tString})
				pos += n + 1
				continue
			}
			var sb strings.Builder
			closed := false
			for pos < len(src) {
				r2, s2 := utf8.DecodeRuneInString(src[pos:])
				pos += s2
				if r2 == '\'' {
					// '' escapes a quote inside the literal.
					if pos < len(src) && src[pos] == '\'' {
						sb.WriteByte('\'')
						pos++
						continue
					}
					closed = true
					break
				}
				sb.WriteRune(r2)
			}
			if !closed {
				return nil, &Error{start, "unterminated string literal"}
			}
			out = append(out, token{sb.String(), int32(start), tString})
		case unicode.IsDigit(r):
			start := pos
			for pos < len(src) {
				r2, s2 := utf8.DecodeRuneInString(src[pos:])
				if !unicode.IsDigit(r2) {
					break
				}
				pos += s2
			}
			out = append(out, token{src[start:pos], int32(start), tNumber})
		case unicode.IsLetter(r) || r == '_':
			start := pos
			for pos < len(src) {
				r2, s2 := utf8.DecodeRuneInString(src[pos:])
				if !(unicode.IsLetter(r2) || unicode.IsDigit(r2) || r2 == '_') {
					break
				}
				pos += s2
			}
			out = append(out, token{src[start:pos], int32(start), tIdent})
		default:
			return nil, &Error{pos, fmt.Sprintf("unexpected character %q", r)}
		}
	}
	out = append(out, token{"", int32(len(src)), tEOF})
	return out, nil
}

// keyword reports whether tok is the given case-insensitive keyword.
func keyword(tok token, kw string) bool {
	return tok.kind == tIdent && strings.EqualFold(tok.text, kw)
}
