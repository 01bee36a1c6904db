// Package core implements the paper's primary contribution: the citation
// model of Davidson, Deutch, Milo and Silvello (CIDR 2017).
//
// A CitationView is the triple (V, C_V, F_V) of Definition 2.1. Citations
// for general queries are assembled by rewriting the query over the views
// (internal/rewrite) and combining per-view citations in the citation
// semiring (§3): · for joint use within a binding (Definition 3.1), + for
// alternative bindings (Definition 3.2), +R for alternative rewritings
// (Definition 3.3) and Agg across output tuples (Definition 3.4). Database
// owners choose interpretations for the abstract operations (§3.3) and
// preference orders over monomials and polynomials (§3.4) through a Policy.
package core

import (
	"fmt"
	"strconv"
	"strings"

	"citare/internal/provenance"
)

// TokenKind discriminates citation tokens.
type TokenKind int

// Token kinds.
const (
	// ViewToken is a citation stemming from a citation view: F_V(C_V(a⃗)).
	ViewToken TokenKind = iota
	// RelToken is the paper's C_R atom (Example 3.7): a marker placed in
	// the citation whenever a rewriting accesses base relation R directly.
	RelToken
)

// Token is a base citation annotation: a view instantiated at parameter
// values, or an uncovered-relation marker.
type Token struct {
	Kind TokenKind
	// Name is the view name (ViewToken) or relation name (RelToken).
	Name string
	// Params holds the λ-parameter values of the view instance, aligned
	// with the view's parameter list. Empty for unparameterized views and
	// for RelTokens.
	Params []string
}

// NewViewToken builds the token for a view instance.
func NewViewToken(view string, params ...string) Token {
	return Token{Kind: ViewToken, Name: view, Params: params}
}

// NewRelToken builds the C_R token for a base relation.
func NewRelToken(rel string) Token { return Token{Kind: RelToken, Name: rel} }

// String renders the token in the paper's style: CV4("gpcr"), CV3, C_Family.
func (t Token) String() string {
	if t.Kind == RelToken {
		return "C_" + t.Name
	}
	if len(t.Params) == 0 {
		return t.Name
	}
	quoted := make([]string, len(t.Params))
	for i, p := range t.Params {
		quoted[i] = strconv.Quote(p)
	}
	return t.Name + "(" + strings.Join(quoted, ",") + ")"
}

// Encode packs the token into a provenance.Token, the annotation citation
// polynomials are built over. The encoding is unambiguous and ordered
// consistently with String for deterministic output.
func (t Token) Encode() provenance.Token {
	var sb strings.Builder
	if t.Kind == RelToken {
		sb.WriteString("r|")
	} else {
		sb.WriteString("v|")
	}
	sb.WriteString(t.Name)
	for _, p := range t.Params {
		sb.WriteByte('|')
		sb.WriteString(strconv.Quote(p))
	}
	return provenance.Token(sb.String())
}

// DecodeToken unpacks a provenance token produced by Encode. Parameters are
// Go-quoted, so separators inside values round-trip safely.
func DecodeToken(pt provenance.Token) (Token, error) {
	s := string(pt)
	var t Token
	switch {
	case strings.HasPrefix(s, "v|"):
		t.Kind = ViewToken
	case strings.HasPrefix(s, "r|"):
		t.Kind = RelToken
	default:
		return Token{}, fmt.Errorf("core: malformed citation token %q", pt)
	}
	s = s[2:]
	if i := strings.IndexByte(s, '|'); i >= 0 {
		t.Name = s[:i]
		s = s[i+1:]
	} else {
		t.Name = s
		return t, nil
	}
	for len(s) > 0 {
		quoted, err := strconv.QuotedPrefix(s)
		if err != nil {
			return Token{}, fmt.Errorf("core: malformed token parameter in %q: %w", pt, err)
		}
		p, err := strconv.Unquote(quoted)
		if err != nil {
			return Token{}, fmt.Errorf("core: malformed token parameter %q: %w", quoted, err)
		}
		t.Params = append(t.Params, p)
		s = s[len(quoted):]
		if len(s) > 0 {
			if s[0] != '|' {
				return Token{}, fmt.Errorf("core: malformed citation token %q", pt)
			}
			s = s[1:]
		}
	}
	return t, nil
}

// appendMonomial appends a citation monomial in the paper's notation, e.g.
// CV1("13") · CV2("13"), to dst.
func appendMonomial(dst []byte, m provenance.Monomial) []byte {
	n := 0
	for _, pt := range m.Support() {
		for i := 0; i < m.Exp(pt); i++ {
			if n > 0 {
				dst = append(dst, " · "...)
			}
			dst = appendTokenLabel(dst, pt)
			n++
		}
	}
	if n == 0 {
		return append(dst, '1')
	}
	return dst
}

// appendTokenLabel appends the label of an encoded token: the decoded
// token's String, or the encoding itself when it does not decode
// (DecodeToken). Nothing is decoded into a Token on the way.
func appendTokenLabel(dst []byte, pt provenance.Token) []byte {
	s := string(pt)
	var rel bool
	switch {
	case strings.HasPrefix(s, "v|"):
	case strings.HasPrefix(s, "r|"):
		rel = true
	default:
		return append(dst, s...)
	}
	name, rest, _ := strings.Cut(s[2:], "|")
	mark := len(dst)
	if rel {
		dst = append(append(dst, "C_"...), name...)
	} else {
		dst = append(dst, name...)
	}
	params := 0
	for len(rest) > 0 {
		quoted, err := strconv.QuotedPrefix(rest)
		if err != nil {
			return append(dst[:mark], s...)
		}
		p, err := strconv.Unquote(quoted)
		if err != nil {
			return append(dst[:mark], s...)
		}
		if rest = rest[len(quoted):]; len(rest) > 0 {
			if rest[0] != '|' {
				return append(dst[:mark], s...)
			}
			rest = rest[1:]
		}
		if rel {
			continue
		}
		if params == 0 {
			dst = append(dst, '(')
		} else {
			dst = append(dst, ',')
		}
		dst = strconv.AppendQuote(dst, p)
		params++
	}
	if params > 0 {
		dst = append(dst, ')')
	}
	return dst
}

// PolyString renders a citation polynomial in the paper's notation, e.g.
// CV1("13") · CV2("13") + CV4("gpcr") · CV2("13").
func PolyString(p provenance.Poly) string {
	if p.IsZero() {
		return "0"
	}
	var dst []byte
	for i, t := range p.Terms() {
		if i > 0 {
			dst = append(dst, " + "...)
		}
		if t.Coeff != 1 {
			dst = append(strconv.AppendInt(dst, int64(t.Coeff), 10), "·"...)
		}
		dst = appendMonomial(dst, t.Mono)
	}
	return string(dst)
}

// tokenCount counts a monomial's tokens of one kind, with multiplicity: view
// tokens ("v|": "we only cite views, not base relations", Example 3.6) or C_R
// tokens ("r|", Example 3.7).
func tokenCount(m provenance.Monomial, kind string) int {
	n := 0
	for _, pt := range m.Support() {
		if strings.HasPrefix(string(pt), kind) {
			n += m.Exp(pt)
		}
	}
	return n
}
