package core

import (
	"strconv"
	"sync"

	"citare/internal/format"
	"citare/internal/provenance"
)

// renderMemo shares combine + render work between the tuples of one request.
// The paper cites views so that many tuples carry one citation: the families
// of a type all cite CV4(type), the committee members of a family all cite
// the family. Tuples whose per-rewriting polynomials coincide therefore share
// one finished citation — pruned, combined, rendered and, on the streamed
// path, encoded once. A memo lives for one request on one goroutine; what it
// hands out is immutable (format's contract), so sharing it between tuples —
// and, through the citation cache, between requests — is safe.
//
// There is no second memo of rendered monomials underneath: measured on the
// benchmark's four workloads it never hit once (0 of 18740, 2525 and 5531
// lookups) — tuples that share a monomial share the whole citation.
type renderMemo struct {
	tuples firstMemo[*sharedCitation]
	key    []byte // scratch for tupleKey
}

// firstMemo is a memo keyed by byte strings that keeps its first entry
// beside the map, which only a second key makes: a point query's frames all
// share their first monomial key, its tuples their first citation.
type firstMemo[V any] struct {
	has      bool
	firstKey string
	first    V
	rest     map[string]V
}

// get returns the value memoized under key.
func (m *firstMemo[V]) get(key []byte) (V, bool) {
	if m.has && m.firstKey == string(key) {
		return m.first, true
	}
	v, ok := m.rest[string(key)] // no-alloc map probe
	return v, ok
}

// put memoizes v under key.
func (m *firstMemo[V]) put(key []byte, v V) {
	if !m.has {
		m.has, m.firstKey, m.first = true, string(key), v
		return
	}
	if m.rest == nil {
		m.rest = make(map[string]V)
	}
	m.rest[string(key)] = v
}

// sharedCitation is what combineTuple works out for a tuple, kept per
// distinct list of per-rewriting polynomials.
type sharedCitation struct {
	kept     []int
	combined provenance.Poly
	rendered format.Value

	polyOnce sync.Once
	poly     string
	encOnce  sync.Once
	encoded  *EncodedCitation // streamed and replayed tuples only, see encode
}

// polynomial returns the combined polynomial in the paper's notation, spelled
// once — by whichever reader of a (possibly cached) citation asks first.
func (c *sharedCitation) polynomial() string {
	c.polyOnce.Do(func() { c.poly = PolyString(c.combined) })
	return c.poly
}

// tupleKey encodes the tuple's +R operands — everything its citation is a
// function of — into the memo's scratch buffer: per operand, its terms in key
// order, each monomial key length-prefixed (keys embed data values) and
// followed by its coefficient. Which rewriting an operand stems from does
// not matter, only their order does.
func (m *renderMemo) tupleKey(per []RewritingCitation) []byte {
	k := m.key[:0]
	for _, rc := range per {
		for _, t := range rc.Poly.Terms() {
			k = strconv.AppendInt(k, int64(len(t.Key)), 10)
			k = append(k, ':')
			k = append(k, t.Key...)
			k = append(k, '*')
			k = strconv.AppendInt(k, int64(t.Coeff), 10)
		}
		k = append(k, '|')
	}
	m.key = k
	return k
}

// EncodedCitation is a streamed tuple's citation in its finished text forms.
// Tuples of one request that share a citation share one EncodedCitation, so
// each form is produced once however many tuples carry it.
type EncodedCitation struct {
	// Polynomial is the combined citation polynomial in the paper's
	// notation (PolyString).
	Polynomial string
	// JSON is the rendered record as one-line JSON (format.Spaced).
	JSON string

	rendered format.Value
	wireOnce sync.Once
	wire     []byte
}

// AppendWire appends the record's wire-compact JSON (format.Wire) to dst.
// The encoding is made on first use — only a server embedding citations in
// its own JSON lines wants it.
func (c *EncodedCitation) AppendWire(dst []byte) []byte {
	c.wireOnce.Do(func() { c.wire = format.AppendJSON(nil, c.rendered, format.Wire) })
	return append(dst, c.wire...)
}

// encode returns the citation's text forms, produced once — by the request
// that streams the citation, or by whichever replay of a cached one asks first
// (concurrent streams of one cached citation share it).
func (c *sharedCitation) encode() *EncodedCitation {
	c.encOnce.Do(func() {
		c.encoded = &EncodedCitation{
			Polynomial: c.polynomial(),
			JSON:       c.rendered.JSON(),
			rendered:   c.rendered,
		}
	})
	return c.encoded
}

// Encoding returns the text forms of the tuple's citation: Encoded on a tuple
// CiteEachPrepared is streaming, the shared citation's own — made on first demand,
// once per distinct citation, and kept with it — on a tuple of a Result (a
// tuple the engine did not make shares nothing and gets forms of its own).
func (tc *TupleCitation) Encoding() *EncodedCitation {
	switch {
	case tc.Encoded != nil:
		return tc.Encoded
	case tc.shared != nil:
		return tc.shared.encode()
	}
	return &EncodedCitation{Polynomial: PolyString(tc.Combined), JSON: tc.Rendered.JSON(), rendered: tc.Rendered}
}
