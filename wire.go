package citare

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"sync/atomic"

	"citare/internal/core"
	"citare/internal/format"
)

// AppendWire appends the citation as the JSON object citesrv answers
// POST /v1/cite with (and puts under "result" in a batch slot), without a
// trailing newline:
//
//	{"columns":[…],"rows":[[…],…],"rewritings":[…],"polynomials":[…],
//	 "citation":"…","format":"…","explain":{…}}
//
// columns, rows, rewritings, polynomials, citation and format are Columns,
// Rows, Rewritings, TuplePolynomialAt of every tuple, Rendered and Format;
// explain is present on a citation that carries a report (Request.Explain).
//
// The contract is byte identity with encoding/json: the object is spelled
// exactly as json.Marshal spells a struct of those fields in that order, the
// last as an omitempty pointer — nil slices as null, a citation without
// tuples with "rows":[] beside "polynomials":null, HTML-escaped strings and
// all. TestAppendWireMatchesEncodingJSON and FuzzCiteResponse pin it against
// json.Marshal; citesrv's TestResponsesMatchEncodingJSON pins the handlers'
// bodies against the struct the wire schema is documented by.
//
// Everything between columns and format depends on the citation alone, not on
// the request that asked for it. A citation served from a CachedCiter's cache
// keeps those bytes from its first cache hit on — the rows, rewritings and
// polynomials once, the escaped citation string once per render format — and
// every later AppendWire of it, by whichever equivalent request, copies them.
func (ct *Citation) AppendWire(dst []byte) ([]byte, error) {
	r, err := format.RendererByName(ct.Format())
	if err != nil {
		return dst, parseError(err)
	}
	dst = format.AppendJSONStrings(append(dst, `{"columns":`...), ct.Columns())
	if m := ct.wire; m != nil && m.hit.Load() {
		answer, citation := m.parts(ct.res, strings.ToLower(ct.Format()), r)
		dst = append(append(dst, answer...), citation...)
	} else {
		dst = appendWireAnswer(dst, ct.res)
		dst = appendCitation(dst, r, ct.res.Citation)
	}
	dst = format.AppendJSONString(append(dst, `,"format":`...), ct.Format())
	if ct.explain != nil {
		if dst, err = appendMarshaled(append(dst, `,"explain":`...), ct.explain); err != nil {
			return dst, err
		}
	}
	return append(dst, '}'), nil
}

// appendWireAnswer appends the request-independent middle of the response
// object: from the comma after columns up to the citation string's opening,
// `,"rows":…,"rewritings":…,"polynomials":…,"citation":`.
func appendWireAnswer(dst []byte, res *core.Result) []byte {
	dst = append(dst, `,"rows":[`...)
	for i := range res.Tuples {
		if i > 0 {
			dst = append(dst, ',')
		}
		// Rows copies each tuple onto a nil slice: a tuple of no columns (a
		// boolean query's) is a nil row.
		if t := res.Tuples[i].Tuple; len(t) == 0 {
			dst = append(dst, "null"...)
		} else {
			dst = format.AppendJSONStrings(dst, t)
		}
	}
	dst = append(dst, `],"rewritings":[`...)
	scratch := renderScratch.Get().(*[]byte) // a rewriting's spelling, escaped from here
	for i := range res.NumRewritings() {
		if i > 0 {
			dst = append(dst, ',')
		}
		*scratch = res.AppendRewriting((*scratch)[:0], i)
		dst = format.AppendJSONBytes(dst, *scratch)
	}
	putRenderScratch(scratch)
	dst = append(dst, `],"polynomials":`...)
	if len(res.Tuples) == 0 {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i := range res.Tuples {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = format.AppendJSONString(dst, res.Tuples[i].CiteTupleString())
		}
		dst = append(dst, ']')
	}
	return append(dst, `,"citation":`...)
}

// appendCitation appends the citation as r renders it, JSON-escaped and
// quoted. A JSON rendering is spelled into a pooled scratch buffer and
// escaped from there: no string of it is made.
func appendCitation(dst []byte, r format.Renderer, v format.Value) []byte {
	jr, ok := r.(format.JSONRenderer)
	if !ok {
		return format.AppendJSONString(dst, r.Render(v))
	}
	buf := renderScratch.Get().(*[]byte)
	*buf = jr.AppendRender((*buf)[:0], v)
	dst = format.AppendJSONBytes(dst, *buf)
	putRenderScratch(buf)
	return dst
}

// renderScratch holds the buffers a citation or a rewriting is spelled into
// before it is escaped; one larger than maxRenderScratch is left to the
// collector rather than kept.
var renderScratch = sync.Pool{New: func() any { return new([]byte) }}

func putRenderScratch(buf *[]byte) {
	if cap(*buf) <= maxRenderScratch {
		renderScratch.Put(buf)
	}
}

const maxRenderScratch = 64 << 10

// appendMarshaled appends a sub-value of the response that only uncached
// responses carry, through encoding/json itself.
func appendMarshaled(dst []byte, v any) ([]byte, error) {
	b, err := json.Marshal(v)
	return append(dst, b...), err
}

// wireMemo holds the response bytes of one cached citation, shared by every
// forRequest copy of it. Nothing is built before the cache has been hit for
// the entry — most entries of a lookup service are asked for once — and what
// is built is immutable, so readers copy it outside the lock.
type wireMemo struct {
	stats *wireStats  // the owning CachedCiter's counters
	hit   atomic.Bool // the cache served this citation to a second request

	mu        sync.Mutex
	answer    []byte // appendWireAnswer's bytes
	citations []wireCitation
}

// wireCitation is the citation string as one render format spells it,
// JSON-escaped and quoted.
type wireCitation struct {
	format string // lower case, as RendererByName reads it
	json   []byte
}

// wireStats counts what the wire memos of one CachedCiter built: citations
// that got a memo, and the bytes of all their parts. The bytes are
// cumulative — the cache does not say when an entry leaves — so they bound
// from above what the live entries' memos retain.
type wireStats struct {
	builds, bytes atomic.Uint64
}

// markHit records that the cache served the citation again: from now on its
// response bytes are kept.
func (m *wireMemo) markHit() {
	if !m.hit.Load() { // every later hit only reads the shared line
		m.hit.Store(true)
	}
}

// parts returns the memoized middle of the response and the citation string
// in the named format, building what is missing.
func (m *wireMemo) parts(res *core.Result, name string, r format.Renderer) (answer, citation []byte) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.answer == nil {
		m.answer = bytes.Clone(appendWireAnswer(nil, res)) // cloned: no growth slack retained
		m.stats.builds.Add(1)
		m.stats.bytes.Add(uint64(len(m.answer)))
	}
	for i := range m.citations {
		if m.citations[i].format == name {
			return m.answer, m.citations[i].json
		}
	}
	citation = bytes.Clone(appendCitation(nil, r, res.Citation))
	m.citations = append(m.citations, wireCitation{format: name, json: citation})
	m.stats.bytes.Add(uint64(len(citation)))
	return m.answer, citation
}
