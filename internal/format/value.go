// Package format implements the citation-function layer F_V of the paper:
// transforming citation-query results into citation records "in some desired
// format, such as JSON or XML" (Definition 2.1), and the record combinators
// that interpret the abstract operations ·, +, +R and Agg as union or join
// of records (§3.3, Example 3.5).
//
// Records are modeled by Object — an insertion-ordered, deterministic
// JSON-like object — so that citations render byte-identically across runs.
//
// # Immutability
//
// A record is immutable once published, and records share structure. Set
// only before a record is published — handed to a combinator, returned from
// a citation function, stored in a cache or in a policy; combinators alias
// their operands. MergeObjects, MergeValues and UnionValues never write into
// an operand and never copy one either: the result gets a new spine (field
// slice, list) whose untouched children are the operands' own values. The
// same holds for L, which keeps the slice it is given. That is what lets one
// cached token citation of several KB stand inside thousands of tuple
// citations at the cost of a pointer each, lets Equal short-circuit on
// identity, and lets an Object remember its structural hash. There is no
// Clone: a caller that wants a private record builds one.
//
// # Rows
//
// A citation function reads its citation query's result as a Rows: one
// columnar row set per token — a column per variable of the query and per
// λ-parameter of its view, values in one slab — not a map per row. Rows.Sort
// fixes the reading order: the citation query's head values first, then the
// whole row by column name. Spec.Render and a custom core.CitationView.Fn
// both receive the sorted set and read it by column index (Col, At).
package format

import (
	"encoding/json"
	"hash/maphash"
	"strconv"
	"sync/atomic"
	"unicode/utf16"
	"unicode/utf8"
)

// ValueKind discriminates Value.
type ValueKind int

// Value kinds.
const (
	KString ValueKind = iota
	KList
	KObject
)

// Value is a JSON-like value: a string, a list of values, or an object.
type Value struct {
	Kind ValueKind
	Str  string
	List []Value
	Obj  *Object
}

// S returns a string value.
func S(s string) Value { return Value{Kind: KString, Str: s} }

// L returns a list value.
func L(vals ...Value) Value { return Value{Kind: KList, List: vals} }

// O wraps an object as a value.
func O(obj *Object) Value { return Value{Kind: KObject, Obj: obj} }

// Equal reports semantic equality (object key order ignored, list order
// significant). The comparison is structural and allocation-free; shared
// sub-records — the same *Object, the same list backing array — compare in
// O(1), which is what makes equality cheap on records assembled from cached
// token citations.
func (v Value) Equal(u Value) bool {
	if v.Kind != u.Kind {
		return false
	}
	switch v.Kind {
	case KString:
		return v.Str == u.Str
	case KList:
		if len(v.List) != len(u.List) {
			return false
		}
		if len(v.List) == 0 || &v.List[0] == &u.List[0] {
			return true
		}
		for i := range v.List {
			if !v.List[i].Equal(u.List[i]) {
				return false
			}
		}
		return true
	case KObject:
		return v.Obj.Equal(u.Obj)
	}
	return true
}

// hashSeed keys the structural hash. It is drawn per process: the hash only
// decides membership (UnionValues), never order, so it cannot reach a
// rendered citation.
var hashSeed = maphash.MakeSeed()

const (
	hashList   = 0x9e3779b97f4a7c15
	hashObject = 0xc2b2ae3d27d4eb4f
	hashPrime  = 0x100000001b3
)

// hash is the structural hash matching Equal: equal values hash equally,
// object key order is ignored, list order counts.
func (v Value) hash() uint64 {
	switch v.Kind {
	case KString:
		return maphash.String(hashSeed, v.Str)
	case KList:
		h := uint64(hashList)
		for _, e := range v.List {
			h = (h ^ e.hash()) * hashPrime
		}
		return h
	case KObject:
		return v.Obj.structuralHash()
	}
	return 0
}

// field is one key/value pair of an Object.
type field struct {
	key string
	val Value
}

// Object is an insertion-ordered string-keyed record. Citation records have
// a handful of keys, so the fields live in one ordered slice and lookups
// scan it — no per-record map.
type Object struct {
	fields []field
	// memoHash caches structuralHash (0 = not computed). A published record
	// is immutable, so the hash of a shared token citation is computed once
	// however many unions it takes part in.
	memoHash atomic.Uint64
}

// NewObject returns an empty object.
func NewObject() *Object { return &Object{} }

func (o *Object) index(key string) int {
	for i := range o.fields {
		if o.fields[i].key == key {
			return i
		}
	}
	return -1
}

// Set stores a value under key, preserving the key's original position when
// it already exists. Set is for building a record: once the record has been
// handed to a combinator, a cache or a caller it must not be called again
// (see the package comment).
func (o *Object) Set(key string, v Value) *Object {
	if i := o.index(key); i >= 0 {
		o.fields[i].val = v
	} else {
		o.fields = append(o.fields, field{key, v})
	}
	o.memoHash.Store(0)
	return o
}

// Get returns the value under key.
func (o *Object) Get(key string) (Value, bool) {
	if o != nil {
		if i := o.index(key); i >= 0 {
			return o.fields[i].val, true
		}
	}
	return Value{}, false
}

// Keys returns keys in insertion order.
func (o *Object) Keys() []string {
	out := make([]string, o.Len())
	for i := range out {
		out[i] = o.fields[i].key
	}
	return out
}

// Len returns the number of keys; a nil object is empty.
func (o *Object) Len() int {
	if o == nil {
		return 0
	}
	return len(o.fields)
}

// Equal reports semantic equality (key order ignored).
func (o *Object) Equal(p *Object) bool {
	if o == p {
		return true
	}
	n := o.Len()
	if n != p.Len() {
		return false
	}
	for i := 0; i < n; i++ {
		f := &o.fields[i]
		// Records built by the same spec agree on key order: try the same
		// position before scanning.
		j := i
		if p.fields[j].key != f.key {
			if j = p.index(f.key); j < 0 {
				return false
			}
		}
		if !f.val.Equal(p.fields[j].val) {
			return false
		}
	}
	return true
}

func (o *Object) structuralHash() uint64 {
	if o.Len() == 0 {
		return hashObject
	}
	if h := o.memoHash.Load(); h != 0 {
		return h
	}
	h := uint64(hashObject)
	for i := range o.fields {
		f := &o.fields[i]
		// Summed, so the hash ignores key order as Equal does.
		h += (maphash.String(hashSeed, f.key) ^ f.val.hash()*hashPrime) * hashList
	}
	o.memoHash.Store(h)
	return h
}

// JSON encoding. One append-style encoder serves the three spellings of a
// citation: spaced on one line (Citation.CitationJSON, the json-compact
// renderer), indented (the json renderer), and the wire-compact form
// citesrv embeds in NDJSON stream lines.
const (
	// Spaced renders on one line with ", " and ": " separators.
	Spaced = -1
	// Wire renders on one line without spaces and with <, > and & escaped
	// as \u003c, \u003e and \u0026 — byte for byte what encoding/json
	// makes of the spaced spelling when it compacts it as a RawMessage.
	Wire = -2
)

// AppendJSON appends the deterministic JSON encoding of v (insertion key
// order) to dst. indent >= 0 puts every element on its own line, indented by
// that many spaces per level; Spaced and Wire select the one-line spellings.
func AppendJSON(dst []byte, v Value, indent int) []byte {
	return appendJSON(dst, v, indent, 0)
}

// JSON renders the value deterministically (insertion key order, proper
// escaping).
func (v Value) JSON() string { return string(AppendJSON(nil, v, Spaced)) }

// JSONIndent renders the value with newlines and the given indent width.
func (v Value) JSONIndent(indent int) string { return string(AppendJSON(nil, v, indent)) }

// JSON renders the object deterministically.
func (o *Object) JSON() string { return O(o).JSON() }

// JSONIndent renders the object with indentation.
func (o *Object) JSONIndent(indent int) string { return O(o).JSONIndent(indent) }

func appendJSON(dst []byte, v Value, indent, depth int) []byte {
	switch v.Kind {
	case KString:
		return appendQuoted(dst, v.Str, indent == Wire)
	case KList:
		if len(v.List) == 0 {
			return append(dst, "[]"...)
		}
		dst = append(dst, '[')
		for i, e := range v.List {
			dst = appendSep(dst, i, indent, depth+1)
			dst = appendJSON(dst, e, indent, depth+1)
		}
		dst = appendPad(dst, indent, depth)
		return append(dst, ']')
	case KObject:
		if v.Obj.Len() == 0 {
			return append(dst, "{}"...)
		}
		dst = append(dst, '{')
		for i := range v.Obj.fields {
			f := &v.Obj.fields[i]
			dst = appendSep(dst, i, indent, depth+1)
			dst = appendQuoted(dst, f.key, indent == Wire)
			dst = append(dst, ':')
			if indent != Wire {
				dst = append(dst, ' ')
			}
			dst = appendJSON(dst, f.val, indent, depth+1)
		}
		dst = appendPad(dst, indent, depth)
		return append(dst, '}')
	}
	return dst
}

// appendSep separates element i of a list or object from its predecessor and
// starts its line.
func appendSep(dst []byte, i, indent, depth int) []byte {
	if i > 0 {
		dst = append(dst, ',')
		if indent == Spaced {
			dst = append(dst, ' ')
		}
	}
	return appendPad(dst, indent, depth)
}

func appendPad(dst []byte, indent, depth int) []byte {
	if indent < 0 {
		return dst
	}
	dst = append(dst, '\n')
	for n := indent * depth; n > 0; n-- {
		dst = append(dst, ' ')
	}
	return dst
}

// appendQuoted appends s as a JSON string literal: strconv.Quote's spelling,
// with the Go-only escapes strconv emits for bytes JSON has no short form for
// (\a, \v, \xNN, \UNNNNNNNN) respelled as the JSON escapes of the same
// characters — a byte that is not UTF-8 as U+FFFD — so every spelling is
// JSON whatever the data holds. The wire spelling also escapes <, > and & the
// way encoding/json does. Plain printable ASCII — nearly every key and scalar
// of a citation — is copied without a second look.
func appendQuoted(dst []byte, s string, wire bool) []byte {
	plain := true
	for i := 0; i < len(s) && plain; i++ {
		c := s[i]
		plain = c >= ' ' && c <= '~' && c != '"' && c != '\\' && !(wire && (c == '<' || c == '>' || c == '&'))
	}
	if plain {
		dst = append(dst, '"')
		dst = append(dst, s...)
		return append(dst, '"')
	}
	const hex = "0123456789abcdef"
	q := strconv.AppendQuote(make([]byte, 0, len(s)+16), s)
	for i := 0; i < len(q); i++ {
		c := q[i]
		switch {
		case wire && (c == '<' || c == '>' || c == '&'):
			dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
		case c != '\\':
			dst = append(dst, c)
		default:
			i++
			switch e := q[i]; e {
			case 'a':
				dst = append(dst, `\u0007`...)
			case 'v':
				dst = append(dst, `\u000b`...)
			case 'x': // a control byte, or a byte that is not UTF-8
				if q[i+1] >= '8' {
					dst = append(dst, `\ufffd`...)
				} else {
					dst = append(dst, '\\', 'u', '0', '0', q[i+1], q[i+2])
				}
				i += 2
			case 'U': // a non-printable rune beyond the BMP: a surrogate pair
				r, _ := strconv.ParseUint(string(q[i+1:i+9]), 16, 32)
				r1, r2 := utf16.EncodeRune(rune(r))
				for _, u := range [2]rune{r1, r2} {
					dst = append(dst, '\\', 'u', hex[u>>12&0xf], hex[u>>8&0xf], hex[u>>4&0xf], hex[u&0xf])
				}
				i += 8
			default:
				dst = append(dst, '\\', e)
			}
		}
	}
	return dst
}

// AppendJSONString appends s as encoding/json spells a Go string (HTML
// escaping on): the spelling of every string field of citesrv's responses,
// which is not appendQuoted's — encoding/json leaves DEL and unprintable
// runes alone and writes a byte that is not UTF-8 as the escape of U+FFFD.
// Quotes, backslashes, \n, \r, \t, <, > and &, multi-byte runes and
// U+2028/2029 are spelled here; the other control bytes, two of which changed
// spelling between Go releases (\b and \f used to be six-byte escapes), are
// left to json.Marshal, which cannot fail on a string.
func AppendJSONString(dst []byte, s string) []byte { return appendJSONString(dst, s) }

// AppendJSONBytes is AppendJSONString of a string held in a byte slice.
func AppendJSONBytes(dst, b []byte) []byte { return appendJSONString(dst, b) }

func appendJSONString[S string | []byte](dst []byte, s S) []byte {
	const hex = "0123456789abcdef"
	mark := len(dst)
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c >= ' ' && c < utf8.RuneSelf && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
			i++
			continue
		}
		dst = append(dst, s[start:i]...)
		size := 1
		switch {
		case c == '"' || c == '\\':
			dst = append(dst, '\\', c)
		case c == '\n':
			dst = append(dst, '\\', 'n')
		case c == '\r':
			dst = append(dst, '\\', 'r')
		case c == '\t':
			dst = append(dst, '\\', 't')
		case c == '<' || c == '>' || c == '&':
			dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
		case c < ' ':
			b, _ := json.Marshal(string(s))
			return append(dst[:mark], b...)
		default:
			var r rune
			r, size = utf8.DecodeRuneInString(string(s[i:min(i+utf8.UTFMax, len(s))]))
			switch {
			case r == utf8.RuneError && size == 1:
				dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
			case r == 0x2028 || r == 0x2029:
				dst = append(dst, '\\', 'u', '2', '0', '2', hex[r&0xf])
			default:
				dst = append(dst, s[i:i+size]...)
			}
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// AppendJSONStrings appends a []string as encoding/json spells it: null for a
// nil slice, the elements in AppendJSONString's spelling otherwise.
func AppendJSONStrings(dst []byte, ss []string) []byte {
	if ss == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, s := range ss {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = AppendJSONString(dst, s)
	}
	return append(dst, ']')
}

// ---------------------------------------------------------------------------
// Record combinators (§3.3, Example 3.5).

// UnionValues interprets an abstract combination as the union of records:
// the operands are kept side by side in a deduplicated list. Lists are
// flattened one level so unions nest associatively.
//
// Membership is decided by structural hash, then Equal. Operands routinely
// alias the same rendered *Object — token renders are cached and shared, so a
// hot key cited by n tuples contributes the same pointer n times — and such a
// repeat costs one cached-hash load and one pointer comparison, keeping the
// union linear instead of O(n · size).
func UnionValues(vals ...Value) Value {
	n := 0
	for _, v := range vals {
		if v.Kind == KList {
			n += len(v.List)
		} else {
			n++
		}
	}
	var out []Value
	if n > 0 {
		out = make([]Value, 0, n)
	}
	// seen maps a hash to the 1-based position in out of the latest element
	// carrying it; next chains earlier elements with the same hash.
	seen := make(map[uint64]int, n)
	next := make([]int, 0, n)
	add := func(v Value) {
		h := v.hash()
		for i := seen[h]; i != 0; i = next[i-1] {
			if out[i-1].Equal(v) {
				return
			}
		}
		out = append(out, v)
		next = append(next, seen[h])
		seen[h] = len(out)
	}
	for _, v := range vals {
		if v.Kind == KList {
			for _, e := range v.List {
				add(e)
			}
			continue
		}
		add(v)
	}
	if len(out) == 1 {
		return out[0]
	}
	return Value{Kind: KList, List: out}
}

// MergeObjects interprets an abstract combination as the join of records
// (Example 3.5: "factors out common elements"): keys present in one operand
// are kept; keys present in both are merged — equal values collapse, lists
// union (preserving first-seen order), and conflicting scalars widen into a
// list. Only the spine is new: every value the join leaves untouched is
// shared with its operand.
func MergeObjects(a, b *Object) *Object {
	out := &Object{fields: make([]field, a.Len(), a.Len()+b.Len())}
	if a != nil {
		copy(out.fields, a.fields)
	}
	if b == nil {
		return out
	}
	for _, bf := range b.fields {
		if i := out.index(bf.key); i >= 0 {
			out.fields[i].val = mergeValues(out.fields[i].val, bf.val)
		} else {
			out.fields = append(out.fields, bf)
		}
	}
	return out
}

func mergeValues(a, b Value) Value {
	if a.Equal(b) {
		return a
	}
	if a.Kind == KObject && b.Kind == KObject {
		return O(MergeObjects(a.Obj, b.Obj))
	}
	if a.Kind == KList || b.Kind == KList {
		return UnionValues(a, b)
	}
	// Conflicting scalars (or scalar vs object) widen into a list.
	return UnionValues(L(a), L(b))
}

// MergeValues joins two values: objects merge key-wise, everything else
// unions.
func MergeValues(a, b Value) Value { return mergeValues(a, b) }
