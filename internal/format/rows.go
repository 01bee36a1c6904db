package format

import (
	"bytes"
	"slices"
	"strings"
)

// Rows is a citation query's result as a citation function reads it: a
// columnar row set (see the package comment). Rows are read in the order
// Sort left them in, insertion order before it.
type Rows struct {
	cols  []string
	vals  []string // row r, column c at vals[r*len(cols)+c]
	n     int      // rows
	order []int    // row numbers in reading order; nil: insertion order
}

// NewRows returns an empty row set over the named columns.
func NewRows(cols ...string) *Rows { return &Rows{cols: cols} }

// RowsOf returns the row set over cols of n rows whose values vals holds
// row after row, a value per column; it keeps vals.
func RowsOf(cols, vals []string, n int) *Rows { return &Rows{cols: cols, vals: vals, n: n} }

// Append adds one row: a value per column, in column order.
func (r *Rows) Append(vals ...string) {
	if r.order != nil {
		r.order = append(r.order, r.n)
	}
	r.vals = append(r.vals, vals...)
	r.n++
}

// Len returns the number of rows.
func (r *Rows) Len() int { return r.n }

// Col returns the index of the named column, or -1.
func (r *Rows) Col(name string) int { return slices.Index(r.cols, name) }

// At returns the value of column col in the i-th row in reading order.
func (r *Rows) At(i, col int) string {
	if r.order != nil {
		i = r.order[i]
	}
	return r.val(i, col)
}

// firstRow is the reading order of a single row.
var firstRow = []int{0}

// reading returns the row numbers in reading order. Callers only read it.
func (r *Rows) reading() []int {
	switch {
	case r.order != nil || r.n == 0:
		return r.order
	case r.n == 1:
		return firstRow
	}
	r.order = make([]int, r.n)
	for i := range r.order {
		r.order[i] = i
	}
	return r.order
}

func (r *Rows) val(row, col int) string { return r.vals[row*len(r.cols)+col] }

// KeyPart is one value of a sort key: column Col's, or Lit when Col < 0.
type KeyPart struct {
	Col int
	Lit string
}

func (r *Rows) part(p KeyPart, row int) string {
	if p.Col < 0 {
		return p.Lit
	}
	return r.val(row, p.Col)
}

// Sort puts the rows in citation order: by the lead parts — the citation
// query's head, so lists and groups render in C_V's output order — then by
// the whole row, column by column in name order. Rows compare as their keys'
// bytes would — every lead value, then every column's name and value, a NUL
// after each — but no key is spelled out: the first part they differ in decides.
func (r *Rows) Sort(lead []KeyPart) {
	if r.Len() < 2 {
		return
	}
	var buf [16]KeyPart
	o := r.orderBy(buf[:0], lead)
	slices.SortFunc(r.reading(), o.compare)
}

// PackedRows is a row set at rest, kept between uses: its rows in reading
// order, with every column whose value all rows share stored once. A
// citation query instantiated at a key binds most of its columns to one
// value — a cited work's title, venue and year on every row of its incoming
// references — so only the columns that vary cost a value per row.
type PackedRows struct {
	cols []string
	n    int
	// at is, per column, its index among the varying columns, or -1 when
	// every row holds shared[c].
	at     []int
	shared []string
	vals   []string // row r's varying values at vals[r*w : (r+1)*w], w of them
	w      int
}

// Pack returns the rows packed, in reading order.
func (r *Rows) Pack() *PackedRows {
	p := &PackedRows{cols: r.cols, n: r.Len(), at: make([]int, len(r.cols)), shared: make([]string, len(r.cols))}
	for c := range r.cols {
		p.at[c] = -1
		for i := 1; i < p.n; i++ {
			if r.At(i, c) != r.At(0, c) {
				p.at[c], p.w = p.w, p.w+1
				break
			}
		}
		if p.at[c] < 0 && p.n > 0 {
			p.shared[c] = r.At(0, c)
		}
	}
	p.vals = make([]string, 0, p.n*p.w)
	for i := 0; i < p.n; i++ {
		for c, k := range p.at {
			if k >= 0 {
				p.vals = append(p.vals, r.At(i, c))
			}
		}
	}
	return p
}

// Merge returns the rows of p and of add — add in the order Sort(lead)
// leaves, as p's are — as one row set in that order. Neither is changed, and
// nothing is deduplicated: the caller merges disjoint sets. add has p's
// columns.
func (p *PackedRows) Merge(add *Rows, lead []KeyPart) *Rows {
	n := p.n
	m := &Rows{cols: p.cols, vals: make([]string, 0, len(p.cols)*n+len(add.vals)), n: n + add.Len(), order: make([]int, 0, n+add.Len())}
	for i := 0; i < n; i++ {
		for c, k := range p.at {
			if k < 0 {
				m.vals = append(m.vals, p.shared[c])
			} else {
				m.vals = append(m.vals, p.vals[i*p.w+k])
			}
		}
	}
	m.vals = append(m.vals, add.vals...)
	o := m.orderBy(nil, lead)
	added := add.reading()
	i, j := 0, 0
	for i < n && j < len(added) {
		if b := n + added[j]; o.compare(i, b) <= 0 {
			m.order, i = append(m.order, i), i+1
		} else {
			m.order, j = append(m.order, b), j+1
		}
	}
	for ; i < n; i++ {
		m.order = append(m.order, i)
	}
	for _, b := range added[j:] {
		m.order = append(m.order, n+b)
	}
	return m
}

// rowOrder is citation order over one row set's rows (see Sort).
type rowOrder struct {
	r   *Rows
	key []KeyPart
}

// orderBy returns the order Sort(lead) sorts by, its key parts appended to
// buf.
func (r *Rows) orderBy(buf, lead []KeyPart) rowOrder {
	key := append(buf, lead...)
	// The columns in name order: an insertion sort of (name, column) pairs
	// as they are appended — a citation query has a handful of columns.
	for c, name := range r.cols {
		key = append(key, KeyPart{Col: -1, Lit: name}, KeyPart{Col: c})
		for i := len(key) - 2; i > len(lead) && key[i-2].Lit > name; i -= 2 {
			key[i], key[i+1], key[i-2], key[i-1] = key[i-2], key[i-1], key[i], key[i+1]
		}
	}
	return rowOrder{r: r, key: key}
}

// compare orders rows a and b by their keys' bytes.
func (o *rowOrder) compare(a, b int) int {
	for i, p := range o.key {
		va, vb := o.r.part(p, a), o.r.part(p, b)
		if va == vb {
			continue
		}
		short, long := va, vb
		if len(vb) < len(va) {
			short, long = vb, va
		}
		if !strings.HasPrefix(long, short) || long[len(short)] != 0 {
			return strings.Compare(va, vb)
		}
		// One value ends where the other goes on with a NUL of its own:
		// the keys stop lining up part for part. Spell the rest out.
		return bytes.Compare(o.spell(i, a), o.spell(i, b))
	}
	return 0
}

// spell spells row's key from part i on, a NUL after each part.
func (o *rowOrder) spell(i, row int) []byte {
	var k []byte
	for _, p := range o.key[i:] {
		k = append(append(k, o.r.part(p, row)...), 0)
	}
	return k
}
