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
	order []int    // row numbers in reading order
}

// NewRows returns an empty row set over the named columns.
func NewRows(cols ...string) *Rows { return &Rows{cols: cols} }

// Append adds one row: a value per column, in column order.
func (r *Rows) Append(vals ...string) {
	r.order = append(r.order, len(r.order))
	r.vals = append(r.vals, vals...)
}

// Len returns the number of rows.
func (r *Rows) Len() int { return len(r.order) }

// Col returns the index of the named column, or -1.
func (r *Rows) Col(name string) int { return slices.Index(r.cols, name) }

// At returns the value of column col in the i-th row in reading order.
func (r *Rows) At(i, col int) string { return r.val(r.order[i], col) }

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
	o := r.orderBy(lead)
	slices.SortFunc(r.order, o.compare)
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
	m := &Rows{cols: p.cols, vals: make([]string, 0, len(p.cols)*n+len(add.vals)), order: make([]int, 0, n+add.Len())}
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
	o := m.orderBy(lead)
	i, j := 0, 0
	for i < n && j < len(add.order) {
		if b := n + add.order[j]; o.compare(i, b) <= 0 {
			m.order, i = append(m.order, i), i+1
		} else {
			m.order, j = append(m.order, b), j+1
		}
	}
	for ; i < n; i++ {
		m.order = append(m.order, i)
	}
	for _, b := range add.order[j:] {
		m.order = append(m.order, n+b)
	}
	return m
}

// rowOrder is citation order over one row set's rows (see Sort).
type rowOrder struct {
	r      *Rows
	key    []KeyPart
	ka, kb []byte
}

func (r *Rows) orderBy(lead []KeyPart) *rowOrder {
	key := make([]KeyPart, len(lead), len(lead)+2*len(r.cols))
	copy(key, lead)
	// The columns in name order: an insertion sort of (name, column) pairs
	// as they are appended — a citation query has a handful of columns.
	for c, name := range r.cols {
		key = append(key, KeyPart{Col: -1, Lit: name}, KeyPart{Col: c})
		for i := len(key) - 2; i > len(lead) && key[i-2].Lit > name; i -= 2 {
			key[i], key[i+1], key[i-2], key[i-1] = key[i-2], key[i-1], key[i], key[i+1]
		}
	}
	return &rowOrder{r: r, key: key}
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
		o.ka, o.kb = o.ka[:0], o.kb[:0]
		for _, p := range o.key[i:] {
			o.ka = append(append(o.ka, o.r.part(p, a)...), 0)
			o.kb = append(append(o.kb, o.r.part(p, b)...), 0)
		}
		return bytes.Compare(o.ka, o.kb)
	}
	return 0
}
