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
	key := slices.Clip(lead)
	for _, name := range slices.Sorted(slices.Values(r.cols)) {
		key = append(key, KeyPart{Col: -1, Lit: name}, KeyPart{Col: r.Col(name)})
	}
	var ka, kb []byte
	slices.SortFunc(r.order, func(a, b int) int {
		for i, p := range key {
			va, vb := r.part(p, a), r.part(p, b)
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
			ka, kb = ka[:0], kb[:0]
			for _, p := range key[i:] {
				ka = append(append(ka, r.part(p, a)...), 0)
				kb = append(append(kb, r.part(p, b)...), 0)
			}
			return bytes.Compare(ka, kb)
		}
		return 0
	})
}
