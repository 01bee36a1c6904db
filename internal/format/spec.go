package format

import (
	"fmt"
	"slices"
	"strings"
)

// FieldKind discriminates the fields of a citation-function Spec.
type FieldKind int

// Field kinds.
const (
	// FScalar takes the field's value from a binding variable; all rows
	// must agree (the first row wins, mirroring SQL's ANY_VALUE over a
	// functionally-determined column).
	FScalar FieldKind = iota
	// FList collects the distinct values of a variable across rows, in
	// first-appearance order.
	FList
	// FGroup partitions rows by a variable and renders the sub-spec once
	// per group, producing a list of objects (the nested committee lists
	// of the paper's V4/V5 citations).
	FGroup
	// FLiteral is a constant string.
	FLiteral
)

// Field is one field of a Spec.
type Field struct {
	Key  string
	Kind FieldKind
	Var  string  // source variable (FScalar, FList) or group-by variable (FGroup)
	Lit  string  // FLiteral payload
	Sub  []Field // FGroup sub-spec
}

// Spec is a declarative citation function F_V: it shapes the rows returned
// by the citation query C_V into a citation record.
type Spec struct {
	Fields []Field
}

// Render shapes the row set into a record. Rendering is deterministic: list
// and group orders follow first appearance in the rows' reading order. A
// variable the rows have no column for reads as absent from every row.
func (s *Spec) Render(rows *Rows) (*Object, error) {
	if rows == nil {
		rows = &Rows{}
	}
	return renderFields(s.Fields, rows, rows.reading())
}

// renderFields renders fields over the rows idx lists, in that order.
func renderFields(fields []Field, rows *Rows, idx []int) (*Object, error) {
	out := &Object{fields: make([]field, 0, len(fields))}
	for _, f := range fields {
		col, idx := rows.Col(f.Var), idx
		if col < 0 {
			idx = nil
		}
		switch f.Kind {
		case FLiteral:
			out.Set(f.Key, S(f.Lit))
		case FScalar:
			if len(idx) > 0 {
				out.Set(f.Key, S(rows.val(idx[0], col)))
			}
		case FList:
			// Sized for every row distinct, the usual case; a list with
			// repeats is copied to its length, as records are kept in caches.
			list := make([]Value, 0, len(idx))
			seen := make(map[string]bool, len(idx))
			for _, i := range idx {
				if v := rows.val(i, col); !seen[v] {
					seen[v] = true
					list = append(list, S(v))
				}
			}
			if len(list) < cap(list) {
				list = slices.Clone(list)
			}
			out.Set(f.Key, Value{Kind: KList, List: list})
		case FGroup:
			var groups [][]int // in first-appearance order
			byValue := make(map[string]int)
			for _, i := range idx {
				v := rows.val(i, col)
				g, ok := byValue[v]
				if !ok {
					g = len(groups)
					byValue[v], groups = g, append(groups, nil)
				}
				groups[g] = append(groups[g], i)
			}
			list := make([]Value, 0, len(groups))
			for _, g := range groups {
				obj, err := renderFields(f.Sub, rows, g)
				if err != nil {
					return nil, err
				}
				list = append(list, O(obj))
			}
			out.Set(f.Key, Value{Kind: KList, List: list})
		default:
			return nil, fmt.Errorf("format: unknown field kind %d", f.Kind)
		}
	}
	return out, nil
}

// Vars returns every variable the spec reads, sorted.
func (s *Spec) Vars() []string {
	var out []string
	var walk func(fs []Field)
	walk = func(fs []Field) {
		for _, f := range fs {
			if f.Var != "" {
				out = append(out, f.Var)
			}
			walk(f.Sub)
		}
	}
	walk(s.Fields)
	slices.Sort(out)
	return slices.Compact(out)
}

// String renders the spec in the surface syntax accepted by the datalog
// front end, e.g. { "ID": F, "Committee": [Pn] }.
func (s *Spec) String() string {
	var sb strings.Builder
	writeSpec(&sb, s.Fields)
	return sb.String()
}

func writeSpec(sb *strings.Builder, fields []Field) {
	sb.WriteByte('{')
	for i, f := range fields {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(sb, "%q: ", f.Key)
		switch f.Kind {
		case FLiteral:
			fmt.Fprintf(sb, "%q", f.Lit)
		case FScalar:
			sb.WriteString(f.Var)
		case FList:
			sb.WriteString("[" + f.Var + "]")
		case FGroup:
			sb.WriteString("group(" + f.Var + ") ")
			writeSpec(sb, f.Sub)
		}
	}
	sb.WriteByte('}')
}
