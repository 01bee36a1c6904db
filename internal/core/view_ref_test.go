package core

// The map-per-row token rendering this package used before the row set, kept
// verbatim (names and the frame source aside) as the reference tokenRows and
// format.Spec.Render are checked against: a map[string]string and a sorted,
// joined key string per row. Do not use it for anything else.

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"citare/internal/cq"
	"citare/internal/format"
)

func refCitationRows(vars []string, frames [][]string, head []cq.Term, paramNames, paramVals []string) []map[string]string {
	type sortedRow struct {
		key string
		row map[string]string
	}
	var rows []sortedRow
	for _, frame := range frames {
		row := make(map[string]string, len(vars)+len(paramNames))
		for i, name := range vars {
			row[name] = frame[i]
		}
		for i, name := range paramNames {
			row[name] = paramVals[i]
		}
		var hd []byte
		for _, t := range head {
			if t.IsConst {
				hd = append(hd, t.Value...)
			} else {
				hd = append(hd, row[t.Name]...)
			}
			hd = append(hd, 0)
		}
		rows = append(rows, sortedRow{key: string(hd) + refRowKey(row), row: row})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].key < rows[j].key })
	out := make([]map[string]string, len(rows))
	for i, r := range rows {
		out[i] = r.row
	}
	return out
}

func refRowKey(row map[string]string) string {
	keys := make([]string, 0, len(row))
	for k := range row {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb []byte
	for _, k := range keys {
		sb = append(sb, k...)
		sb = append(sb, 0)
		sb = append(sb, row[k]...)
		sb = append(sb, 0)
	}
	return string(sb)
}

func refRenderFields(fields []format.Field, rows []map[string]string) (*format.Object, error) {
	out := format.NewObject()
	for _, f := range fields {
		switch f.Kind {
		case format.FLiteral:
			out.Set(f.Key, format.S(f.Lit))
		case format.FScalar:
			for _, r := range rows {
				if v, ok := r[f.Var]; ok {
					out.Set(f.Key, format.S(v))
					break
				}
			}
		case format.FList:
			var list []format.Value
			seen := make(map[string]bool)
			for _, r := range rows {
				v, ok := r[f.Var]
				if !ok || seen[v] {
					continue
				}
				seen[v] = true
				list = append(list, format.S(v))
			}
			if list == nil {
				list = []format.Value{}
			}
			out.Set(f.Key, format.Value{Kind: format.KList, List: list})
		case format.FGroup:
			var order []string
			groups := make(map[string][]map[string]string)
			for _, r := range rows {
				v, ok := r[f.Var]
				if !ok {
					continue
				}
				if _, seen := groups[v]; !seen {
					order = append(order, v)
				}
				groups[v] = append(groups[v], r)
			}
			list := make([]format.Value, 0, len(order))
			for _, g := range order {
				obj, err := refRenderFields(f.Sub, groups[g])
				if err != nil {
					return nil, err
				}
				list = append(list, format.O(obj))
			}
			out.Set(f.Key, format.Value{Kind: format.KList, List: list})
		default:
			return nil, fmt.Errorf("format: unknown field kind %d", f.Kind)
		}
	}
	return out, nil
}

// nastyValues sort differently as NUL-terminated key parts than on their
// own: NUL bytes inside values, empty strings, proper prefixes of one another.
var nastyValues = []string{"", "a", "ab", "a\x00", "a\x00b", "a\x00\x00", "\x00", "\x00a", "b", "ab\x00", "é", "11"}

// TestRowSetMatchesMapRows: random citation-query results render to the bytes
// the map-per-row reference renders them to — rows in the same order whatever
// the values hold, λ-parameters filled in (also one named like a plan
// variable, which instantiation rules out but the old code defined), constants
// in the head, no rows at all, nested groups, variables nothing binds.
func TestRowSetMatchesMapRows(t *testing.T) {
	r := rand.New(rand.NewSource(18))
	names := []string{"A", "B", "Pn", "T", "a", "AB"}
	pick := func(pool []string) string { return pool[r.Intn(len(pool))] }
	var randomFields func(depth int) []format.Field
	randomFields = func(depth int) []format.Field {
		fields := make([]format.Field, 1+r.Intn(4))
		for i := range fields {
			f := format.Field{Key: fmt.Sprintf("k%d", i), Kind: format.FieldKind(r.Intn(4)), Var: pick(append(names, "Unbound"))}
			switch f.Kind {
			case format.FLiteral:
				f.Var, f.Lit = "", pick(nastyValues)
			case format.FGroup:
				if depth == 2 {
					f.Kind = format.FList
				} else {
					f.Sub = randomFields(depth + 1)
				}
			}
			fields[i] = f
		}
		return fields
	}
	for i := 0; i < 2000; i++ {
		vars := append([]string(nil), names[:1+r.Intn(len(names))]...)
		r.Shuffle(len(vars), func(i, j int) { vars[i], vars[j] = vars[j], vars[i] })
		var paramNames, paramVals []string
		for _, name := range []string{"P", "Q", pick(names)} { // the last may shadow a variable
			if r.Intn(2) == 0 {
				paramNames, paramVals = append(paramNames, name), append(paramVals, pick(nastyValues))
			}
		}
		head := make([]cq.Term, r.Intn(4))
		for j := range head {
			if head[j] = cq.Var(pick(vars)); r.Intn(3) == 0 {
				head[j] = cq.Const(pick(nastyValues))
			}
		}
		frames := make([][]string, r.Intn(14)) // sometimes none
		for j := range frames {
			frames[j] = make([]string, len(vars))
			for k := range frames[j] {
				// Few distinct values per column: rows tie on long key prefixes.
				frames[j][k] = nastyValues[(k+r.Intn(4))%len(nastyValues)]
			}
		}
		spec := &format.Spec{Fields: randomFields(0)}

		rows, err := tokenRows(vars, func(add func([]string)) error {
			for _, f := range frames {
				add(f)
			}
			return nil
		}, head, cq.Rebind{}, paramNames, paramVals)
		if err != nil {
			t.Fatal(err)
		}
		got, err := spec.Render(rows)
		if err != nil {
			t.Fatal(err)
		}
		want, err := refRenderFields(spec.Fields, refCitationRows(vars, frames, head, paramNames, paramVals))
		if err != nil {
			t.Fatal(err)
		}
		gotJSON := format.AppendJSON(nil, format.O(got), format.Wire)
		if wantJSON := format.AppendJSON(nil, format.O(want), format.Wire); !bytes.Equal(gotJSON, wantJSON) {
			t.Fatalf("case %d: vars %q params %q=%q head %v frames %q spec %s\n got %s\nwant %s",
				i, vars, paramNames, paramVals, head, frames, spec, gotJSON, wantJSON)
		}
		if rows.Len() != len(frames) {
			t.Fatalf("case %d: %d rows for %d frames", i, rows.Len(), len(frames))
		}
	}
}
