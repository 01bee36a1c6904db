package format

import (
	"math/rand"
	"slices"
	"testing"
)

// TestPackedMergeMatchesSort: rows packed and then merged with more rows
// read exactly as the union sorted afresh — value for value, in reading
// order — over random row sets whose columns are now shared by every row,
// now not, with values that are prefixes of one another and hold NULs, and
// leads of constants and columns.
func TestPackedMergeMatchesSort(t *testing.T) {
	vals := []string{"", "a", "a\x00", "a\x00b", "ab", "b"}
	cols := []string{"x", "y", "z"}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		shared := []int{r.Intn(3), r.Intn(3)} // columns whose value is fixed this round
		fixed := vals[r.Intn(len(vals))]
		row := func() []string {
			out := make([]string, len(cols))
			for c := range out {
				if out[c] = vals[r.Intn(len(vals))]; slices.Contains(shared, c) {
					out[c] = fixed
				}
			}
			return out
		}
		lead := []KeyPart{{Col: -1, Lit: "c"}, {Col: r.Intn(3)}}
		seen := map[string]bool{}
		var old, add [][]string
		for n := r.Intn(8); n > 0; n-- {
			if rw := row(); !seen[rowKey(rw)] {
				seen[rowKey(rw)] = true
				old = append(old, rw)
			}
		}
		for n := r.Intn(8); n > 0; n-- {
			if rw := row(); !seen[rowKey(rw)] {
				seen[rowKey(rw)] = true
				add = append(add, rw)
			}
		}
		build := func(rows ...[][]string) *Rows {
			out := NewRows(cols...)
			for _, set := range rows {
				for _, rw := range set {
					out.Append(rw...)
				}
			}
			out.Sort(lead)
			return out
		}
		got, want := build(old).Pack().Merge(build(add), lead), build(old, add)
		if got.Len() != want.Len() {
			t.Fatalf("round %d: %d rows merged, %d sorted", i, got.Len(), want.Len())
		}
		for j := 0; j < want.Len(); j++ {
			for c := range cols {
				if got.At(j, c) != want.At(j, c) {
					t.Fatalf("round %d: row %d column %s = %q merged, %q sorted", i, j, cols[c], got.At(j, c), want.At(j, c))
				}
			}
		}
	}
}

func rowKey(row []string) string {
	k := ""
	for _, v := range row {
		k += v + "\x01|"
	}
	return k
}
