package storage

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// relSchema declares a keyed relation R and an unkeyed one S, both of a
// string column A and an int column B.
func relSchema() *Schema {
	s := NewSchema()
	cols := []Column{{Name: "A"}, {Name: "B", Type: TInt}}
	s.MustAddRelation(&RelSchema{Name: "R", Cols: cols, Key: []string{"A"}})
	s.MustAddRelation(&RelSchema{Name: "S", Cols: cols})
	return s
}

// TestDBInsertAllocs pins what a new tuple costs: its key string, with the
// slabs, the row slice and the key map growing geometrically beside it. An
// identical duplicate costs nothing.
func TestDBInsertAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	const runs = 4000
	db := NewDB(relSchema())
	for _, rel := range []string{"R", "S"} {
		rows := make([][]string, runs)
		for i := range rows {
			rows[i] = []string{fmt.Sprintf("%s-%05d", rel, i), fmt.Sprint(i)}
		}
		next := 0
		insert := func() {
			if err := db.Insert(rel, rows[next]...); err != nil {
				t.Fatal(err)
			}
			next++
		}
		got := allocsPerCall(runs, insert)
		if next != len(rows) || db.Relation(rel).Len() != len(rows) {
			t.Fatalf("%s: %d inserts, %d rows, want %d", rel, next, db.Relation(rel).Len(), len(rows))
		}
		if got > 1.1 {
			t.Errorf("%s Insert: %.2f allocs, want ≤ 1.1", rel, got)
		} else {
			t.Logf("%s Insert: %.2f allocs", rel, got)
		}
		dup := allocsPerCall(runs, func() {
			if err := db.Insert(rel, rows[runs/2]...); err != nil {
				t.Fatal(err)
			}
		})
		if dup != 0 {
			t.Errorf("%s duplicate Insert: %.2f allocs, want 0", rel, dup)
		}
	}
}

// TestRelationLookupAllocs pins what a probe of a built index costs: nothing.
// The index name and the probe key are spelled in stack buffers, so a
// lookup — the step every bound join atom runs per candidate — allocates
// neither (it was about 13 objects per point query with fmt.Sprint per
// column and a key string per probe).
func TestRelationLookupAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	db := NewDB(relSchema())
	for i := range 200 {
		if err := db.Insert("S", fmt.Sprintf("S-%03d", i), fmt.Sprint(i%7)); err != nil {
			t.Fatal(err)
		}
	}
	snap := db.Snapshot()
	for _, rel := range []*Relation{db.Relation("S"), snap.Relation("S")} {
		for _, tc := range []struct {
			cols []int
			vals []string
			want int
		}{
			{[]int{0}, []string{"S-042"}, 1},
			{[]int{1}, []string{"3"}, 29},
			{[]int{0, 1}, []string{"S-010", "3"}, 1},
			{[]int{1}, []string{"9"}, 0},
		} {
			var n int
			count := func(Tuple) bool { n++; return true }
			lookup := func() {
				n = 0
				rel.Lookup(tc.cols, tc.vals, count)
			}
			lookup() // build the index
			if n != tc.want {
				t.Fatalf("Lookup(%v, %v): %d tuples, want %d", tc.cols, tc.vals, n, tc.want)
			}
			if got := allocsPerCall(1000, lookup); got != 0 {
				t.Errorf("Lookup(%v, %v) on a built index: %.2f allocs, want 0", tc.cols, tc.vals, got)
			}
		}
	}
}

// allocsPerCall returns the mean allocations of n calls of fn, unrounded:
// testing.AllocsPerRun truncates its mean to an integer.
func allocsPerCall(n int, fn func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range n {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// TestLoadCSVRejectsRepeatedColumn: a header that names a column twice
// would map both values to it and lose the column it displaced.
func TestLoadCSVRejectsRepeatedColumn(t *testing.T) {
	s := NewSchema()
	s.MustAddRelation(&RelSchema{Name: "Family",
		Cols: []Column{{Name: "FID"}, {Name: "FName"}, {Name: "Type"}}, Key: []string{"FID"}})
	db := NewDB(s)
	_, err := LoadCSV(db, "Family", strings.NewReader("FID,FID,Type\n1,2,gpcr\n"), true)
	if err == nil || !strings.Contains(err.Error(), `repeated column "FID"`) {
		t.Fatalf("err = %v, want a repeated column FID", err)
	}
	if n := db.Relation("Family").Len(); n != 0 {
		t.Fatalf("%d rows loaded, want none", n)
	}
}

// relModel is a relation as a list of every tuple ever stored, in
// insertion order, with the ones still live marked.
type relModel struct {
	keyed bool
	rows  []Tuple
	live  []bool
}

// find returns the live row sharing t's key, or -1.
func (m *relModel) find(t Tuple) int {
	for i, r := range m.rows {
		if m.live[i] && (m.keyed && r[0] == t[0] || slices.Equal(r, t)) {
			return i
		}
	}
	return -1
}

func (m *relModel) scan() []Tuple {
	var out []Tuple
	for i, r := range m.rows {
		if m.live[i] {
			out = append(out, r)
		}
	}
	return out
}

// FuzzRelationOps drives a keyed and an unkeyed relation through a byte
// string of operations and checks each against a list model: inserts of
// new tuples, identical duplicates, same-key twins, wrong arities and bad
// ints; deletes of live, dead and twin tuples; Contains; Lookup through an
// index built before the writes that follow; snapshots, which must not see
// those writes. After every operation Scan must equal the model's live rows
// in insertion order, on the relation and on every snapshot.
func FuzzRelationOps(f *testing.F) {
	f.Add([]byte{0x00, 0x00, 0x10, 0x00, 0x11, 0x30, 0x00, 0x40, 0x00, 0x50, 0x01, 0x60, 0x00, 0x01, 0x05, 0x30, 0x01})
	f.Add([]byte{0x80, 0x00, 0x80, 0x00, 0x80, 0x01, 0xb0, 0x00, 0xb0, 0x00, 0xe0, 0x00, 0x80, 0x02, 0xd0, 0x02, 0xc0, 0x01})
	f.Add([]byte{0x20, 0x01, 0x21, 0x02, 0x00, 0x03, 0x60, 0x00, 0x30, 0x03, 0x00, 0x03, 0x50, 0x03, 0x10, 0x07})
	f.Fuzz(func(t *testing.T, ops []byte) {
		db := NewDB(relSchema())
		models := map[string]*relModel{"R": {keyed: true}, "S": {}}
		type snap struct {
			db   *DB
			want map[string][]Tuple
		}
		var snaps []snap
		check := func(d *DB, rel string, want []Tuple) {
			t.Helper()
			var got []Tuple
			d.Relation(rel).Scan(func(tu Tuple) bool {
				got = append(got, tu)
				_ = append(tu, "spill") // must not reach the next row
				return true
			})
			if !slices.EqualFunc(got, want, slices.Equal) {
				t.Fatalf("%s scan = %v, want %v", rel, got, want)
			}
			if n := d.Relation(rel).Len(); n != len(want) {
				t.Fatalf("%s len = %d, want %d", rel, n, len(want))
			}
			for _, w := range want {
				if !d.Relation(rel).Contains(w) {
					t.Fatalf("%s lost %v", rel, w)
				}
			}
		}
		for len(ops) >= 2 {
			op, arg := ops[0], ops[1]
			ops = ops[2:]
			rel := "R"
			if op&0x80 != 0 {
				rel = "S"
			}
			m := models[rel]
			// Few values, so that keys and tuples collide often.
			tu := Tuple{fmt.Sprint("a", arg&3), fmt.Sprint((arg >> 2) & 3)}
			switch (op >> 4) & 7 {
			case 0, 1: // insert
				switch op & 3 {
				case 1:
					tu = tu[:1]
				case 2:
					tu = append(tu, "extra")
				case 3:
					tu[1] = "x" + tu[1]
				}
				err := db.Insert(rel, tu...)
				switch i := m.find(tu); {
				case len(tu) != 2 || tu[1][0] == 'x':
					if err == nil {
						t.Fatalf("insert %s%v accepted", rel, tu)
					}
				case i >= 0 && !slices.Equal(m.rows[i], tu):
					if err == nil || !strings.Contains(err.Error(), "duplicate key") {
						t.Fatalf("insert %s%v over %v: err = %v", rel, tu, m.rows[i], err)
					}
				case err != nil:
					t.Fatalf("insert %s%v: %v", rel, tu, err)
				case i < 0:
					m.rows = append(m.rows, slices.Clone(tu))
					m.live = append(m.live, true)
				}
				tu[0] = "mutated" // the relation must have copied the values
			case 2, 3: // delete
				i := m.find(tu)
				hit := i >= 0 && slices.Equal(m.rows[i], tu)
				got, err := db.Delete(rel, tu...)
				if err != nil || got != hit {
					t.Fatalf("delete %s%v = %v, %v; want %v", rel, tu, got, err, hit)
				}
				if hit {
					m.live[i] = false
				}
			case 4: // contains
				i := m.find(tu)
				want := i >= 0 && slices.Equal(m.rows[i], tu)
				if got := db.Relation(rel).Contains(tu); got != want {
					t.Fatalf("contains %s%v = %v, want %v", rel, tu, got, want)
				}
				if db.Relation(rel).Contains(tu[:1]) {
					t.Fatalf("contains %s%v", rel, tu[:1])
				}
			case 5: // lookup on either column; the index outlives this op
				col := int(op & 1)
				var want []Tuple
				for _, r := range m.scan() {
					if r[col] == tu[col] {
						want = append(want, r)
					}
				}
				var got []Tuple
				db.Relation(rel).Lookup([]int{col}, []string{tu[col]}, func(r Tuple) bool {
					got = append(got, r)
					return true
				})
				if !slices.EqualFunc(got, want, slices.Equal) {
					t.Fatalf("lookup %s.%d = %s: %v, want %v", rel, col, tu[col], got, want)
				}
			default: // snapshot
				s := snap{db: db.Snapshot(), want: map[string][]Tuple{}}
				for name, m := range models {
					s.want[name] = m.scan()
				}
				if snaps = append(snaps, s); len(snaps) > 3 {
					snaps = snaps[1:]
				}
				if err := s.db.Insert(rel, tu...); err == nil {
					t.Fatal("insert into a snapshot accepted")
				}
			}
			for name, m := range models {
				check(db, name, m.scan())
			}
			for _, s := range snaps {
				for name, want := range s.want {
					check(s.db, name, want)
				}
			}
		}
	})
}
