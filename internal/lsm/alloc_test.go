package lsm

import (
	"fmt"
	"testing"

	"citare/internal/storage"
)

// TestLSMLookupAllocs pins the allocation cost of a read on a warm block
// cache over three SSTables and a memtable. A point Lookup returning one
// row costs the row's string and its slice, nothing per source or per block
// (19 before scan state was pooled and rows decoded in one pass). A Scan
// costs the same two per row (6 before).
func TestLSMLookupAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	st := openTestStore(t, t.TempDir(), Options{DisableBackgroundCompaction: true})
	defer st.Close()
	for table := 0; table < 4; table++ { // three SSTables, then the memtable
		for i := 0; i < 100; i++ {
			id := table*100 + i
			if err := st.Insert("ligand", fmt.Sprint(id), fmt.Sprintf("ligand-%03d", id)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := st.Commit(""); err != nil {
			t.Fatal(err)
		}
		if table < 3 {
			if err := st.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	v, err := st.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer v.Release()
	rel := v.Relation("ligand")
	cols, vals := []int{0}, []string{"150"}
	rows := 0
	count := func(storage.Tuple) bool { rows++; return true }
	lookup := func() { rows = 0; rel.Lookup(cols, vals, count) }
	lookup() // warm the block cache
	if rows != 1 {
		t.Fatalf("point lookup returned %d rows, want 1", rows)
	}
	if got := testing.AllocsPerRun(200, lookup); got > 3 {
		t.Errorf("point Lookup: %.1f allocs, want ≤ 3", got)
	} else {
		t.Logf("point Lookup: %.1f allocs", got)
	}

	scan := func() { rows = 0; rel.Scan(count) }
	scan()
	if rows != 400 {
		t.Fatalf("scan returned %d rows, want 400", rows)
	}
	if got := testing.AllocsPerRun(20, scan) / float64(rows); got > 2.1 {
		t.Errorf("Scan: %.2f allocs per row, want ≤ 2.1", got)
	} else {
		t.Logf("Scan: %.2f allocs per row", got)
	}
}

// TestLSMInsertAllocs pins the allocation cost of an Insert into a warm
// memtable that does not flush: the probes, the WAL record and every
// entry's key take buffers the store keeps, and the memtable copies keys
// and takes nodes from slabs, so what is left is the slabs and the write
// log growing, a fraction of an allocation per insert (23 for a keyed
// ligand insert and 15 for an unkeyed cites one when every key and node was
// its own allocation).
func TestLSMInsertAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	const warm, runs = 1000, 4000
	st := openTestStore(t, t.TempDir(), Options{DisableBackgroundCompaction: true, MemtableBytes: 64 << 20})
	defer st.Close()
	for _, rel := range []string{"ligand", "cites"} {
		rows := make([][]string, warm+runs+1)
		for i := range rows {
			rows[i] = []string{fmt.Sprint(i), fmt.Sprintf("%s-%05d", rel, i)}
		}
		next := 0
		insert := func() {
			if err := st.Insert(rel, rows[next]...); err != nil {
				t.Fatal(err)
			}
			next++
		}
		for next < warm {
			insert()
		}
		got := testing.AllocsPerRun(runs, insert)
		if next != len(rows) {
			t.Fatalf("%s: %d inserts, want %d", rel, next, len(rows))
		}
		if got > 1 {
			t.Errorf("%s Insert: %.2f allocs, want ≤ 1", rel, got)
		} else {
			t.Logf("%s Insert: %.2f allocs", rel, got)
		}
	}
	if n := st.Stats().Flushes; n != 0 {
		t.Fatalf("%d flushes, want none", n)
	}
}
