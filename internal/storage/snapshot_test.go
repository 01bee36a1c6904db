package storage

import (
	"fmt"
	"sync"
	"testing"
)

func snapSchema(t testing.TB) *Schema {
	t.Helper()
	s := NewSchema()
	s.MustAddRelation(&RelSchema{Name: "R",
		Cols: []Column{{Name: "A"}, {Name: "B"}}, Key: []string{"A"}})
	return s
}

func TestSnapshotIsolation(t *testing.T) {
	db := NewDB(snapSchema(t))
	for i := 0; i < 10; i++ {
		db.MustInsert("R", fmt.Sprint(i), "v")
	}
	snap := db.Snapshot()
	if !snap.Frozen() {
		t.Fatal("snapshot not frozen")
	}

	// Later writes to the live DB are invisible to the snapshot.
	db.MustInsert("R", "100", "new")
	if _, err := db.Delete("R", "0", "v"); err != nil {
		t.Fatal(err)
	}
	if got := snap.Relation("R").Len(); got != 10 {
		t.Fatalf("snapshot saw live writes: len %d, want 10", got)
	}
	if !snap.Relation("R").Contains(Tuple{"0", "v"}) {
		t.Fatal("snapshot lost a tuple deleted later")
	}
	if snap.Relation("R").Contains(Tuple{"100", "new"}) {
		t.Fatal("snapshot sees tuple inserted later")
	}
	if got := db.Relation("R").Len(); got != 10 {
		t.Fatalf("live len %d, want 10", got)
	}

	// Lookups on the snapshot stay stable too (index built after the writes).
	n := 0
	snap.Relation("R").Lookup([]int{1}, []string{"v"}, func(Tuple) bool { n++; return true })
	if n != 10 {
		t.Fatalf("snapshot lookup saw %d tuples, want 10", n)
	}
}

func TestSnapshotRejectsWrites(t *testing.T) {
	db := NewDB(snapSchema(t))
	db.MustInsert("R", "1", "x")
	snap := db.Snapshot()
	if err := snap.Insert("R", "2", "y"); err == nil {
		t.Fatal("insert into snapshot accepted")
	}
	if _, err := snap.Delete("R", "1", "x"); err == nil {
		t.Fatal("delete from snapshot accepted")
	}
	// Clone of a snapshot is writable again.
	clone := snap.Clone()
	if err := clone.Insert("R", "2", "y"); err != nil {
		t.Fatal(err)
	}
}

// TestFrozenSnapshotRejectsWrites: storage-level writes against a frozen
// snapshot fail without corrupting the snapshot.
func TestFrozenSnapshotRejectsWrites(t *testing.T) {
	db := NewDB(snapSchema(t))
	db.MustInsert("R", "1", "A")
	snap := db.Snapshot()
	if !snap.Frozen() {
		t.Fatal("snapshot not frozen")
	}
	if err := snap.Insert("R", "9", "X"); err == nil {
		t.Fatal("insert into frozen snapshot succeeded")
	}
	if _, err := snap.Delete("R", "1", "A"); err == nil {
		t.Fatal("delete from frozen snapshot succeeded")
	}
	if snap.Relation("R").Len() != 1 {
		t.Fatal("rejected writes mutated the snapshot")
	}
}

func TestSnapshotOfSnapshot(t *testing.T) {
	db := NewDB(snapSchema(t))
	db.MustInsert("R", "1", "x")
	s1 := db.Snapshot()
	s2 := s1.Snapshot()
	if s2.Relation("R").Len() != 1 || !s2.Relation("R").Contains(Tuple{"1", "x"}) {
		t.Fatal("snapshot of snapshot lost data")
	}
}

// TestConcurrentReadersAndWriter runs scanning/looking-up readers against a
// snapshot and against the live DB while a writer inserts and deletes; run
// under -race. Snapshot readers must observe exactly the snapshot state.
func TestConcurrentReadersAndWriter(t *testing.T) {
	db := NewDB(snapSchema(t))
	const base = 200
	for i := 0; i < base; i++ {
		db.MustInsert("R", fmt.Sprint(i), fmt.Sprintf("v%d", i%5))
	}
	snap := db.Snapshot()

	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Writer: churn inserts and deletes on the live DB.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 500; i++ {
			db.MustInsert("R", fmt.Sprint(base+i), "w")
			if i%3 == 0 {
				if _, err := db.Delete("R", fmt.Sprint(i%base), fmt.Sprintf("v%d", (i%base)%5)); err != nil {
					t.Error(err)
					return
				}
			}
		}
		close(stop)
	}()

	// Snapshot readers: counts must never waver.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				n := 0
				snap.Relation("R").Scan(func(Tuple) bool { n++; return true })
				if n != base {
					t.Errorf("snapshot scan saw %d, want %d", n, base)
					return
				}
				m := 0
				snap.Relation("R").Lookup([]int{1}, []string{"v0"}, func(Tuple) bool { m++; return true })
				if m != base/5 {
					t.Errorf("snapshot lookup saw %d, want %d", m, base/5)
					return
				}
			}
		}()
	}

	// Live readers: just must not race or crash; counts vary.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				n := 0
				db.Relation("R").Scan(func(Tuple) bool { n++; return true })
				if n < base-500 {
					t.Errorf("live scan implausibly small: %d", n)
					return
				}
				db.Relation("R").Lookup([]int{1}, []string{"w"}, func(Tuple) bool { return true })
			}
		}()
	}
	wg.Wait()
}

// TestConcurrentIndexBuild races many readers into the same lazily built
// index; exactly one build must win and all lookups must agree.
func TestConcurrentIndexBuild(t *testing.T) {
	db := NewDB(snapSchema(t))
	const rows = 100
	for i := 0; i < rows; i++ {
		db.MustInsert("R", fmt.Sprint(i), fmt.Sprintf("v%d", i%4))
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				n := 0
				db.Relation("R").Lookup([]int{1}, []string{"v1"}, func(Tuple) bool { n++; return true })
				if n != rows/4 {
					t.Errorf("lookup saw %d, want %d", n, rows/4)
					return
				}
			}
		}()
	}
	wg.Wait()
}
