package storage

import (
	"bytes"
	"strings"
	"testing"
)

func testSchema(t *testing.T) *Schema {
	t.Helper()
	s := NewSchema()
	s.MustAddRelation(&RelSchema{
		Name: "Family",
		Cols: []Column{{Name: "FID", Type: TInt}, {Name: "FName"}, {Name: "Type"}},
		Key:  []string{"FID"},
	})
	s.MustAddRelation(&RelSchema{
		Name: "FC",
		Cols: []Column{{Name: "FID", Type: TInt}, {Name: "PID", Type: TInt}},
		Key:  []string{"FID", "PID"},
		ForeignKeys: []ForeignKey{
			{Cols: []string{"FID"}, RefRel: "Family", RefCols: []string{"FID"}},
		},
	})
	if err := s.Validate(); err != nil {
		t.Fatalf("schema invalid: %v", err)
	}
	return s
}

func TestSchemaValidation(t *testing.T) {
	s := NewSchema()
	if err := s.AddRelation(&RelSchema{Name: ""}); err == nil {
		t.Fatal("empty relation name accepted")
	}
	s.MustAddRelation(&RelSchema{Name: "R", Cols: []Column{{Name: "a"}}})
	if err := s.AddRelation(&RelSchema{Name: "R", Cols: []Column{{Name: "a"}}}); err == nil {
		t.Fatal("duplicate relation accepted")
	}
	if err := s.AddRelation(&RelSchema{Name: "S", Cols: []Column{{Name: "a"}, {Name: "a"}}}); err == nil {
		t.Fatal("duplicate column accepted")
	}
	if err := s.AddRelation(&RelSchema{Name: "T", Cols: []Column{{Name: "a"}}, Key: []string{"b"}}); err == nil {
		t.Fatal("key over unknown column accepted")
	}
	bad := NewSchema()
	bad.MustAddRelation(&RelSchema{Name: "U", Cols: []Column{{Name: "a"}},
		ForeignKeys: []ForeignKey{{Cols: []string{"a"}, RefRel: "Nope", RefCols: []string{"x"}}}})
	if err := bad.Validate(); err == nil {
		t.Fatal("FK to unknown relation accepted")
	}
}

func TestInsertTypeAndKeyChecks(t *testing.T) {
	db := NewDB(testSchema(t))
	if err := db.Insert("Family", "11", "Calcitonin", "gpcr"); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("Family", "x", "Bad", "gpcr"); err == nil {
		t.Fatal("non-int FID accepted in int column")
	}
	if err := db.Insert("Family", "11", "Other", "lgic"); err == nil {
		t.Fatal("duplicate primary key accepted")
	}
	// Exact duplicate is a silent no-op (set semantics).
	if err := db.Insert("Family", "11", "Calcitonin", "gpcr"); err != nil {
		t.Fatal(err)
	}
	if got := db.Relation("Family").Len(); got != 1 {
		t.Fatalf("want 1 tuple, got %d", got)
	}
	if err := db.Insert("Family", "12", "Calcitonin", "gpcr"); err != nil {
		t.Fatal("distinct key with same payload must be accepted:", err)
	}
	if err := db.Insert("Nope", "1"); err == nil {
		t.Fatal("unknown relation accepted")
	}
	if err := db.Insert("Family", "13"); err == nil {
		t.Fatal("arity mismatch accepted")
	}
}

func TestDeleteAndReinsert(t *testing.T) {
	db := NewDB(testSchema(t))
	db.MustInsert("Family", "11", "Calcitonin", "gpcr")
	ok, err := db.Delete("Family", "11", "Calcitonin", "gpcr")
	if err != nil || !ok {
		t.Fatalf("delete failed: %v %v", ok, err)
	}
	if db.Relation("Family").Len() != 0 {
		t.Fatal("tuple still live after delete")
	}
	ok, _ = db.Delete("Family", "11", "Calcitonin", "gpcr")
	if ok {
		t.Fatal("double delete reported success")
	}
	// Key is free again after delete.
	if err := db.Insert("Family", "11", "Renamed", "gpcr"); err != nil {
		t.Fatalf("reinsert after delete rejected: %v", err)
	}
}

func TestIndexLookupMatchesScan(t *testing.T) {
	db := NewDB(testSchema(t))
	db.MustInsert("Family", "1", "A", "gpcr")
	db.MustInsert("Family", "2", "B", "gpcr")
	db.MustInsert("Family", "3", "C", "lgic")
	rel := db.Relation("Family")
	var viaIdx []string
	rel.Lookup([]int{2}, []string{"gpcr"}, func(tp Tuple) bool {
		viaIdx = append(viaIdx, tp[0])
		return true
	})
	var viaScan []string
	rel.Scan(func(tp Tuple) bool {
		if tp[2] == "gpcr" {
			viaScan = append(viaScan, tp[0])
		}
		return true
	})
	if strings.Join(viaIdx, ",") != strings.Join(viaScan, ",") {
		t.Fatalf("index %v != scan %v", viaIdx, viaScan)
	}
	// Index invalidation on mutation.
	db.MustInsert("Family", "4", "D", "gpcr")
	count := 0
	rel.Lookup([]int{2}, []string{"gpcr"}, func(Tuple) bool { count++; return true })
	if count != 3 {
		t.Fatalf("stale index after insert: got %d gpcr rows, want 3", count)
	}
}

func TestForeignKeys(t *testing.T) {
	db := NewDB(testSchema(t))
	db.MustInsert("Family", "11", "Calcitonin", "gpcr")
	db.MustInsert("FC", "11", "100")
	if err := db.CheckForeignKeys(); err != nil {
		t.Fatalf("valid FK flagged: %v", err)
	}
	db.MustInsert("FC", "99", "100")
	if err := db.CheckForeignKeys(); err == nil {
		t.Fatal("dangling FK not detected")
	}
}

func TestTupleKeyCollisionFree(t *testing.T) {
	a := Tuple{"a", ""}
	b := Tuple{"", "a"}
	if a.Key() == b.Key() {
		t.Fatal("keys collide for shifted empties")
	}
	c1 := Tuple{"x:y", "z"}
	c2 := Tuple{"x", "y:z"}
	if c1.Key() == c2.Key() {
		t.Fatal("keys collide for embedded separators")
	}
}

func TestCloneIsDeep(t *testing.T) {
	db := NewDB(testSchema(t))
	db.MustInsert("Family", "11", "Calcitonin", "gpcr")
	cp := db.Clone()
	cp.MustInsert("Family", "12", "Other", "gpcr")
	if db.Relation("Family").Len() != 1 {
		t.Fatal("clone mutation leaked into original")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	db := NewDB(testSchema(t))
	db.MustInsert("Family", "11", "Calcitonin, the peptide", "gpcr")
	db.MustInsert("Family", "12", `Quoted "name"`, "lgic")
	var buf bytes.Buffer
	if err := DumpCSV(db, "Family", &buf); err != nil {
		t.Fatal(err)
	}
	db2 := NewDB(testSchema(t))
	n, err := LoadCSV(db2, "Family", &buf, true)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("want 2 rows loaded, got %d", n)
	}
	for _, tup := range db.Relation("Family").Tuples() {
		if !db2.Relation("Family").Contains(tup) {
			t.Fatalf("round trip lost %v", tup)
		}
	}
}

func TestLoadCSVHeaderReorder(t *testing.T) {
	db := NewDB(testSchema(t))
	src := "Type,FID,FName\ngpcr,11,Calcitonin\n"
	if _, err := LoadCSV(db, "Family", strings.NewReader(src), true); err != nil {
		t.Fatal(err)
	}
	if !db.Relation("Family").Contains(Tuple{"11", "Calcitonin", "gpcr"}) {
		t.Fatalf("header reorder mishandled: %v", db.Relation("Family").Tuples())
	}
	if _, err := LoadCSV(db, "Family", strings.NewReader("A,B\n1,2\n"), true); err == nil {
		t.Fatal("bad header accepted")
	}
}
