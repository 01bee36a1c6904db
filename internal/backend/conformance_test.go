package backend

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"citare/internal/lsm"
	"citare/internal/storage"
)

// Conformance suite: fixed expectations for insert/delete/scan/lookup
// semantics, snapshot isolation and versioned reads through the Backend
// interface, on the LSM backend in two shapes — one whose memtable never
// fills, so every read is served from memory, and one whose tiny memtable
// pushes reads onto SSTables. The random-history check against a model
// (head, every AsOf, Versions, Label, across compaction and reopen) is
// internal/lsm's TestLSMModelSeek and FuzzLSMOps.

func confSchema() *storage.Schema {
	s := storage.NewSchema()
	s.MustAddRelation(&storage.RelSchema{
		Name: "ligand",
		Cols: []storage.Column{
			{Name: "id", Type: storage.TInt},
			{Name: "name", Type: storage.TString},
			{Name: "family", Type: storage.TString},
		},
		Key: []string{"id"},
	})
	s.MustAddRelation(&storage.RelSchema{
		Name: "cites",
		Cols: []storage.Column{{Name: "src", Type: storage.TString}, {Name: "dst", Type: storage.TString}},
	})
	return s
}

func eachBackend(t *testing.T, fn func(t *testing.T, b Backend)) {
	t.Helper()
	for _, shape := range []struct {
		name          string
		memtableBytes int
	}{
		{"memory", 0},    // the default 8 MiB memtable never fills: it serves every read
		{"lsm", 1 << 10}, // crosses the flush boundary: SSTable reads too
	} {
		t.Run(shape.name, func(t *testing.T) {
			b, err := OpenLSM(t.TempDir(), confSchema(), lsm.Options{
				MemtableBytes:               shape.memtableBytes,
				DisableBackgroundCompaction: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer b.Close()
			fn(t, b)
		})
	}
}

func viewRows(t *testing.T, v View, rel string) []string {
	t.Helper()
	r := v.Relation(rel)
	if r == nil {
		t.Fatalf("relation %s missing", rel)
	}
	var out []string
	r.Scan(func(tu storage.Tuple) bool {
		out = append(out, strings.Join(tu, "|"))
		return true
	})
	sort.Strings(out)
	return out
}

func lookupRows(t *testing.T, v View, rel string, cols []int, vals []string) []string {
	t.Helper()
	var out []string
	v.Relation(rel).Lookup(cols, vals, func(tu storage.Tuple) bool {
		out = append(out, strings.Join(tu, "|"))
		return true
	})
	sort.Strings(out)
	return out
}

func TestConformanceWriteSemantics(t *testing.T) {
	eachBackend(t, func(t *testing.T, b Backend) {
		if err := b.Insert("ligand", "1", "histamine", "amine"); err != nil {
			t.Fatal(err)
		}
		// Live duplicate: silent no-op.
		if err := b.Insert("ligand", "1", "histamine", "amine"); err != nil {
			t.Fatalf("duplicate insert: %v", err)
		}
		// Same key, different tuple: error.
		if err := b.Insert("ligand", "1", "other", "x"); err == nil {
			t.Fatal("primary-key clash accepted")
		}
		// Arity and type violations: error, nothing stored.
		if err := b.Insert("ligand", "2", "x"); err == nil {
			t.Fatal("arity violation accepted")
		}
		if err := b.Insert("ligand", "notanint", "x", "y"); err == nil {
			t.Fatal("type violation accepted")
		}
		if err := b.Insert("nosuchrel", "x"); err == nil {
			t.Fatal("unknown relation accepted")
		}
		// Delete of a missing tuple: (false, nil).
		if ok, err := b.Delete("ligand", "9", "x", "y"); ok || err != nil {
			t.Fatalf("phantom delete: %v %v", ok, err)
		}
		if ok, err := b.Delete("ligand", "1", "histamine", "amine"); !ok || err != nil {
			t.Fatalf("delete: %v %v", ok, err)
		}
		// Key is free again after the delete.
		if err := b.Insert("ligand", "1", "other", "x"); err != nil {
			t.Fatalf("reinsert after delete: %v", err)
		}
		v, err := b.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		defer v.Release()
		if got := viewRows(t, v, "ligand"); fmt.Sprint(got) != fmt.Sprint([]string{"1|other|x"}) {
			t.Fatalf("final state: %v", got)
		}
		if v.Relation("nosuchrel") != nil {
			t.Fatal("unknown relation view must be nil")
		}
	})
}

func TestConformanceScanAndLookup(t *testing.T) {
	eachBackend(t, func(t *testing.T, b Backend) {
		rows := [][3]string{
			{"1", "histamine", "amine"},
			{"2", "serotonin", "amine"},
			{"3", "ATP", "nucleotide"},
			{"4", "adenosine", "nucleotide"},
		}
		for _, r := range rows {
			if err := b.Insert("ligand", r[0], r[1], r[2]); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 40; i++ { // push LSM past its tiny memtable
			b.Insert("cites", fmt.Sprintf("p%02d", i), fmt.Sprintf("q%02d", i%7))
		}
		v, err := b.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		defer v.Release()
		if n := v.Relation("ligand").Len(); n != 4 {
			t.Fatalf("ligand Len = %d", n)
		}
		if n := v.Relation("cites").Len(); n != 40 {
			t.Fatalf("cites Len = %d", n)
		}
		if got := len(viewRows(t, v, "cites")); got != 40 {
			t.Fatalf("cites scan = %d rows", got)
		}
		// Lookup by key column, non-key column, and multi-column.
		if got := lookupRows(t, v, "ligand", []int{0}, []string{"3"}); fmt.Sprint(got) != fmt.Sprint([]string{"3|ATP|nucleotide"}) {
			t.Fatalf("lookup id=3: %v", got)
		}
		want := []string{"1|histamine|amine", "2|serotonin|amine"}
		if got := lookupRows(t, v, "ligand", []int{2}, []string{"amine"}); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("lookup family=amine: %v", got)
		}
		if got := lookupRows(t, v, "ligand", []int{2, 1}, []string{"amine", "serotonin"}); fmt.Sprint(got) != fmt.Sprint([]string{"2|serotonin|amine"}) {
			t.Fatalf("lookup family+name: %v", got)
		}
		if got := lookupRows(t, v, "cites", []int{1}, []string{"q03"}); len(got) != 6 {
			t.Fatalf("lookup dst=q03: %v", got)
		}
		if got := lookupRows(t, v, "ligand", []int{0}, []string{"99"}); len(got) != 0 {
			t.Fatalf("lookup miss: %v", got)
		}
	})
}

func TestConformanceSnapshotIsolation(t *testing.T) {
	eachBackend(t, func(t *testing.T, b Backend) {
		b.Insert("cites", "a", "b")
		v, err := b.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		defer v.Release()
		b.Insert("cites", "c", "d")
		b.Delete("cites", "a", "b")
		if got := viewRows(t, v, "cites"); fmt.Sprint(got) != fmt.Sprint([]string{"a|b"}) {
			t.Fatalf("snapshot leaked later writes: %v", got)
		}
		if n := v.Relation("cites").Len(); n != 1 {
			t.Fatalf("snapshot Len = %d", n)
		}
		head, err := b.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		defer head.Release()
		if got := viewRows(t, head, "cites"); fmt.Sprint(got) != fmt.Sprint([]string{"c|d"}) {
			t.Fatalf("head: %v", got)
		}
	})
}

func TestConformanceVersionedReads(t *testing.T) {
	eachBackend(t, func(t *testing.T, b Backend) {
		b.Insert("ligand", "1", "histamine", "amine")
		v1, err := b.Commit("2015.1")
		if err != nil {
			t.Fatal(err)
		}
		b.Insert("ligand", "2", "serotonin", "amine")
		b.Delete("ligand", "1", "histamine", "amine")
		v2, err := b.Commit("2015.2")
		if err != nil {
			t.Fatal(err)
		}
		b.Insert("ligand", "1", "histamine-v2", "amine")
		if got := b.Versions(); fmt.Sprint(got) != fmt.Sprint([]uint64{v1, v2}) {
			t.Fatalf("versions: %v", got)
		}
		if b.Label(v1) != "2015.1" || b.Label(v2) != "2015.2" {
			t.Fatalf("labels: %q %q", b.Label(v1), b.Label(v2))
		}
		at1, err := b.AsOf(v1)
		if err != nil {
			t.Fatal(err)
		}
		defer at1.Release()
		if got := viewRows(t, at1, "ligand"); fmt.Sprint(got) != fmt.Sprint([]string{"1|histamine|amine"}) {
			t.Fatalf("AsOf(%d): %v", v1, got)
		}
		if n := at1.Relation("ligand").Len(); n != 1 {
			t.Fatalf("AsOf(%d).Len = %d", v1, n)
		}
		at2, err := b.AsOf(v2)
		if err != nil {
			t.Fatal(err)
		}
		defer at2.Release()
		if got := viewRows(t, at2, "ligand"); fmt.Sprint(got) != fmt.Sprint([]string{"2|serotonin|amine"}) {
			t.Fatalf("AsOf(%d): %v", v2, got)
		}
		head, _ := b.Snapshot()
		defer head.Release()
		want := []string{"1|histamine-v2|amine", "2|serotonin|amine"}
		if got := viewRows(t, head, "ligand"); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("head: %v", got)
		}
		if _, err := b.AsOf(0); err == nil {
			t.Fatal("AsOf(0) accepted")
		}
		if _, err := b.AsOf(b.Version()); err == nil {
			t.Fatalf("AsOf(%d), the version still being written, accepted", b.Version())
		}
		if _, err := b.AsOf(99); err == nil {
			t.Fatal("AsOf far future accepted")
		}
	})
}
