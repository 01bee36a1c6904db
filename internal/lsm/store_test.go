package lsm

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"citare/internal/storage"
)

func testSchema(t *testing.T) *storage.Schema {
	t.Helper()
	s := storage.NewSchema()
	s.MustAddRelation(&storage.RelSchema{
		Name: "ligand",
		Cols: []storage.Column{{Name: "id", Type: storage.TInt}, {Name: "name", Type: storage.TString}},
		Key:  []string{"id"},
	})
	s.MustAddRelation(&storage.RelSchema{
		Name: "cites",
		Cols: []storage.Column{{Name: "src", Type: storage.TString}, {Name: "dst", Type: storage.TString}},
	})
	return s
}

func openTestStore(t *testing.T, dir string, opt Options) *Store {
	t.Helper()
	st, err := Open(dir, testSchema(t), opt)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func scanAll(t *testing.T, v *View, rel string) []string {
	t.Helper()
	r := v.Relation(rel)
	if r == nil {
		t.Fatalf("relation %s missing from view", rel)
	}
	var out []string
	r.Scan(func(tu storage.Tuple) bool {
		out = append(out, strings.Join(tu, "|"))
		return true
	})
	sort.Strings(out)
	return out
}

func TestEncodingRoundtrip(t *testing.T) {
	cases := [][]string{
		{"a", "b"},
		{"", ""},
		{"with\x00null", "x"},
		{"\x00", "\x00\x00"},
		{"z\xff", "tail"},
	}
	for _, vals := range cases {
		for ord := 0; ord < len(vals); ord++ {
			key := appendStamp(appendRotation(nil, "rel", ord, vals), 7, 42)
			ver, seq := stampOf(key)
			if ver != 7 || seq != 42 {
				t.Fatalf("stamp roundtrip: got (%d,%d)", ver, seq)
			}
			fields, err := decodeFields(logicalOf(key), len("rel")+2)
			if err != nil {
				t.Fatalf("decode %q: %v", vals, err)
			}
			got := unrotate(fields, ord)
			if fmt.Sprint(got) != fmt.Sprint(vals) {
				t.Fatalf("roundtrip ord %d: got %q want %q", ord, got, vals)
			}
		}
	}
}

func TestEncodingOrderPreserved(t *testing.T) {
	// Field escaping must preserve lexicographic order across boundaries.
	vals := []string{"", "\x00", "\x00a", "a", "a\x00", "ab", "b"}
	var keys [][]byte
	for _, v := range vals {
		keys = append(keys, appendField(nil, v))
	}
	for i := 1; i < len(keys); i++ {
		if bytes.Compare(keys[i-1], keys[i]) >= 0 {
			t.Fatalf("encoded order broken between %q and %q", vals[i-1], vals[i])
		}
	}
}

func TestStoreBasicSemantics(t *testing.T) {
	st := openTestStore(t, t.TempDir(), Options{DisableBackgroundCompaction: true})
	defer st.Close()
	if err := st.Insert("nope", "x"); err == nil {
		t.Fatal("unknown relation accepted")
	}
	if err := st.Insert("ligand", "1"); err == nil {
		t.Fatal("arity violation accepted")
	}
	if err := st.Insert("ligand", "abc", "x"); err == nil {
		t.Fatal("non-int key accepted")
	}
	if err := st.Insert("ligand", "1", "histamine"); err != nil {
		t.Fatal(err)
	}
	if err := st.Insert("ligand", "1", "histamine"); err != nil {
		t.Fatalf("live duplicate should be a no-op: %v", err)
	}
	if err := st.Insert("ligand", "1", "other"); err == nil {
		t.Fatal("primary-key clash accepted")
	}
	v, err := st.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if got := scanAll(t, v, "ligand"); len(got) != 1 || got[0] != "1|histamine" {
		t.Fatalf("scan: %v", got)
	}
	if n := v.Relation("ligand").Len(); n != 1 {
		t.Fatalf("Len = %d, want 1", n)
	}
	v.Release()
	if ok, err := st.Delete("ligand", "1", "histamine"); err != nil || !ok {
		t.Fatalf("delete: %v %v", ok, err)
	}
	if ok, _ := st.Delete("ligand", "1", "histamine"); ok {
		t.Fatal("double delete reported live")
	}
	// After the delete the key is free again.
	if err := st.Insert("ligand", "1", "other"); err != nil {
		t.Fatalf("reinsert after delete: %v", err)
	}
}

func TestStoreLookupOrderings(t *testing.T) {
	st := openTestStore(t, t.TempDir(), Options{DisableBackgroundCompaction: true})
	defer st.Close()
	edges := [][2]string{{"a", "b"}, {"a", "c"}, {"b", "c"}, {"c", "a"}}
	for _, e := range edges {
		if err := st.Insert("cites", e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Flush(); err != nil { // exercise the SSTable path too
		t.Fatal(err)
	}
	v, _ := st.Snapshot()
	defer v.Release()
	r := v.Relation("cites")
	collect := func(cols []int, vals []string) []string {
		var out []string
		r.Lookup(cols, vals, func(tu storage.Tuple) bool {
			out = append(out, strings.Join(tu, "|"))
			return true
		})
		sort.Strings(out)
		return out
	}
	if got := collect([]int{0}, []string{"a"}); fmt.Sprint(got) != fmt.Sprint([]string{"a|b", "a|c"}) {
		t.Fatalf("lookup src=a: %v", got)
	}
	// Column 1 is served by the rotated ordering, not a full scan + filter.
	if got := collect([]int{1}, []string{"c"}); fmt.Sprint(got) != fmt.Sprint([]string{"a|c", "b|c"}) {
		t.Fatalf("lookup dst=c: %v", got)
	}
	if got := collect([]int{1, 0}, []string{"c", "b"}); fmt.Sprint(got) != fmt.Sprint([]string{"b|c"}) {
		t.Fatalf("lookup both: %v", got)
	}
	if got := collect([]int{0}, []string{"zz"}); len(got) != 0 {
		t.Fatalf("lookup miss: %v", got)
	}
}

func TestSnapshotIsolationAndAsOf(t *testing.T) {
	st := openTestStore(t, t.TempDir(), Options{DisableBackgroundCompaction: true})
	defer st.Close()
	st.Insert("cites", "a", "b")
	v1c, err := st.Commit("first")
	if err != nil {
		t.Fatal(err)
	}
	snap, _ := st.Snapshot()
	defer snap.Release()
	st.Insert("cites", "c", "d")
	st.Delete("cites", "a", "b")
	if got := scanAll(t, snap, "cites"); fmt.Sprint(got) != fmt.Sprint([]string{"a|b"}) {
		t.Fatalf("snapshot saw later writes: %v", got)
	}
	if n := snap.Relation("cites").Len(); n != 1 {
		t.Fatalf("snapshot Len = %d", n)
	}
	st.Commit("second")
	old, err := st.AsOf(v1c)
	if err != nil {
		t.Fatal(err)
	}
	defer old.Release()
	if got := scanAll(t, old, "cites"); fmt.Sprint(got) != fmt.Sprint([]string{"a|b"}) {
		t.Fatalf("AsOf(%d): %v", v1c, got)
	}
	head, _ := st.Snapshot()
	defer head.Release()
	if got := scanAll(t, head, "cites"); fmt.Sprint(got) != fmt.Sprint([]string{"c|d"}) {
		t.Fatalf("head: %v", got)
	}
	if st.Label(v1c) != "first" {
		t.Fatalf("label: %q", st.Label(v1c))
	}
	if _, err := st.AsOf(99); err == nil {
		t.Fatal("AsOf out of range accepted")
	}
}

// TestAsOfOnlyCommittedVersions: the version still being written is not in
// Versions() and its contents still move, so AsOf refuses it rather than
// hand out a "pinned" view that a later view of the same version disagrees
// with. Once committed, it is accepted and stable.
func TestAsOfOnlyCommittedVersions(t *testing.T) {
	st := openTestStore(t, t.TempDir(), Options{DisableBackgroundCompaction: true})
	defer st.Close()
	st.Insert("cites", "a", "b")
	if _, err := st.Commit("first"); err != nil {
		t.Fatal(err)
	}
	st.Insert("cites", "c", "d")
	open := st.Version()
	if got := st.Versions(); fmt.Sprint(got) != "[1]" || open != 2 {
		t.Fatalf("Versions() = %v, Version() = %d; want [1] and 2", got, open)
	}
	for _, v := range []uint64{0, open, open + 1} {
		if view, err := st.AsOf(v); err == nil {
			n := view.Relation("cites").Len()
			view.Release()
			t.Fatalf("AsOf(%d) accepted (Len %d) with Versions() = %v", v, n, st.Versions())
		}
	}
	st.Insert("cites", "e", "f")
	if _, err := st.Commit("second"); err != nil {
		t.Fatal(err)
	}
	st.Insert("cites", "g", "h")
	for i := 0; i < 2; i++ { // a later write between two views changes neither
		view, err := st.AsOf(open)
		if err != nil {
			t.Fatal(err)
		}
		if got := scanAll(t, view, "cites"); fmt.Sprint(got) != "[a|b c|d e|f]" || view.Relation("cites").Len() != 3 {
			t.Fatalf("AsOf(%d) after its commit: %v, Len %d", open, got, view.Relation("cites").Len())
		}
		view.Release()
		st.Insert("cites", "i", "j")
	}
}

func TestFlushReopenAndWALReplay(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir, Options{DisableBackgroundCompaction: true})
	st.Insert("ligand", "1", "histamine")
	st.Commit("v1")
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	// These live only in the WAL when we "crash".
	st.Insert("ligand", "2", "serotonin")
	st.Delete("ligand", "1", "histamine")
	if _, err := st.Commit("v2"); err != nil {
		t.Fatal(err)
	}
	crash(st)

	re, err := Open(dir, nil, Options{DisableBackgroundCompaction: true})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	v, _ := re.Snapshot()
	defer v.Release()
	if got := scanAll(t, v, "ligand"); fmt.Sprint(got) != fmt.Sprint([]string{"2|serotonin"}) {
		t.Fatalf("after replay: %v", got)
	}
	if n := v.Relation("ligand").Len(); n != 1 {
		t.Fatalf("replayed Len = %d", n)
	}
	old, err := re.AsOf(1)
	if err != nil {
		t.Fatal(err)
	}
	defer old.Release()
	if got := scanAll(t, old, "ligand"); fmt.Sprint(got) != fmt.Sprint([]string{"1|histamine"}) {
		t.Fatalf("AsOf(1) after replay: %v", got)
	}
	if re.Label(2) != "v2" {
		t.Fatalf("replayed label: %q", re.Label(2))
	}
	// The PK uniqueness state survived too.
	if err := re.Insert("ligand", "2", "other"); err == nil {
		t.Fatal("pk clash missed after replay")
	}
}

// crash simulates a process kill: file handles drop with no flush, no
// manifest update, no WAL truncation.
func crash(s *Store) {
	s.wal.f.Close()
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
}

func TestCrashMidFlush(t *testing.T) {
	for _, point := range []string{"flush:after-sst", "flush:after-manifest"} {
		t.Run(point, func(t *testing.T) {
			dir := t.TempDir()
			boom := errors.New("boom")
			opt := Options{DisableBackgroundCompaction: true}
			opt.Failpoint = func(p string) error {
				if p == point {
					return boom
				}
				return nil
			}
			st, err := Open(dir, testSchema(t), opt)
			if err != nil {
				t.Fatal(err)
			}
			st.Insert("cites", "a", "b")
			st.Insert("cites", "c", "d")
			if _, err := st.Commit("v1"); err != nil {
				t.Fatal(err)
			}
			if err := st.Flush(); !errors.Is(err, boom) {
				t.Fatalf("flush error = %v, want failpoint", err)
			}
			crash(st)
			re, err := Open(dir, nil, Options{DisableBackgroundCompaction: true})
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			v, _ := re.Snapshot()
			defer v.Release()
			want := []string{"a|b", "c|d"}
			if got := scanAll(t, v, "cites"); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("recovered: %v, want %v", got, want)
			}
			if n := v.Relation("cites").Len(); n != 2 {
				t.Fatalf("recovered Len = %d", n)
			}
			// Continue writing after recovery; state must stay consistent.
			if err := re.Insert("cites", "e", "f"); err != nil {
				t.Fatal(err)
			}
			if err := re.Flush(); err != nil {
				t.Fatal(err)
			}
			v2, _ := re.Snapshot()
			defer v2.Release()
			if got := scanAll(t, v2, "cites"); len(got) != 3 {
				t.Fatalf("post-recovery state: %v", got)
			}
		})
	}
}

func TestCompactionKeepsAllVersions(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir, Options{DisableBackgroundCompaction: true})
	var commits []uint64
	for i := 0; i < 6; i++ {
		st.Insert("cites", fmt.Sprintf("p%d", i), "q")
		if i == 3 {
			st.Delete("cites", "p0", "q")
		}
		c, err := st.Commit("")
		if err != nil {
			t.Fatal(err)
		}
		commits = append(commits, c)
		if err := st.Flush(); err != nil { // one L0 table per version
			t.Fatal(err)
		}
	}
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	stats := st.Stats()
	if stats.Levels[0].Tables != 0 || stats.Levels[1].Tables == 0 {
		t.Fatalf("levels after compaction: %+v", stats.Levels)
	}
	wantAt := func(version uint64, want int) {
		t.Helper()
		v, err := st.AsOf(version)
		if err != nil {
			t.Fatal(err)
		}
		defer v.Release()
		got := scanAll(t, v, "cites")
		if len(got) != want {
			t.Fatalf("AsOf(%d) = %v, want %d tuples", version, got, want)
		}
		if n := v.Relation("cites").Len(); n != want {
			t.Fatalf("AsOf(%d).Len = %d, want %d", version, n, want)
		}
	}
	wantAt(commits[0], 1) // p0
	wantAt(commits[2], 3) // p0..p2
	wantAt(commits[3], 3) // p0 deleted, p1..p3 live
	wantAt(commits[5], 5)
	// Compaction must survive reopen.
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir, nil, Options{DisableBackgroundCompaction: true})
	if err != nil {
		t.Fatal(err)
	}
	st = re
	defer st.Close()
	wantAt(commits[3], 3)
	wantAt(commits[5], 5)
}

func TestOrphanSSTCleanup(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir, Options{DisableBackgroundCompaction: true})
	st.Insert("cites", "a", "b")
	st.Close()
	orphan := filepath.Join(dir, "999999.sst")
	if err := os.WriteFile(orphan, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir, nil, Options{DisableBackgroundCompaction: true})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if _, err := os.Stat(orphan); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("orphan sstable not removed at open")
	}
}

// TestCloseRemovesPinnedObsoleteTables: a view that is never released pins
// the tables it saw, obsolete ones included, until its finalizer runs; Close
// must not leave those files behind for the next Open to sweep.
func TestCloseRemovesPinnedObsoleteTables(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir, Options{DisableBackgroundCompaction: true})
	for i := 0; i < 3; i++ {
		st.Insert("cites", fmt.Sprintf("p%d", i), "q")
		if err := st.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	leaked, err := st.Snapshot() // pins three L0 tables, never released
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	sstFiles := func() int {
		names, err := filepath.Glob(filepath.Join(dir, "*.sst"))
		if err != nil {
			t.Fatal(err)
		}
		return len(names)
	}
	live := st.Stats().Levels[1].Tables
	if n := sstFiles(); n != live+3 {
		t.Fatalf("%d table files while the view pins the compaction's inputs, want %d", n, live+3)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if n := sstFiles(); n != live {
		t.Fatalf("%d table files after Close, want the manifest's %d", n, live)
	}
	leaked.Release()
}

func TestWALTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir, Options{DisableBackgroundCompaction: true})
	st.Insert("cites", "a", "b")
	st.Commit("v1")
	crash(st)
	walPath := filepath.Join(dir, walName)
	if err := os.WriteFile(walPath, appendCorruptTail(t, walPath), 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir, nil, Options{DisableBackgroundCompaction: true})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	v, _ := re.Snapshot()
	defer v.Release()
	if got := scanAll(t, v, "cites"); fmt.Sprint(got) != fmt.Sprint([]string{"a|b"}) {
		t.Fatalf("after torn tail: %v", got)
	}
}

func appendCorruptTail(t *testing.T, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return append(raw, 0xde, 0xad, 0xbe, 0xef, 0x01)
}

// TestFailedOpenReleasesTables: an Open that fails after opening some of the
// manifest's tables releases them, whichever table or check fails it — ten
// failed Opens leave the process's count of open descriptors as it was.
func TestFailedOpenReleasesTables(t *testing.T) {
	openFDs := func() int {
		t.Helper()
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skipf("no descriptor count: %v", err)
		}
		return len(ents)
	}
	// build writes a store of four flushed tables and returns their paths,
	// oldest first.
	build := func(dir string) []string {
		st := openTestStore(t, dir, Options{DisableBackgroundCompaction: true})
		for i := range 4 {
			if err := st.Insert("cites", fmt.Sprint("s", i), "d"); err != nil {
				t.Fatal(err)
			}
			if err := st.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		tables, _ := filepath.Glob(filepath.Join(dir, "*.sst"))
		if len(tables) != 4 {
			t.Fatalf("%d tables, want 4", len(tables))
		}
		sort.Strings(tables)
		return tables
	}
	corrupt := func(path string) {
		if err := os.WriteFile(path, []byte("not a table"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for name, breakStore := range map[string]func(dir string, tables []string){
		"oldest table corrupt": func(_ string, tables []string) { corrupt(tables[0]) },
		"newest table corrupt": func(_ string, tables []string) { corrupt(tables[3]) },
		"third level": func(dir string, _ []string) {
			path := filepath.Join(dir, manifestName)
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var man manifest
			if err := json.Unmarshal(raw, &man); err != nil {
				t.Fatal(err)
			}
			man.Levels = append(man.Levels, make([][]tableMeta, 3-len(man.Levels))...)
			if raw, err = json.Marshal(man); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
		},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			breakStore(dir, build(dir))
			before := openFDs()
			for range 10 {
				if st, err := Open(dir, nil, Options{DisableBackgroundCompaction: true}); err == nil {
					st.Close()
					t.Fatal("a broken store opened")
				}
			}
			if after := openFDs(); after != before {
				t.Fatalf("ten failed Opens: %d open descriptors, %d before", after, before)
			}
		})
	}
}
