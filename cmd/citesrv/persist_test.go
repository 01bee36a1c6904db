package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"citare"
	"citare/internal/backend"
	"citare/internal/gtopdb"
	"citare/internal/lsm"
	"citare/internal/storage"
)

// openPersistentServer boots as main() does with -data-dir and no -data:
// open-or-recover the store in dir, seed it from the paper instance on first
// boot, and build a backend-backed server.
func openPersistentServer(t *testing.T, dir string) (*server, *backend.LSM) {
	t.Helper()
	pers, err := openStore(dir, "")
	if err != nil {
		t.Fatal(err)
	}
	citer, err := citare.NewBackendFromProgram(pers, gtopdb.ViewsProgram,
		citare.WithNeutralCitation(gtopdb.DatabaseCitation()))
	if err != nil {
		t.Fatal(err)
	}
	s := &server{citer: citare.NewCached(citer), viewsProgram: gtopdb.ViewsProgram, lsm: pers.Store()}
	s.initObservability()
	return s, pers
}

// TestPersistentServerSeedRecoverParity boots a -data-dir server twice on
// the same directory: the first boot seeds from the paper instance, the
// second recovers from disk with no reload — and both serve citations
// byte-identical to the in-memory server, with LSM internals surfaced on
// /stats and /metrics.
func TestPersistentServerSeedRecoverParity(t *testing.T) {
	dir := t.TempDir()
	body := `{"sql": "SELECT f.FName FROM Family f, FamilyIntro i WHERE f.FID = i.FID AND f.Type = 'gpcr'"}`

	cite := func(s *server) string {
		w := httptest.NewRecorder()
		s.handleCite(w, httptest.NewRequest(http.MethodPost, "/v1/cite", strings.NewReader(body)))
		if w.Code != http.StatusOK {
			t.Fatalf("cite status = %d: %s", w.Code, w.Body.String())
		}
		return w.Body.String()
	}
	want := cite(testServer(t))

	s1, pers1 := openPersistentServer(t, dir)
	if got := pers1.Versions(); len(got) != 1 {
		t.Fatalf("first boot on an empty dir: versions %v, want the seed's [1]", got)
	}
	if got := cite(s1); got != want {
		t.Errorf("persistent citation differs from in-memory:\n got %s\nwant %s", got, want)
	}

	// /stats carries the lsm section.
	st := stats(t, s1)
	if st.LSM.Version != 2 { // seed committed as version 1, head is 2
		t.Errorf("lsm version = %d, want 2", st.LSM.Version)
	}

	// /metrics carries the citare_lsm_* series.
	w := httptest.NewRecorder()
	s1.handleMetrics(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	for _, series := range []string{"citare_lsm_version", "citare_lsm_wal_bytes", "citare_lsm_sstables{level=\"0\"}",
		"citare_lsm_block_cache_hits_total", "citare_lsm_block_cache_misses_total", "citare_lsm_block_cache_evictions_total"} {
		if !strings.Contains(w.Body.String(), series) {
			t.Errorf("/metrics missing %s", series)
		}
	}

	// Flush the seed so the second boot reads it from an SSTable.
	if err := pers1.Store().Flush(); err != nil {
		t.Fatal(err)
	}
	if err := pers1.Close(); err != nil {
		t.Fatal(err)
	}

	// Second boot: recover, don't reseed, serve identical bytes.
	s2, pers2 := openPersistentServer(t, dir)
	defer pers2.Close()
	if got := pers2.Versions(); len(got) != 1 {
		t.Fatalf("second boot: versions %v, want [1]: a reseed commits again", got)
	}
	if got := pers2.Label(1); got != "initial load" {
		t.Errorf("recovered label(1) = %q, want %q", got, "initial load")
	}
	if got := cite(s2); got != want {
		t.Errorf("recovered citation differs from in-memory:\n got %s\nwant %s", got, want)
	}

	// The recovered server read that citation from the flushed table, filling
	// the block cache (misses); a new query over the same relations reads the
	// cached blocks (hits) and fills nothing.
	misses := stats(t, s2).LSM.BlockCache.Misses
	if misses == 0 {
		t.Errorf("lsm block_cache = %+v: a read of a flushed table filled nothing", stats(t, s2).LSM.BlockCache)
	}
	w = httptest.NewRecorder()
	s2.handleCite(w, httptest.NewRequest(http.MethodPost, "/v1/cite",
		strings.NewReader(`{"sql": "SELECT i.Text FROM Family f, FamilyIntro i WHERE f.FID = i.FID AND f.Type = 'lgic'"}`)))
	if w.Code != http.StatusOK {
		t.Fatalf("cite status = %d: %s", w.Code, w.Body.String())
	}
	if got := stats(t, s2).LSM.BlockCache; got.Hits == 0 || got.Misses != misses {
		t.Errorf("lsm block_cache = %+v after a warm read, want hits > 0 and misses %d", got, misses)
	}
}

// TestFailedSeedIsSeededAgain: a first boot on a CSV with a malformed row
// after 1,000 good ones fails and commits nothing, leaving the good rows in
// the store uncommitted. The next boot, on a corrected CSV that renames one
// of those rows and drops another, deletes what the failed seed left, seeds
// again and serves exactly the corrected CSV as version 1.
func TestFailedSeedIsSeededAgain(t *testing.T) {
	dir, csvDir := t.TempDir(), t.TempDir()
	const families = 1500
	writeCSV := func(rel, body string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(csvDir, rel+".csv"), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	writeFamilies := func(corrected bool) {
		var b strings.Builder
		b.WriteString("FID,FName,Type\n")
		for i := 0; i < families; i++ {
			switch {
			case !corrected && i == 1000:
				fmt.Fprintf(&b, "f%d,Family %d\n", i, i) // no Type
			case corrected && i == 5:
				b.WriteString("f5,Renamed 5,gpcr\n") // a keyed row the failed seed wrote, changed
			case corrected && i == 7: // a row the failed seed wrote, dropped
			default:
				fmt.Fprintf(&b, "f%d,Family %d,gpcr\n", i, i)
			}
		}
		writeCSV("Family", b.String())
	}
	writeCSV("FamilyIntro", "FID,Text\nf1499,Intro 1499\n")
	writeFamilies(false)
	if pers, err := openStore(dir, csvDir); err == nil {
		pers.Close()
		t.Fatal("a boot on a malformed CSV seeded the store")
	} else if !strings.Contains(err.Error(), "Family.csv") {
		t.Fatalf("seed error %q does not name the file", err)
	}
	failed, err := backend.OpenLSM(dir, nil, lsm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if live, versions := failed.Store().Stats().Live["Family"], failed.Versions(); live != 1000 || len(versions) != 0 {
		t.Fatalf("the failed seed left %d live families and versions %v, want 1000 and none", live, versions)
	}
	if err := failed.Close(); err != nil {
		t.Fatal(err)
	}

	writeFamilies(true)
	pers, err := openStore(dir, csvDir)
	if err != nil {
		t.Fatal(err)
	}
	defer pers.Close()
	if got := pers.Versions(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("versions = %v, want [1]", got)
	}
	v, err := pers.AsOf(1)
	if err != nil {
		t.Fatal(err)
	}
	defer v.Release()
	for rel, want := range map[string]int{"Family": families - 1, "FamilyIntro": 1} {
		if got := v.Relation(rel).Len(); got != want {
			t.Errorf("version 1 holds %d %s tuples, want %d", got, rel, want)
		}
	}
	names := map[string][]string{}
	v.Relation("Family").Scan(func(t storage.Tuple) bool {
		if t[0] == "f5" || t[0] == "f7" {
			names[t[0]] = append(names[t[0]], t[1])
		}
		return true
	})
	if got := names["f5"]; len(got) != 1 || got[0] != "Renamed 5" {
		t.Errorf("version 1 names f5 %q, want only the corrected %q", got, "Renamed 5")
	}
	if got := names["f7"]; len(got) != 0 {
		t.Errorf("version 1 holds f7 as %q, which the corrected CSV dropped", got)
	}

	citer, err := citare.NewBackendFromProgram(pers, gtopdb.ViewsProgram,
		citare.WithNeutralCitation(gtopdb.DatabaseCitation()))
	if err != nil {
		t.Fatal(err)
	}
	s := &server{citer: citare.NewCached(citer), viewsProgram: gtopdb.ViewsProgram, lsm: pers.Store()}
	s.initObservability()
	w := httptest.NewRecorder()
	s.handleCite(w, httptest.NewRequest(http.MethodPost, "/v1/cite",
		strings.NewReader(`{"sql": "SELECT f.FName FROM Family f, FamilyIntro i WHERE f.FID = i.FID"}`)))
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), "Family 1499") {
		t.Errorf("cite status = %d: %s", w.Code, w.Body.String())
	}
}

// TestPersistentServerTokenDeltas: a commit that adds a committee member,
// published by Invalidate, is cited at once — and the next citation brings
// its cached tokens forward instead of rendering them again: /stats counts
// them revalidated, the changed one delta-applied, and /metrics carries the
// same counters.
func TestPersistentServerTokenDeltas(t *testing.T) {
	s, pers := openPersistentServer(t, t.TempDir())
	defer pers.Close()
	cite := func() string {
		w := httptest.NewRecorder()
		s.handleCite(w, httptest.NewRequest(http.MethodPost, "/v1/cite",
			strings.NewReader(`{"datalog": "Q(N, Pn) :- Family(F, N, Ty), FC(F, P), Person(P, Pn, A)"}`)))
		if w.Code != http.StatusOK {
			t.Fatalf("cite status = %d: %s", w.Code, w.Body.String())
		}
		return w.Body.String()
	}
	// Two new members: the first change renders the committee token afresh
	// and keeps its rows, the second is applied to them by the delta rule.
	for _, pid := range []string{"9001", "9002"} {
		before := cite()
		for _, tu := range [][]string{{"Person", pid, "Member " + pid, "Somewhere"}, {"FC", "11", pid}} {
			if err := pers.Insert(tu[0], tu[1:]...); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := pers.Commit("new member"); err != nil {
			t.Fatal(err)
		}
		if err := s.citer.Invalidate(); err != nil {
			t.Fatal(err)
		}
		if after := cite(); after == before || !strings.Contains(after, "Member "+pid) {
			t.Fatalf("the committed member is not cited:\n%s", after)
		}
	}
	tc := stats(t, s).TokenCache
	if tc.Revalidated == 0 || tc.DeltaApplied == 0 || tc.DeltaApplied > tc.Revalidated {
		t.Fatalf("/stats token_cache = %+v: want tokens revalidated, some delta-applied", tc)
	}
	w := httptest.NewRecorder()
	s.handleMetrics(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	for _, series := range []string{
		"citare_token_cache_revalidated_total " + strconv.FormatUint(tc.Revalidated, 10),
		"citare_token_cache_delta_applied_total " + strconv.FormatUint(tc.DeltaApplied, 10),
	} {
		if !strings.Contains(w.Body.String(), series) {
			t.Errorf("/metrics missing %q", series)
		}
	}
}

// stats reads s's /stats, which on a persistent server has an lsm section.
func stats(t *testing.T, s *server) statsResponse {
	t.Helper()
	w := httptest.NewRecorder()
	s.handleStats(w, httptest.NewRequest(http.MethodGet, "/stats", nil))
	var st statsResponse
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.LSM == nil {
		t.Fatal("/stats missing lsm section on a persistent server")
	}
	return st
}
