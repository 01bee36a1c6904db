package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"citare"
	"citare/internal/backend"
	"citare/internal/gtopdb"
	"citare/internal/lsm"
)

// openPersistentServer mirrors main()'s -data-dir path: open-or-recover the
// store in dir, seed it from the paper instance on first boot, and build a
// backend-backed server. It reports whether this boot seeded.
func openPersistentServer(t *testing.T, dir string) (*server, *backend.LSM, bool) {
	t.Helper()
	pers, err := backend.OpenLSM(dir, gtopdb.Schema(), lsm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	seeded := false
	if storeIsEmpty(pers) {
		if _, err := seedStore(pers, gtopdb.PaperInstance()); err != nil {
			t.Fatal(err)
		}
		seeded = true
	}
	citer, err := citare.NewBackendFromProgram(pers, gtopdb.ViewsProgram,
		citare.WithNeutralCitation(gtopdb.DatabaseCitation()))
	if err != nil {
		t.Fatal(err)
	}
	s := &server{citer: citare.NewCached(citer), viewsProgram: gtopdb.ViewsProgram, lsm: pers.Store()}
	s.initObservability()
	return s, pers, seeded
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

	s1, pers1, seeded := openPersistentServer(t, dir)
	if !seeded {
		t.Fatal("first boot on an empty dir did not seed")
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
	s2, pers2, seeded := openPersistentServer(t, dir)
	defer pers2.Close()
	if seeded {
		t.Fatal("second boot reseeded a populated store")
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

// TestPersistentServerTokenDeltas: a commit that adds a committee member,
// published by Invalidate, is cited at once — and the next citation brings
// its cached tokens forward instead of rendering them again: /stats counts
// them revalidated, the changed one delta-applied, and /metrics carries the
// same counters.
func TestPersistentServerTokenDeltas(t *testing.T) {
	s, pers, _ := openPersistentServer(t, t.TempDir())
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
