package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// obsServer is a testServer with the full observability surface wired:
// metrics registry, slow-query ring (threshold 0s short of everything —
// every request is "slow"), request IDs.
func obsServer(t *testing.T) *server {
	t.Helper()
	s := testServer(t)
	s.shards = 1
	s.idPrefix = "test"
	s.slow = newSlowLog(time.Nanosecond, 4)
	s.initObservability()
	return s
}

func TestSlowLogRingEvictionOrder(t *testing.T) {
	l := newSlowLog(time.Millisecond, 3)
	for i := 1; i <= 5; i++ {
		l.add(slowEntry{RequestID: fmt.Sprintf("r%d", i)})
	}
	entries, seen := l.snapshot()
	if seen != 5 {
		t.Fatalf("seen %d, want 5", seen)
	}
	got := make([]string, len(entries))
	for i, e := range entries {
		got[i] = e.RequestID
	}
	// Capacity 3, newest first: r5, r4, r3; r1 and r2 evicted oldest-first.
	if want := "r5,r4,r3"; strings.Join(got, ",") != want {
		t.Fatalf("ring order %v, want %s", got, want)
	}
}

func TestSlowLogDisabled(t *testing.T) {
	if newSlowLog(0, 8) != nil || newSlowLog(time.Second, 0) != nil {
		t.Fatal("zero threshold or capacity should disable the slow log")
	}
	s := testServer(t) // no slow log configured
	w := httptest.NewRecorder()
	s.handleSlow(w, httptest.NewRequest(http.MethodGet, "/v1/slow", nil))
	var resp slowResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Entries) != 0 || resp.Capacity != 0 {
		t.Fatalf("disabled slow log served entries: %+v", resp)
	}
}

// TestRequestIDHeaderAndErrorEnvelope: the middleware mints an ID, echoes
// it in X-Request-ID, and the error envelope carries the same ID.
func TestRequestIDHeaderAndErrorEnvelope(t *testing.T) {
	s := obsServer(t)
	s.quiet = true
	mux := s.mux()

	w := httptest.NewRecorder()
	mux.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/cite", strings.NewReader(`{}`)))
	if w.Code != http.StatusBadRequest {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	id := w.Header().Get("X-Request-ID")
	if id == "" || !strings.HasPrefix(id, "test-") {
		t.Fatalf("X-Request-ID %q", id)
	}
	var env errorEnvelope
	if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	if env.Error.RequestID != id {
		t.Fatalf("envelope request_id %q != header %q", env.Error.RequestID, id)
	}

	// IDs are unique per request.
	w2 := httptest.NewRecorder()
	mux.ServeHTTP(w2, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if id2 := w2.Header().Get("X-Request-ID"); id2 == "" || id2 == id {
		t.Fatalf("second request ID %q not distinct from %q", id2, id)
	}
}

// TestMetricsEndpoint drives one cite and checks the Prometheus text
// output covers the cite latency histogram, per-stage histograms, cache,
// plan-cache and HTTP counters.
func TestMetricsEndpoint(t *testing.T) {
	s := obsServer(t)
	s.quiet = true
	mux := s.mux()
	body := `{"sql": "SELECT f.FName FROM Family f, FamilyIntro i WHERE f.FID = i.FID AND f.Type = 'gpcr'"}`
	w := httptest.NewRecorder()
	mux.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/cite", strings.NewReader(body)))
	if w.Code != http.StatusOK {
		t.Fatalf("cite: %d %s", w.Code, w.Body.String())
	}

	mw := httptest.NewRecorder()
	mux.ServeHTTP(mw, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if mw.Code != http.StatusOK {
		t.Fatalf("/metrics: %d", mw.Code)
	}
	if ct := mw.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type %q", ct)
	}
	text := mw.Body.String()
	for _, want := range []string{
		"# TYPE citare_cite_duration_seconds histogram",
		"citare_cite_duration_seconds_count 1",
		"citare_cites_total 1",
		"citare_tuples_total 3",
		`citare_stage_duration_seconds_count{stage="eval"} 1`,
		`citare_stage_duration_seconds_count{stage="render"} 1`,
		"citare_result_cache_misses_total 1",
		`citare_plan_cache_misses_total{tier="logical"} 1`,
		`citare_plan_cache_misses_total{tier="physical"}`,
		`citesrv_http_requests_total{route="/v1/cite",status="200"} 1`,
		`citesrv_http_request_duration_seconds_count{route="/v1/cite"} 1`,
		"citare_uptime_seconds",
		"citare_engine_shards 1",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, text)
		}
	}
}

// TestSlowLogEndToEnd: with a sub-nanosecond threshold every request is
// captured; /v1/slow serves the entry with its ID, query, tuple count and
// pipeline trace. The trace of a /v1/cite served through the citation cache
// has its parse span, on a miss and on a hit alike, so its stage sums cover
// the parse time.
func TestSlowLogEndToEnd(t *testing.T) {
	s := obsServer(t)
	s.quiet = true
	mux := s.mux()
	body := `{"sql": "SELECT f.FName FROM Family f, FamilyIntro i WHERE f.FID = i.FID AND f.Type = 'gpcr'"}`
	cite := func() string {
		w := httptest.NewRecorder()
		mux.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/cite", strings.NewReader(body)))
		if w.Code != http.StatusOK {
			t.Fatalf("cite: %d %s", w.Code, w.Body.String())
		}
		return w.Header().Get("X-Request-ID")
	}
	miss, hit := cite(), cite()

	sw := httptest.NewRecorder()
	mux.ServeHTTP(sw, httptest.NewRequest(http.MethodGet, "/v1/slow", nil))
	var resp slowResponse
	if err := json.Unmarshal(sw.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Entries) == 0 {
		t.Fatalf("no slow entries: %s", sw.Body.String())
	}
	for _, id := range []string{miss, hit} {
		var entry *slowEntry
		for i := range resp.Entries {
			if resp.Entries[i].RequestID == id {
				entry = &resp.Entries[i]
				break
			}
		}
		if entry == nil {
			t.Fatalf("cite request %s not captured: %s", id, sw.Body.String())
		}
		if entry.Route != "/v1/cite" || entry.Status != http.StatusOK || entry.Tuples != 3 {
			t.Fatalf("entry %+v", entry)
		}
		if !strings.Contains(entry.Query, "SELECT") {
			t.Fatalf("entry query %q", entry.Query)
		}
		if entry.Trace.Find("parse") == nil {
			t.Fatalf("request %s: entry trace has no parse span: %+v", id, entry.Trace)
		}
		if id == miss && entry.Trace.Find("eval") == nil {
			t.Fatalf("the miss's entry trace missing eval stage: %+v", entry.Trace)
		}
	}
}

// TestStreamTrailerStageTotals: the NDJSON trailer reports per-stage
// timing totals covering the whole pipeline.
func TestStreamTrailerStageTotals(t *testing.T) {
	s := testServer(t)
	body := `{"sql": "SELECT f.FName FROM Family f, FamilyIntro i WHERE f.FID = i.FID AND f.Type = 'gpcr'"}`
	w := httptest.NewRecorder()
	s.handleCiteStream(w, httptest.NewRequest(http.MethodPost, "/v1/cite/stream", strings.NewReader(body)))
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	_, trailer := decodeStream(t, w.Body.String())
	if trailer.StageNs == nil {
		t.Fatal("trailer carries no stage_ns")
	}
	for _, stage := range []string{"parse", "rewrite", "eval", "gather", "render", "cite"} {
		if _, ok := trailer.StageNs[stage]; !ok {
			t.Fatalf("trailer stage_ns missing %q: %v", stage, trailer.StageNs)
		}
	}
	if trailer.StageNs["cite"] <= 0 || trailer.Cached {
		t.Fatalf("an evaluated stream's trailer: %+v", trailer)
	}

	// A stream of a cached citation is a replay: the trailer says so, and the
	// lookup — the parse span — is the only stage it has.
	s.handleCite(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v1/cite", strings.NewReader(body)))
	w = httptest.NewRecorder()
	s.handleCiteStream(w, httptest.NewRequest(http.MethodPost, "/v1/cite/stream", strings.NewReader(body)))
	tuples, trailer := decodeStream(t, w.Body.String())
	if !trailer.Cached || trailer.Tuples != len(tuples) || len(tuples) != 3 {
		t.Fatalf("replayed stream: %d lines, trailer %+v", len(tuples), trailer)
	}
	if len(trailer.StageNs) != 1 || trailer.StageNs["parse"] <= 0 {
		t.Fatalf("replayed stream's stage_ns: %v, want the parse span alone", trailer.StageNs)
	}
}

// TestExplainOverHTTP: the explain wire field returns the stage report and
// never changes the citation payload.
func TestExplainOverHTTP(t *testing.T) {
	s := testServer(t)
	query := `"sql": "SELECT f.FName FROM Family f, FamilyIntro i WHERE f.FID = i.FID AND f.Type = 'gpcr'"`
	post := func(body string) citeResponse {
		w := httptest.NewRecorder()
		s.handleCite(w, httptest.NewRequest(http.MethodPost, "/v1/cite", strings.NewReader(body)))
		if w.Code != http.StatusOK {
			t.Fatalf("status %d: %s", w.Code, w.Body.String())
		}
		var resp citeResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}
	plain := post(`{` + query + `}`)
	explained := post(`{` + query + `, "explain": true}`)
	if plain.Explain != nil {
		t.Fatal("plain response carries explain")
	}
	if explained.Explain == nil || len(explained.Explain.Stages) == 0 {
		t.Fatal("explained response carries no stages")
	}
	if explained.Explain.Find("eval") == nil {
		t.Fatalf("explain has no eval stage: %+v", explained.Explain.Stages)
	}
	// Identical citation payload either way.
	explained.Explain = nil
	got, _ := json.Marshal(explained)
	want, _ := json.Marshal(plain)
	if string(got) != string(want) {
		t.Fatalf("explain changed the citation payload:\n got %s\nwant %s", got, want)
	}
}

// TestStatsPlanCountersAndUptime: /stats keeps its old fields and gains
// plan-cache counters and uptime.
func TestStatsPlanCountersAndUptime(t *testing.T) {
	s := obsServer(t)
	s.quiet = true
	mux := s.mux()
	body := `{"datalog": "Q(N) :- Family(F, N, Ty), Ty = \"gpcr\""}`
	for i := 0; i < 2; i++ {
		w := httptest.NewRecorder()
		mux.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/cite", strings.NewReader(body)))
		if w.Code != http.StatusOK {
			t.Fatalf("cite %d: %d %s", i, w.Code, w.Body.String())
		}
	}
	w := httptest.NewRecorder()
	mux.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/stats", nil))
	var resp struct {
		Hits         uint64 `json:"hits"`
		Misses       uint64 `json:"misses"`
		LogicalPlans struct {
			Hits   uint64 `json:"hits"`
			Misses uint64 `json:"misses"`
		} `json:"logical_plans"`
		PhysicalPlans struct {
			Misses uint64 `json:"misses"`
		} `json:"physical_plans"`
		UptimeSeconds float64 `json:"uptime_seconds"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("unmarshal %s: %v", w.Body.String(), err)
	}
	if resp.Hits != 1 || resp.Misses != 1 {
		t.Fatalf("old fields broken: %+v", resp)
	}
	if resp.LogicalPlans.Misses == 0 {
		t.Fatalf("logical plan misses not reported: %s", w.Body.String())
	}
	if resp.PhysicalPlans.Misses == 0 {
		t.Fatalf("physical plan misses not reported: %s", w.Body.String())
	}
	if resp.UptimeSeconds <= 0 {
		t.Fatalf("uptime %v", resp.UptimeSeconds)
	}
}
