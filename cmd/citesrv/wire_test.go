package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"citare"
	"citare/internal/fault"
	"citare/internal/gtopdb"
)

// respondReference shapes a citation into the wire struct through its public
// accessors, as the handlers did before Citation.AppendWire: with
// encoding/json it is the oracle of the response bytes.
func respondReference(t *testing.T, res *citare.Citation) citeResponse {
	t.Helper()
	rendered, err := res.Rendered()
	if err != nil {
		t.Fatal(err)
	}
	resp := citeResponse{
		Columns:    res.Columns(),
		Rows:       res.Rows(),
		Rewritings: res.Rewritings(),
		Citation:   rendered,
		Format:     res.Format(),
	}
	for i := 0; i < res.NumTuples(); i++ {
		p, err := res.TuplePolynomialAt(i)
		if err != nil {
			t.Fatal(err)
		}
		resp.Polynomials = append(resp.Polynomials, p)
	}
	return resp
}

// encoded is v as json.Encoder writes it.
func encoded(t *testing.T, v any) string {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// postJSON drives one handler and checks the framing of a JSON answer: the
// body goes out whole, under its length.
func postJSON(t *testing.T, h http.HandlerFunc, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	w := httptest.NewRecorder()
	h(w, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
	if ct := w.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("%s %s: Content-Type %q", path, body, ct)
	}
	if w.Code < 400 {
		if cl := w.Header().Get("Content-Length"); cl != strconv.Itoa(w.Body.Len()) {
			t.Fatalf("%s %s: Content-Length %q for a body of %d bytes", path, body, cl, w.Body.Len())
		}
	}
	return w
}

// roundTrips reports whether body is exactly what encoding/json makes of the
// value it decodes to — the test for answers whose content (trace durations,
// attempt counts) no second computation reproduces.
func roundTrips[T any](t *testing.T, body string) T {
	t.Helper()
	var v T
	if err := json.Unmarshal([]byte(body), &v); err != nil {
		t.Fatalf("%v: %s", err, body)
	}
	if want := encoded(t, v); body != want {
		t.Fatalf("body is not encoding/json's spelling of its own content:\n got %s\nwant %s", body, want)
	}
	return v
}

// TestResponsesMatchEncodingJSON pins the bodies handleCite and
// handleCiteBatch write to the bytes json.Encoder makes of citeResponse and
// batchResponse: on the miss that computes a citation, on the hit that builds
// its response memo and on the hits that copy it; for answers without tuples,
// an unsatisfiable query, every render format, SQL and datalog twins sharing
// an entry under their own column labels; with explain present; and for
// batch envelopes mixing results and errors, an unavailable shard's among
// them.
func TestResponsesMatchEncodingJSON(t *testing.T) {
	s := testServer(t)
	queries := []string{
		`"sql": "SELECT f.FName FROM Family f, FamilyIntro i WHERE f.FID = i.FID AND f.Type = 'gpcr'"`,
		`"datalog": "Q(Name) :- Family(F, Name, Ty), Ty = \"gpcr\", FamilyIntro(F, Tx)"`, // the SQL query's twin
		`"datalog": "Q(N, Pn) :- Family(F, N, Ty), FC(F, P), Person(P, Pn, A)"`,
		`"datalog": "Q(N) :- Family(F, N, Ty), F = \"no such family\""`,
		`"datalog": "Q(N) :- Family(F, N, Ty), Ty = \"a\", Ty = \"b\""`,
	}
	var bodies []string
	for _, q := range queries {
		for _, f := range []string{"", "json", "json-compact", "xml", "bibtex", "text"} {
			body := "{" + q + "}"
			if f != "" {
				body = "{" + q + `, "format": "` + f + `"}`
			}
			bodies = append(bodies, body)
			var req citeRequest
			if err := json.Unmarshal([]byte(body), &req); err != nil {
				t.Fatal(err)
			}
			for _, pass := range []string{"first", "second", "third"} {
				w := postJSON(t, s.handleCite, "/v1/cite", body)
				if w.Code != http.StatusOK {
					t.Fatalf("%s: status %d: %s", body, w.Code, w.Body.String())
				}
				// The same cache entry, read through the accessors.
				ct, err := s.citer.Cite(context.Background(), req.request())
				if err != nil {
					t.Fatal(err)
				}
				if want := encoded(t, respondReference(t, ct)); w.Body.String() != want {
					t.Fatalf("%s, %s answer:\n got %s\nwant %s", body, pass, w.Body.String(), want)
				}
			}
		}
	}
	if builds, n := s.citer.WireStats(); builds < 3 || n == 0 {
		t.Fatalf("the hits built %d memos (%d bytes), want one per cached query", builds, n)
	}

	// Explain: the report's durations differ from run to run.
	w := postJSON(t, s.handleCite, "/v1/cite", "{"+queries[0]+`, "explain": true}`)
	if resp := roundTrips[citeResponse](t, w.Body.String()); resp.Explain == nil || resp.Explain.Find("parse") == nil {
		t.Fatalf("explained answer carries no parse stage: %s", w.Body.String())
	}

	// A batch mixing results (hits and a miss), a parse error, a schema error
	// and an exceeded bound: each result slot holds the /v1/cite answer.
	slots := append(bodies[:8:8],
		`{"datalog": "Q(N) :- Family(F, N"}`,
		`{"datalog": "Q(N) :- Nope(N)"}`,
		`{"sql": "SELECT FName FROM Family", "max_tuples": 1}`,
		`{"datalog": "Q(T) :- Family(F, N, T)"}`)
	w = postJSON(t, s.handleCiteBatch, "/v1/cite/batch", `{"requests": [`+strings.Join(slots, ", ")+`]}`)
	if w.Code != http.StatusOK {
		t.Fatalf("batch: status %d: %s", w.Code, w.Body.String())
	}
	batch := roundTrips[batchResponse](t, w.Body.String())
	wantStatus := []int{200, 200, 200, 200, 200, 200, 200, 200, 400, 400, 422, 200}
	for i, slot := range batch.Results {
		if slot.Status != wantStatus[i] || (slot.Result == nil) == (slot.Status == 200) || (slot.Error == nil) != (slot.Status == 200) {
			t.Fatalf("batch slot %d (%s): %+v", i, slots[i], slot)
		}
		if slot.Result != nil {
			single := postJSON(t, s.handleCite, "/v1/cite", slots[i])
			if got := encoded(t, slot.Result); got != single.Body.String() {
				t.Fatalf("batch slot %d differs from the /v1/cite answer:\n got %s\nwant %s", i, got, single.Body.String())
			}
		}
	}
	// All slots failing one way: the envelope takes their status.
	w = postJSON(t, s.handleCiteBatch, "/v1/cite/batch", `{"requests": [`+slots[8]+`, `+slots[8]+`]}`)
	if roundTrips[batchResponse](t, w.Body.String()); w.Code != http.StatusBadRequest {
		t.Fatalf("uniform failure: status %d: %s", w.Code, w.Body.String())
	}

	// A dead shard's slot holds the typed 503 beside the others.
	in := fault.NewInjector()
	in.SetFault(1, fault.ShardFault{Permanent: true})
	rs := resilientTestServer(t, 3, in)
	w = postJSON(t, rs.handleCiteBatch, "/v1/cite/batch", `{"requests": [{`+queries[0]+`}, `+slots[8]+`]}`)
	if resp := roundTrips[batchResponse](t, w.Body.String()); w.Code != http.StatusOK ||
		resp.Results[0].Status != http.StatusServiceUnavailable || resp.Results[0].Error.Code != "unavailable" ||
		resp.Results[1].Status != http.StatusBadRequest {
		t.Fatalf("batch with a dead shard: status %d: %s", w.Code, w.Body.String())
	}
}

// TestRequestBodyBounds: a request body past the route's bound is refused
// with 413 and the typed envelope before anything is buffered or parsed; one
// exactly at the bound still parses and is answered.
func TestRequestBodyBounds(t *testing.T) {
	s := testServer(t)
	single := `{"datalog": "Q(N) :- Family(F, N, Ty), Ty = \"gpcr\""}`
	// JSON may be padded with white space: the object ends at the body's
	// last byte, so a bounded reader has to deliver every byte of it.
	padTo := func(n int, body string) string { return strings.Repeat(" ", n-len(body)) + body }
	for _, tc := range []struct {
		path    string
		handler http.HandlerFunc
		limit   int
		body    string
	}{
		{"/v1/cite", s.handleCite, maxRequestBody, single},
		{"/v1/cite/stream", s.handleCiteStream, maxRequestBody, single},
		{"/v1/cite/batch", s.handleCiteBatch, maxBatchBody, `{"requests": [` + single + `]}`},
	} {
		w := httptest.NewRecorder()
		tc.handler(w, httptest.NewRequest(http.MethodPost, tc.path, strings.NewReader(padTo(tc.limit, tc.body))))
		if w.Code != http.StatusOK {
			t.Fatalf("%s, body of exactly %d bytes: status %d: %.200s", tc.path, tc.limit, w.Code, w.Body.String())
		}
		w = httptest.NewRecorder()
		tc.handler(w, httptest.NewRequest(http.MethodPost, tc.path, strings.NewReader(padTo(tc.limit+1, tc.body))))
		var env errorEnvelope
		if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil {
			t.Fatalf("%s, oversized: %v: %.200s", tc.path, err, w.Body.String())
		}
		if w.Code != http.StatusRequestEntityTooLarge || env.Error.Code != "limit" || !strings.Contains(env.Error.Message, strconv.Itoa(tc.limit)) {
			t.Fatalf("%s, body of %d bytes: status %d, envelope %+v, want 413 limit naming the bound", tc.path, tc.limit+1, w.Code, env.Error)
		}
	}
	// A huge query text is the same case.
	w := httptest.NewRecorder()
	s.handleCite(w, httptest.NewRequest(http.MethodPost, "/v1/cite",
		strings.NewReader(`{"datalog": "`+strings.Repeat("x", maxRequestBody)+`"}`)))
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized datalog text: status %d", w.Code)
	}
}

// TestHandleCiteHitAllocs is the gate on what a repeated /v1/cite request
// costs end to end through the handler: decode the request, two lookups, copy
// the stored bytes into a pooled buffer, one Write. Measured through
// httptest: 35 allocations, a dozen of them the request and the recorder the
// test itself makes; 238 when every hit parsed and keyed its text, re-rendered
// the cached citation and went through reflection. The ceiling carries about
// 15%.
func TestHandleCiteHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	s := testServer(t)
	body := `{"datalog": "Q(N, Pn) :- Family(F, N, Ty), FC(F, P), Person(P, Pn, A)"}`
	size := 0
	post := func() {
		w := httptest.NewRecorder()
		w.Body = nil // the answer's bytes are not the handler's allocations
		s.handleCite(w, httptest.NewRequest(http.MethodPost, "/v1/cite", strings.NewReader(body)))
		if w.Code != http.StatusOK {
			t.Fatalf("status %d", w.Code)
		}
		size, _ = strconv.Atoi(w.Header().Get("Content-Length"))
	}
	post() // the miss
	post() // the hit that builds the memo
	got := testing.AllocsPerRun(100, post)
	t.Logf("handleCite hit: %.0f allocs for a body of %d bytes", got, size)
	if size < 1000 {
		t.Fatalf("answer of %d bytes, want one worth memoizing", size)
	}
	if got > 40 {
		t.Fatalf("handleCite hit: %.0f allocs, ceiling 40 — the handler is re-encoding the cached citation", got)
	}
}

// TestHandleStreamHitAllocs is the gate on what a stream of a cached citation
// costs through the handler: the request decoded, two lookups, per tuple the
// copy of its values, the lines appended into a pooled buffer and written a
// chunk at a time. Nothing may grow with the body: measured through httptest,
// 51 allocations (a dozen of them the test's own request and recorder) and
// 1.00 per tuple, 13 KB allocated for a body of 352 KB.
func TestHandleStreamHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	db := gtopdb.Generate(gtopdb.Config{Seed: 7, Families: 2000, Types: 50, Persons: 1000, CommitteeMin: 2, CommitteeMax: 6, IntroFraction: 0.6})
	citer, err := citare.NewFromProgram(db, gtopdb.ViewsProgram, citare.WithNeutralCitation(gtopdb.DatabaseCitation()))
	if err != nil {
		t.Fatal(err)
	}
	s := &server{citer: citare.NewCached(citer)}
	body := `{"datalog": "Q(N, Pn) :- Family(F, N, Ty), Ty = \"type-03\", FC(F, P), Person(P, Pn, A)"}`
	s.handleCite(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v1/cite", strings.NewReader(body)))
	w := httptest.NewRecorder()
	s.handleCiteStream(w, httptest.NewRequest(http.MethodPost, "/v1/cite/stream", strings.NewReader(body)))
	size, tuples := w.Body.Len(), strings.Count(w.Body.String(), "\n")-1
	if tuples < 100 || size < 4*streamChunk || !strings.Contains(w.Body.String(), `"cached":true`) {
		t.Fatalf("a stream of %d tuples and %d bytes, want a replay of several chunks", tuples, size)
	}
	post := func() {
		w := httptest.NewRecorder()
		w.Body = nil // the answer's bytes are not the handler's allocations
		s.handleCiteStream(w, httptest.NewRequest(http.MethodPost, "/v1/cite/stream", strings.NewReader(body)))
		if w.Code != http.StatusOK {
			t.Fatalf("status %d", w.Code)
		}
	}
	const runs = 50
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	got := testing.AllocsPerRun(runs, post)
	runtime.ReadMemStats(&m1)
	perStream := int(m1.TotalAlloc-m0.TotalAlloc) / (runs + 1)
	t.Logf("handleCiteStream hit: %.0f allocs, %d KB allocated for %d tuples and a body of %d KB", got, perStream>>10, tuples, size>>10)
	if ceiling := float64(tuples + 60); got > ceiling {
		t.Fatalf("handleCiteStream hit: %.0f allocs for %d tuples, ceiling %.0f — the handler is evaluating or re-encoding the cached citation", got, tuples, ceiling)
	}
	if perStream > size/4 {
		t.Fatalf("handleCiteStream hit allocates %d KB for a body of %d KB — the chunk buffer is not pooled, or a body is being assembled", perStream>>10, size>>10)
	}
}

// TestStreamResolvesOnce: a /v1/cite/stream request reads its text from the
// resolve memo exactly once — whether the cache replays it, it is evaluated,
// or it does not parse — and the trailer says which.
func TestStreamResolvesOnce(t *testing.T) {
	s := testServer(t)
	cited := `{"datalog": "Q(N) :- Family(F, N, Ty), Ty = \"gpcr\""}`
	s.handleCite(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v1/cite", strings.NewReader(cited)))
	for _, tc := range []struct {
		name, body string
		status     int
		replay     bool
	}{
		{"cached text", cited, http.StatusOK, true},
		{"new text", `{"datalog": "Q(N) :- Family(F, N, Ty), Ty = \"lgic\""}`, http.StatusOK, false},
		{"unparsable text", `{"sql": "SELEKT"}`, http.StatusBadRequest, false},
	} {
		before := s.citer.Citer().ResolveStats()
		w := httptest.NewRecorder()
		s.handleCiteStream(w, httptest.NewRequest(http.MethodPost, "/v1/cite/stream", strings.NewReader(tc.body)))
		after := s.citer.Citer().ResolveStats()
		if lookups := after.Hits + after.Misses - before.Hits - before.Misses; lookups != 1 || w.Code != tc.status {
			t.Fatalf("%s: status %d and %d resolve-memo lookups, want %d and one", tc.name, w.Code, lookups, tc.status)
		}
		if tc.status == http.StatusOK {
			if _, trailer := decodeStream(t, w.Body.String()); trailer.Cached != tc.replay {
				t.Fatalf("%s: trailer cached=%v, want %v", tc.name, trailer.Cached, tc.replay)
			}
		}
	}
}

// TestMemoCountersExposed: /stats and /metrics report the resolve memo's
// hits, misses and evictions, the wire memo's builds and bytes, and how many
// streams the citation cache answered and did not.
func TestMemoCountersExposed(t *testing.T) {
	s := obsServer(t)
	s.quiet = true
	mux := s.mux()
	body := `{"datalog": "Q(N) :- Family(F, N, Ty), Ty = \"gpcr\""}`
	size := 0
	for i := 0; i < 3; i++ {
		w := httptest.NewRecorder()
		mux.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/cite", strings.NewReader(body)))
		if w.Code != http.StatusOK {
			t.Fatalf("cite: %d %s", w.Code, w.Body.String())
		}
		size = w.Body.Len()
	}
	// Streams: one of the cached citation (a replay), one of a query the cache
	// has not seen (evaluated, nothing stored), one that fails.
	for _, b := range []string{body, `{"datalog": "Q(N) :- Family(F, N, Ty), Ty = \"lgic\""}`, `{"sql": "SELEKT"}`} {
		mux.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v1/cite/stream", strings.NewReader(b)))
	}
	w := httptest.NewRecorder()
	mux.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/stats", nil))
	var stats statsResponse
	if err := json.Unmarshal(w.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	// Every request reads its text once: a miss and two hits for the cited
	// text, a hit for its replay, a miss each for the new query and the one
	// that fails.
	if stats.ResolveMemo != (shardStats{Hits: 3, Misses: 3}) {
		t.Fatalf("/stats resolve_memo: %+v, want 3 hits / 3 misses", stats.ResolveMemo)
	}
	if stats.StreamHits != 1 || stats.StreamMisses != 2 {
		t.Fatalf("/stats stream_hits %d, stream_misses %d, want 1 and 2", stats.StreamHits, stats.StreamMisses)
	}
	// A stream's lookup is a lookup of the citation cache: its hit and its miss
	// count there too (the failed text never got as far as a key).
	if stats.Hits != 3 || stats.Misses != 2 {
		t.Fatalf("/stats citation cache: %d hits / %d misses, want 3 / 2", stats.Hits, stats.Misses)
	}
	if stats.WireMemo.Builds != 1 || stats.WireMemo.Bytes == 0 || int(stats.WireMemo.Bytes) >= size {
		t.Fatalf("/stats wire_memo: %+v for a response of %d bytes, want 1 build of nearly that", stats.WireMemo, size)
	}
	w = httptest.NewRecorder()
	mux.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	for _, want := range []string{
		"citare_resolve_memo_hits_total 3",
		"citare_resolve_memo_misses_total 3",
		"citare_stream_cache_hits_total 1",
		"citare_stream_cache_misses_total 2",
		"citare_resolve_memo_evictions_total 0",
		"citare_wire_memo_builds_total 1",
		fmt.Sprintf("citare_wire_memo_built_bytes_total %d", stats.WireMemo.Bytes),
		`citesrv_http_requests_total{route="/v1/cite",status="200"} 3`,
		`citesrv_http_request_duration_seconds_count{route="/v1/cite"} 3`,
		`citesrv_http_requests_total{route="/stats",status="200"} 1`,
	} {
		if !strings.Contains(w.Body.String(), want) {
			t.Fatalf("/metrics missing %q:\n%s", want, w.Body.String())
		}
	}
}

// TestServedPointMissAllocs is the gate on what a served point lookup costs
// when the engine knows its shape but not its constant — nearly every
// request of a lookup service: one /v1/cite request through the mux, so the
// middleware, the body's decoding, the handler and the write, over a
// 2,000-family instance, each request about a family not asked before.
// The server runs as the benchmark runs it: the default 30 s -timeout, no
// slow-query log, no access log. Measured through httptest, whose requests
// the test makes beforehand and whose recorder it makes per request: 105
// allocations and 6.7 KB per request; 164 and 12.9 KB while every body went
// through a json.Decoder, the middleware copied the request to carry its
// record, each header value was set anew and the bound query, its
// rewritings and its token rows were built whether read or not. The
// ceilings carry about 15%.
func TestServedPointMissAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	db := gtopdb.Generate(gtopdb.Config{Seed: 7, Families: 2000, Types: 50, Persons: 1000, CommitteeMin: 2, CommitteeMax: 6, IntroFraction: 0.6})
	citer, err := citare.NewFromProgram(db, gtopdb.ViewsProgram, citare.WithNeutralCitation(gtopdb.DatabaseCitation()))
	if err != nil {
		t.Fatal(err)
	}
	s := &server{citer: citare.NewCached(citer), quiet: true, timeout: 30 * time.Second}
	s.initObservability()
	mux := s.mux()
	const runs = 100
	reqs := make([]*http.Request, 2*runs+2)
	for i := range reqs {
		body := fmt.Sprintf(`{"datalog": "Q(N) :- Family(F, N, Ty), F = \"%d\""}`, 100+i)
		reqs[i] = httptest.NewRequest(http.MethodPost, "/v1/cite", strings.NewReader(body))
	}
	next := 0
	serve := func() {
		w := httptest.NewRecorder()
		w.Body = nil // the answer's bytes are not the server's allocations
		mux.ServeHTTP(w, reqs[next])
		next++
		if w.Code != http.StatusOK {
			t.Fatalf("status %d", w.Code)
		}
	}
	serve() // warm the shape
	allocs := testing.AllocsPerRun(runs, serve)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for range runs {
		serve()
	}
	runtime.ReadMemStats(&m1)
	bytes := (m1.TotalAlloc - m0.TotalAlloc) / runs
	t.Logf("a served point miss: %.0f allocs, %d B", allocs, bytes)
	if allocs > 121 || bytes > 7700 {
		t.Fatalf("a served point miss: %.0f allocs, %d B, ceilings 121 and 7700 B — the edge or the miss builds what it only reads", allocs, bytes)
	}
}

// TestTrailingDataIsRejected: a request body is one JSON object and nothing
// but white space after it. Data after the object — garbage, or a second
// object the server would silently drop — answers 400 "parse" on every
// route that reads a request.
func TestTrailingDataIsRejected(t *testing.T) {
	s := testServer(t)
	mux := s.mux()
	single := `{"datalog": "Q(N) :- Family(F, N, Ty), F = \"11\""}`
	batch := `{"requests": [` + single + `]}`
	for _, tc := range []struct{ path, body string }{
		{"/v1/cite", single},
		{"/v1/cite/stream", single},
		{"/v1/cite/batch", batch},
	} {
		w := httptest.NewRecorder()
		mux.ServeHTTP(w, httptest.NewRequest(http.MethodPost, tc.path, strings.NewReader(tc.body+" \n")))
		if w.Code != http.StatusOK {
			t.Fatalf("%s, the object and white space: status %d: %s", tc.path, w.Code, w.Body.String())
		}
		for _, trailing := range []string{` trailing garbage`, `{"sql":"x"}`} {
			w := httptest.NewRecorder()
			mux.ServeHTTP(w, httptest.NewRequest(http.MethodPost, tc.path, strings.NewReader(tc.body+trailing)))
			var env errorEnvelope
			if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil || w.Code != http.StatusBadRequest || env.Error.Code != "parse" {
				t.Fatalf("%s, the object then %q: status %d, body %s; want 400 parse", tc.path, trailing, w.Code, w.Body.String())
			}
		}
	}
}

// TestDecodeCiteRequestMatchesEncodingJSON holds the request decoder to
// json.Unmarshal, on the bodies its fast path takes and on those it hands
// over: the same request, or an error from both. FuzzCiteRequest checks
// the same on every body it makes.
func TestDecodeCiteRequestMatchesEncodingJSON(t *testing.T) {
	for _, body := range []string{
		`{}`, ` {"sql": "SELECT 1"} `, `{"datalog": "Q(N) :- R(N, \"a\\b\/c\tq\")", "format": "bibtex"}`,
		`{"sql": "a", "sql": "b"}`, `{"SQL": "upper case key"}`, `{"sql": "a", "SQL": "b"}`, `{"ſql": "long s"}`,
		`{"max_tuples": 0}`, `{"max_tuples": -3}`, `{"max_tuples": 12}`, `{"max_tuples": 012}`, `{"max_tuples": 1.0}`,
		`{"max_tuples": 1e2}`, `{"max_tuples": 99999999999999999999}`, `{"max_tuples": "3"}`, `{"max_tuples": null}`,
		`{"explain": true}`, `{"explain": false, "sql": "x"}`, `{"explain": 1}`, `{"explain": nul}`, `{"explain": truefalse}`,
		`{"sql": null}`, `{"sql": "\u00e9\ud83d\ude00"}`, `{"sql": "café"}`, "{\"sql\": \"\xff\"}", "{\"sql\": \"a\tb\"}",
		"{\"sql\": \"a\x01\"}", `{"sql": "\x"}`, `{"sql": "a\`, `{"sql" "a"}`, `{"sql": "a",}`, `{,}`, `{"sql": "a"}}`,
		`{"requests": [{"sql": "a"}]}`, `{"max_rewritings": 2, "sql": "a"}`, `{"sql": "a"} x`, `{"sql": "a"}{"sql": "b"}`,
		``, ` `, `null`, `[]`, `"sql"`, "\ufeff{}", `{"sql": "a"` + strings.Repeat(" ", 10),
		`{"s\u0071l": "escaped key"}`, `{"s\"ql": "a"}`, `{"sql": "\/\b\f\n\r\t\\\""}`, ` { "sql" : "a" , "format" : "b" } `,
		`{"format": "\u0062ibtex", "datalog": "d"}`, `{"sql": "a", "max_tuples": 3}`, `{"sql": "a" "datalog": "b"}`,
	} {
		var got, want citeRequest
		gotErr, wantErr := decodeCiteRequest([]byte(body), &got), json.Unmarshal([]byte(body), &want)
		if (gotErr == nil) != (wantErr == nil) || gotErr == nil && got != want {
			t.Fatalf("%q: decoded %+v, %v; encoding/json %+v, %v", body, got, gotErr, want, wantErr)
		}
	}
}
