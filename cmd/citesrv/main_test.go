package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"citare"
	"citare/internal/core"
	"citare/internal/cq"
	"citare/internal/datalog"
	"citare/internal/eval"
	"citare/internal/fault"
	"citare/internal/format"
	"citare/internal/gtopdb"
	"citare/internal/shard"
	"citare/internal/storage"
)

func testServer(t testing.TB) *server {
	t.Helper()
	citer, err := citare.NewFromProgram(gtopdb.PaperInstance(), gtopdb.ViewsProgram,
		citare.WithNeutralCitation(gtopdb.DatabaseCitation()))
	if err != nil {
		t.Fatal(err)
	}
	return &server{citer: citare.NewCached(citer), viewsProgram: gtopdb.ViewsProgram}
}

func TestHandleCiteSQL(t *testing.T) {
	s := testServer(t)
	body := `{"sql": "SELECT f.FName FROM Family f, FamilyIntro i WHERE f.FID = i.FID AND f.Type = 'gpcr'"}`
	req := httptest.NewRequest(http.MethodPost, "/v1/cite", strings.NewReader(body))
	w := httptest.NewRecorder()
	s.handleCite(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	var resp citeResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Rows) != 3 {
		t.Fatalf("rows: %v", resp.Rows)
	}
	if len(resp.Rewritings) == 0 || len(resp.Polynomials) != 3 {
		t.Fatalf("rewritings/polynomials missing: %+v", resp)
	}
	if !strings.Contains(resp.Citation, "IUPHAR") {
		t.Fatalf("neutral citation missing: %s", resp.Citation)
	}
}

func TestHandleCiteDatalogAndFormats(t *testing.T) {
	s := testServer(t)
	body := `{"datalog": "Q(N) :- Family(F, N, Ty), F = \"11\"", "format": "bibtex"}`
	req := httptest.NewRequest(http.MethodPost, "/v1/cite", strings.NewReader(body))
	w := httptest.NewRecorder()
	s.handleCite(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	var resp citeResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp.Citation, "@misc") {
		t.Fatalf("bibtex rendering missing: %s", resp.Citation)
	}
}

func TestHandleCiteErrors(t *testing.T) {
	s := testServer(t)
	cases := []struct {
		method   string
		body     string
		want     int
		wantCode string // error envelope code ("" = no envelope check)
	}{
		{http.MethodGet, ``, http.StatusMethodNotAllowed, ""},
		{http.MethodPost, `not json`, http.StatusBadRequest, "parse"},
		{http.MethodPost, `{}`, http.StatusBadRequest, "parse"},
		{http.MethodPost, `{"sql": "x", "datalog": "y"}`, http.StatusBadRequest, "parse"},
		{http.MethodPost, `{"sql": "SELECT nope FROM Nada"}`, http.StatusBadRequest, "parse"},
		{http.MethodPost, `{"sql": "SELECT FName FROM Family", "format": "yaml"}`, http.StatusBadRequest, "parse"},
		{http.MethodPost, `{"datalog": "Q(N) :- Nope(N)"}`, http.StatusBadRequest, "schema"},
		{http.MethodPost, `{"sql": "SELECT FName FROM Family", "max_tuples": 1}`, http.StatusUnprocessableEntity, "limit"},
	}
	for _, tc := range cases {
		req := httptest.NewRequest(tc.method, "/v1/cite", strings.NewReader(tc.body))
		w := httptest.NewRecorder()
		s.handleCite(w, req)
		if w.Code != tc.want {
			t.Fatalf("%s %q: status %d, want %d (%s)", tc.method, tc.body, w.Code, tc.want, w.Body.String())
		}
		if tc.wantCode == "" {
			continue
		}
		var env errorEnvelope
		if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil {
			t.Fatalf("%q: envelope unmarshal: %v (%s)", tc.body, err, w.Body.String())
		}
		if env.Error.Code != tc.wantCode {
			t.Fatalf("%q: error code %q, want %q", tc.body, env.Error.Code, tc.wantCode)
		}
	}
}

// TestHandleCiteTimeout drives a request through a server whose -timeout
// deadline has effectively already passed and expects a 408 envelope.
func TestHandleCiteTimeout(t *testing.T) {
	s := testServer(t)
	s.timeout = time.Nanosecond
	body := `{"sql": "SELECT f.FName FROM Family f, FamilyIntro i WHERE f.FID = i.FID AND f.Type = 'gpcr'"}`
	req := httptest.NewRequest(http.MethodPost, "/v1/cite", strings.NewReader(body))
	w := httptest.NewRecorder()
	s.handleCite(w, req)
	if w.Code != http.StatusRequestTimeout {
		t.Fatalf("status %d, want 408 (%s)", w.Code, w.Body.String())
	}
	var env errorEnvelope
	if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	if env.Error.Code != "timeout" {
		t.Fatalf("error code %q, want timeout", env.Error.Code)
	}
}

// TestHandleCiteBatch exercises /v1/cite/batch: per-request slots in order,
// equivalent requests byte-identical to the single endpoint, per-item errors
// confined to their own slots (200 envelope), and a uniform all-fail batch
// keeping its 4xx status.
func TestHandleCiteBatch(t *testing.T) {
	s := testServer(t)
	sql := `{"sql": "SELECT f.FName FROM Family f, FamilyIntro i WHERE f.FID = i.FID AND f.Type = 'gpcr'"}`

	single := httptest.NewRecorder()
	s.handleCite(single, httptest.NewRequest(http.MethodPost, "/v1/cite", strings.NewReader(sql)))
	if single.Code != http.StatusOK {
		t.Fatalf("single: status %d: %s", single.Code, single.Body.String())
	}
	var want citeResponse
	if err := json.Unmarshal(single.Body.Bytes(), &want); err != nil {
		t.Fatal(err)
	}

	batch := `{"requests": [` + sql + `, {"datalog": "Q(N) :- Family(F, N, Ty), F = \"11\""}, ` + sql + `]}`
	w := httptest.NewRecorder()
	s.handleCiteBatch(w, httptest.NewRequest(http.MethodPost, "/v1/cite/batch", strings.NewReader(batch)))
	if w.Code != http.StatusOK {
		t.Fatalf("batch: status %d: %s", w.Code, w.Body.String())
	}
	var resp batchResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("results: %d, want 3", len(resp.Results))
	}
	for _, i := range []int{0, 2} {
		if resp.Results[i].Status != http.StatusOK || resp.Results[i].Result == nil {
			t.Fatalf("batch slot %d: %+v, want 200 with result", i, resp.Results[i])
		}
		got, _ := json.Marshal(*resp.Results[i].Result)
		wantRaw, _ := json.Marshal(want)
		if string(got) != string(wantRaw) {
			t.Fatalf("batch result %d diverged from single response:\n got %s\nwant %s", i, got, wantRaw)
		}
	}
	if resp.Results[1].Result == nil || len(resp.Results[1].Result.Rows) != 1 {
		t.Fatalf("mixed batch member rows: %+v", resp.Results[1])
	}

	// Per-item isolation: the unparsable request fails in its own slot with
	// its own status; its siblings still evaluate and the envelope is 200.
	bad := `{"requests": [` + sql + `, {"sql": "SELECT nope FROM Nada"}]}`
	w = httptest.NewRecorder()
	s.handleCiteBatch(w, httptest.NewRequest(http.MethodPost, "/v1/cite/batch", strings.NewReader(bad)))
	if w.Code != http.StatusOK {
		t.Fatalf("mixed batch: status %d (%s)", w.Code, w.Body.String())
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Results[0].Status != http.StatusOK || resp.Results[0].Result == nil {
		t.Fatalf("mixed batch slot 0: %+v, want success", resp.Results[0])
	}
	if resp.Results[1].Status != http.StatusBadRequest || resp.Results[1].Error == nil || resp.Results[1].Error.Code != "parse" {
		t.Fatalf("mixed batch slot 1: %+v, want 400 parse error", resp.Results[1])
	}

	// A uniformly failing batch keeps its 4xx at the top level so naive
	// clients still see the failure.
	allBad := `{"requests": [{"sql": "SELEKT"}, {"sql": "SELECT nope FROM Nada"}]}`
	w = httptest.NewRecorder()
	s.handleCiteBatch(w, httptest.NewRequest(http.MethodPost, "/v1/cite/batch", strings.NewReader(allBad)))
	if w.Code != http.StatusBadRequest {
		t.Fatalf("uniform-failure batch: status %d (%s)", w.Code, w.Body.String())
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	for i, res := range resp.Results {
		if res.Status != http.StatusBadRequest || res.Error == nil || res.Error.Code != "parse" {
			t.Fatalf("uniform-failure slot %d: %+v, want 400 parse", i, res)
		}
	}
}

// decodeStream splits an NDJSON stream body into its tuple lines and the
// trailer (which must be the final line).
func decodeStream(t *testing.T, body string) ([]streamTuple, streamTrailer) {
	t.Helper()
	lines := strings.Split(strings.TrimRight(body, "\n"), "\n")
	if len(lines) == 0 {
		t.Fatalf("empty stream body")
	}
	var last streamTrailerLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("trailer line %q: %v", lines[len(lines)-1], err)
	}
	tuples := make([]streamTuple, len(lines)-1)
	for i, line := range lines[:len(lines)-1] {
		if err := json.Unmarshal([]byte(line), &tuples[i]); err != nil {
			t.Fatalf("tuple line %d %q: %v", i, line, err)
		}
	}
	return tuples, last.Trailer
}

// TestHandleCiteStream checks /v1/cite/stream against /v1/cite: same tuples
// in the same order, same polynomials, per-tuple citations present, and a
// trailer carrying the count.
func TestHandleCiteStream(t *testing.T) {
	s := testServer(t)
	body := `{"sql": "SELECT f.FName FROM Family f, FamilyIntro i WHERE f.FID = i.FID AND f.Type = 'gpcr'"}`

	single := httptest.NewRecorder()
	s.handleCite(single, httptest.NewRequest(http.MethodPost, "/v1/cite", strings.NewReader(body)))
	var want citeResponse
	if err := json.Unmarshal(single.Body.Bytes(), &want); err != nil {
		t.Fatal(err)
	}

	w := httptest.NewRecorder()
	s.handleCiteStream(w, httptest.NewRequest(http.MethodPost, "/v1/cite/stream", strings.NewReader(body)))
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type %q, want application/x-ndjson", ct)
	}
	tuples, trailer := decodeStream(t, w.Body.String())
	if trailer.Tuples != len(want.Rows) || trailer.Error != nil {
		t.Fatalf("trailer %+v, want %d tuples and no error", trailer, len(want.Rows))
	}
	if len(tuples) != len(want.Rows) {
		t.Fatalf("streamed %d tuples, want %d", len(tuples), len(want.Rows))
	}
	for i, tu := range tuples {
		if tu.Index != i {
			t.Fatalf("line %d carries index %d", i, tu.Index)
		}
		if got, exp := strings.Join(tu.Values, "|"), strings.Join(want.Rows[i], "|"); got != exp {
			t.Fatalf("tuple %d values %q, want %q", i, got, exp)
		}
		if tu.Polynomial != want.Polynomials[i] {
			t.Fatalf("tuple %d polynomial %q, want %q", i, tu.Polynomial, want.Polynomials[i])
		}
		if len(tu.Citation) == 0 || !json.Valid(tu.Citation) {
			t.Fatalf("tuple %d citation not valid JSON: %s", i, tu.Citation)
		}
	}
}

// TestHandleCiteStreamErrors: failures before the first tuple line fall back
// to the plain typed-error envelope with its real HTTP status.
func TestHandleCiteStreamErrors(t *testing.T) {
	s := testServer(t)
	cases := []struct {
		body     string
		want     int
		wantCode string
	}{
		{`not json`, http.StatusBadRequest, "parse"},
		{`{"sql": "SELEKT"}`, http.StatusBadRequest, "parse"},
		{`{"sql": "SELECT FName FROM Family", "max_tuples": 1}`, http.StatusUnprocessableEntity, "limit"},
	}
	for _, tc := range cases {
		w := httptest.NewRecorder()
		s.handleCiteStream(w, httptest.NewRequest(http.MethodPost, "/v1/cite/stream", strings.NewReader(tc.body)))
		if w.Code != tc.want {
			t.Fatalf("%q: status %d, want %d (%s)", tc.body, w.Code, tc.want, w.Body.String())
		}
		var env errorEnvelope
		if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil {
			t.Fatalf("%q: envelope unmarshal: %v (%s)", tc.body, err, w.Body.String())
		}
		if env.Error.Code != tc.wantCode {
			t.Fatalf("%q: error code %q, want %q", tc.body, env.Error.Code, tc.wantCode)
		}
	}
}

// hookedServer builds a server over a tiny single-view instance R(A,B) whose
// token renders run hook — the lever that makes "evaluation still running"
// observable to the streaming tests. Every output tuple of Q(A, B) carries
// its own λA token, so tokens render one per tuple, lazily.
func hookedServer(t *testing.T, rows int, hook func()) *server {
	t.Helper()
	sch := storage.NewSchema()
	sch.MustAddRelation(&storage.RelSchema{Name: "R", Cols: []storage.Column{{Name: "A"}, {Name: "B"}}})
	db := storage.NewDB(sch)
	for i := 0; i < rows; i++ {
		db.MustInsert("R", fmt.Sprintf("a%04d", i), "c")
	}
	parse := func(src string) *cq.Query {
		q, err := datalog.ParseQuery(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		return q
	}
	v, err := core.NewCitationView(parse(`λA. V(A, B) :- R(A, B)`), parse(`λA. C(A) :- R(A, B)`), nil)
	if err != nil {
		t.Fatal(err)
	}
	v.Fn = func(rows *format.Rows) (*format.Object, error) {
		if hook != nil {
			hook()
		}
		return format.NewObject().Set("N", format.S(strconv.Itoa(rows.Len()))), nil
	}
	citer, err := citare.New(db, []*citare.CitationView{v})
	if err != nil {
		t.Fatal(err)
	}
	return &server{citer: citare.NewCached(citer)}
}

// waitForGoroutines polls until the goroutine count returns to the baseline.
func waitForGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	t.Fatalf("goroutines leaked: %d -> %d\n%s", before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
}

// TestHandleCiteStreamFirstTupleEarly proves delivery-before-completion
// without wall-clock assumptions: every token render after the first blocks
// on a gate, and the client still reads the complete first NDJSON line while
// the remaining renders are provably not started.
func TestHandleCiteStreamFirstTupleEarly(t *testing.T) {
	const rows = 8
	var renders atomic.Int64
	gate := make(chan struct{})
	s := hookedServer(t, rows, func() {
		if renders.Add(1) > 1 {
			<-gate
		}
	})
	srv := httptest.NewServer(s.mux())
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/v1/cite/stream", "application/json",
		strings.NewReader(`{"datalog": "Q(A, B) :- R(A, B)"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	first, err := br.ReadString('\n')
	close(gate) // release the blocked renders before any Fatal below
	if err != nil {
		t.Fatal(err)
	}
	var tu streamTuple
	if err := json.Unmarshal([]byte(first), &tu); err != nil {
		t.Fatalf("first line %q: %v", first, err)
	}
	if tu.Index != 0 || len(tu.Values) != 2 {
		t.Fatalf("first line: %+v", tu)
	}
	// The first line arrived while at most the second render had started —
	// the rest of the evaluation's render phase had not run.
	if n := renders.Load(); n > 2 {
		t.Fatalf("first line arrived after %d renders, want at most 2 of %d", n, rows)
	}
	rest, err := io.ReadAll(br)
	if err != nil {
		t.Fatal(err)
	}
	tuples, trailer := decodeStream(t, first+string(rest))
	if len(tuples) != rows || trailer.Tuples != rows || trailer.Error != nil {
		t.Fatalf("stream completed with %d tuples, trailer %+v; want %d", len(tuples), trailer, rows)
	}
}

// TestHandleCiteStreamClientDisconnect: a client that walks away mid-stream
// cancels the evaluation; the handler and every eval goroutine exit.
func TestHandleCiteStreamClientDisconnect(t *testing.T) {
	before := runtime.NumGoroutine()
	s := hookedServer(t, 400, nil)
	srv := httptest.NewServer(s.mux())
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}

	resp, err := client.Post(srv.URL+"/v1/cite/stream", "application/json",
		strings.NewReader(`{"datalog": "Q(A, B) :- R(A, B)"}`))
	if err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(resp.Body)
	if _, err := br.ReadString('\n'); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close() // disconnect mid-stream, hundreds of tuples unread
	srv.Close()       // waits for the handler to notice and return
	client.CloseIdleConnections()
	waitForGoroutines(t, before)
}

// TestRetiredParallelFieldIgnored: a client still sending a retired knob —
// "parallel", or "max_rewritings", which on the paper's gpcr join would
// trade V5("gpcr") for V1·V2 at a bound of one — gets the response a request
// without it gets.
func TestRetiredParallelFieldIgnored(t *testing.T) {
	mux := testServer(t).mux()
	get := func(body string) string {
		w := httptest.NewRecorder()
		mux.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/cite", strings.NewReader(body)))
		if w.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", body, w.Code, w.Body.String())
		}
		return w.Body.String()
	}
	const query = `"datalog": "Q(N) :- Family(F, N, Ty), Ty = \"gpcr\", FamilyIntro(F, Tx)"`
	plain := get("{" + query + "}")
	for _, knob := range []string{`"parallel": 4`, `"max_rewritings": 1`} {
		if old := get("{" + query + ", " + knob + "}"); old != plain {
			t.Fatalf("with %s:\n%s\nwithout:\n%s", knob, old, plain)
		}
	}
}

func TestHandleViews(t *testing.T) {
	s := testServer(t)
	req := httptest.NewRequest(http.MethodGet, "/views", nil)
	w := httptest.NewRecorder()
	s.handleViews(w, req)
	if !strings.Contains(w.Body.String(), "view λF. V1") {
		t.Fatalf("views program missing: %s", w.Body.String()[:80])
	}
}

func testShardedServer(t *testing.T, shards int) *server {
	t.Helper()
	sdb, err := shard.FromDB(gtopdb.PaperInstance(), shards)
	if err != nil {
		t.Fatal(err)
	}
	citer, err := citare.NewShardedFromProgram(sdb, gtopdb.ViewsProgram,
		citare.WithNeutralCitation(gtopdb.DatabaseCitation()))
	if err != nil {
		t.Fatal(err)
	}
	return &server{citer: citare.NewCached(citer), viewsProgram: gtopdb.ViewsProgram, shards: shards}
}

// TestShardedServerParity routes the same request through an unsharded and
// a sharded server and requires byte-identical citation responses.
func TestShardedServerParity(t *testing.T) {
	body := `{"sql": "SELECT f.FName FROM Family f, FamilyIntro i WHERE f.FID = i.FID AND f.Type = 'gpcr'"}`
	respond := func(s *server) string {
		req := httptest.NewRequest(http.MethodPost, "/v1/cite", strings.NewReader(body))
		w := httptest.NewRecorder()
		s.handleCite(w, req)
		if w.Code != http.StatusOK {
			t.Fatalf("status %d: %s", w.Code, w.Body.String())
		}
		return w.Body.String()
	}
	want := respond(testServer(t))
	for _, n := range []int{1, 4} {
		if got := respond(testShardedServer(t, n)); got != want {
			t.Fatalf("shards=%d response diverged:\n got %s\nwant %s", n, got, want)
		}
	}
}

// resilientTestServer builds a sharded server with the fault injector at the
// shard-scan seam and the attempt policy over it, tuned for fast tests: no
// real backoff waits, a hair-trigger breaker that stays open once tripped.
func resilientTestServer(t *testing.T, shards int, in *fault.Injector) *server {
	t.Helper()
	sdb, err := shard.FromDB(gtopdb.PaperInstance(), shards)
	if err != nil {
		t.Fatal(err)
	}
	citer, err := citare.NewShardedFromProgram(sdb, gtopdb.ViewsProgram,
		citare.WithNeutralCitation(gtopdb.DatabaseCitation()))
	if err != nil {
		t.Fatal(err)
	}
	eng := citer.Engine()
	// The shard wrapper applies from the next snapshot the engine takes,
	// which SetResilience takes at once.
	eng.SetShardWrapper(in.Wrap)
	if err := eng.SetResilience(&citare.ResilienceConfig{
		AttemptTimeout:   200 * time.Millisecond,
		MaxAttempts:      2,
		BackoffBase:      time.Millisecond,
		BackoffMax:       4 * time.Millisecond,
		BreakerThreshold: 1,
		BreakerCooldown:  time.Hour,
		Seed:             1,
	}); err != nil {
		t.Fatal(err)
	}
	return &server{citer: citare.NewCached(citer), viewsProgram: gtopdb.ViewsProgram, shards: shards}
}

// TestResilientServerUnavailable drives the wire contract of a permanently
// dead shard end to end: requests that read it answer 503 "unavailable" —
// on /v1/cite, before a stream's first line, and in a batch slot — and the
// readiness probe and /stats surface the open breaker, which outlives Reset.
func TestResilientServerUnavailable(t *testing.T) {
	in := fault.NewInjector()
	in.SetFault(1, fault.ShardFault{Permanent: true})
	s := resilientTestServer(t, 3, in)
	strict := `{"sql": "SELECT f.FName FROM Family f, FamilyIntro i WHERE f.FID = i.FID AND f.Type = 'gpcr'"}`

	w := httptest.NewRecorder()
	s.handleCite(w, httptest.NewRequest(http.MethodPost, "/v1/cite", strings.NewReader(strict)))
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("cite: status %d, want 503 (%s)", w.Code, w.Body.String())
	}
	var env errorEnvelope
	if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	if env.Error.Code != "unavailable" {
		t.Fatalf("cite: error code %q, want unavailable", env.Error.Code)
	}

	// The failure tripped shard 1's breaker; readiness flips to 503, and
	// stays there across an epoch change.
	health := func(when string) {
		t.Helper()
		w := httptest.NewRecorder()
		s.handleHealth(w, httptest.NewRequest(http.MethodGet, "/v1/health", nil))
		if w.Code != http.StatusServiceUnavailable {
			t.Fatalf("health %s: status %d, want 503 (%s)", when, w.Code, w.Body.String())
		}
		var health healthResponse
		if err := json.Unmarshal(w.Body.Bytes(), &health); err != nil {
			t.Fatal(err)
		}
		if health.Status != "degraded" || len(health.Breakers) != 3 || health.Breakers[1].State != string(eval.BreakerOpen) {
			t.Fatalf("health %s: %+v, want degraded with shard 1's breaker of 3 open", when, health)
		}
	}
	health("after the failure")
	if err := s.citer.Invalidate(); err != nil { // the engine's Reset, and the cache's
		t.Fatal(err)
	}
	health("after Reset")

	// /stats carries the same breaker snapshot.
	w = httptest.NewRecorder()
	s.handleStats(w, httptest.NewRequest(http.MethodGet, "/stats", nil))
	var stats statsResponse
	if err := json.Unmarshal(w.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if len(stats.Breakers) != 3 || stats.Breakers[1].State != string(eval.BreakerOpen) {
		t.Fatalf("stats breakers: %+v, want shard 1 open", stats.Breakers)
	}

	// A stream that fails before its first line answers with the typed 503.
	w = httptest.NewRecorder()
	s.handleCiteStream(w, httptest.NewRequest(http.MethodPost, "/v1/cite/stream", strings.NewReader(strict)))
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("stream: status %d, want 503 (%s)", w.Code, w.Body.String())
	}

	// A batch slot that reads the dead shard fails 503 on its own.
	batch := `{"requests": [` + strict + `, {"datalog": "Q(N) :- Family(F, N"}]}`
	w = httptest.NewRecorder()
	s.handleCiteBatch(w, httptest.NewRequest(http.MethodPost, "/v1/cite/batch", strings.NewReader(batch)))
	if w.Code != http.StatusOK {
		t.Fatalf("batch: status %d (%s)", w.Code, w.Body.String())
	}
	var bresp batchResponse
	if err := json.Unmarshal(w.Body.Bytes(), &bresp); err != nil {
		t.Fatal(err)
	}
	if bresp.Results[0].Status != http.StatusServiceUnavailable || bresp.Results[0].Error == nil || bresp.Results[0].Error.Code != "unavailable" {
		t.Fatalf("batch slot 0: %+v, want 503 unavailable", bresp.Results[0])
	}
}

// TestResilientServerRecovers: transient faults within the attempt budget
// are retried to success — the response is 200 and byte-identical to an
// unfaulted server's, and readiness stays ok.
func TestResilientServerRecovers(t *testing.T) {
	body := `{"sql": "SELECT f.FName FROM Family f, FamilyIntro i WHERE f.FID = i.FID AND f.Type = 'gpcr'"}`
	want := httptest.NewRecorder()
	testServer(t).handleCite(want, httptest.NewRequest(http.MethodPost, "/v1/cite", strings.NewReader(body)))

	in := fault.NewInjector()
	in.SetFault(0, fault.ShardFault{FailOps: 1}) // first scan fails, retry lands
	s := resilientTestServer(t, 3, in)
	w := httptest.NewRecorder()
	s.handleCite(w, httptest.NewRequest(http.MethodPost, "/v1/cite", strings.NewReader(body)))
	if w.Code != http.StatusOK {
		t.Fatalf("status %d (%s)", w.Code, w.Body.String())
	}
	if w.Body.String() != want.Body.String() {
		t.Fatalf("retried response diverged:\n got %s\nwant %s", w.Body.String(), want.Body.String())
	}
	h := httptest.NewRecorder()
	s.handleHealth(h, httptest.NewRequest(http.MethodGet, "/v1/health", nil))
	if h.Code != http.StatusOK {
		t.Fatalf("health after recovery: status %d (%s)", h.Code, h.Body.String())
	}
}

// TestHandleHealthUnsharded: without resilience the readiness probe is a
// plain ok with no breaker section.
func TestHandleHealthUnsharded(t *testing.T) {
	w := httptest.NewRecorder()
	testServer(t).handleHealth(w, httptest.NewRequest(http.MethodGet, "/v1/health", nil))
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), `"status":"ok"`) {
		t.Fatalf("status %d body %s, want 200 ok", w.Code, w.Body.String())
	}
}

// TestServeGracefulShutdownUnderLoad: canceling serve's context (the SIGTERM
// path) closes the listener promptly — new connections are refused — while
// an in-flight NDJSON stream keeps running to completion, trailer included,
// before serve returns.
func TestServeGracefulShutdownUnderLoad(t *testing.T) {
	const rows = 6
	var renders atomic.Int64
	gate := make(chan struct{})
	s := hookedServer(t, rows, func() {
		if renders.Add(1) > 1 {
			<-gate
		}
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- s.serve(ctx, l) }()

	resp, err := http.Post("http://"+l.Addr().String()+"/v1/cite/stream", "application/json",
		strings.NewReader(`{"datalog": "Q(A, B) :- R(A, B)"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	first, err := br.ReadString('\n') // stream is mid-flight, blocked on the gate
	if err != nil {
		close(gate)
		t.Fatal(err)
	}

	cancel() // the SIGTERM path: stop accepting, drain in-flight

	// The listener closes promptly even though a stream is still draining.
	deadline := time.Now().Add(5 * time.Second)
	for {
		c, derr := net.Dial("tcp", l.Addr().String())
		if derr != nil {
			break
		}
		c.Close()
		if time.Now().After(deadline) {
			close(gate)
			t.Fatal("listener still accepting after shutdown began")
		}
		time.Sleep(5 * time.Millisecond)
	}
	select {
	case err := <-done:
		close(gate)
		t.Fatalf("serve returned (%v) with a stream still in flight", err)
	default:
	}

	close(gate) // release the renders; the drain completes the stream
	rest, err := io.ReadAll(br)
	if err != nil {
		t.Fatal(err)
	}
	tuples, trailer := decodeStream(t, first+string(rest))
	if len(tuples) != rows || trailer.Tuples != rows || trailer.Error != nil {
		t.Fatalf("drained stream: %d tuples, trailer %+v; want %d complete", len(tuples), trailer, rows)
	}
	resp.Body.Close()
	if err := <-done; err != nil {
		t.Fatalf("serve: %v", err)
	}
}

// TestHandleStats checks per-shard and total cache counters plus the engine
// shard count are exposed.
func TestHandleStats(t *testing.T) {
	s := testShardedServer(t, 4)
	body := `{"datalog": "Q(N) :- Family(F, N, Ty), Ty = \"gpcr\""}`
	for i := 0; i < 2; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/cite", strings.NewReader(body))
		s.handleCite(httptest.NewRecorder(), req)
	}
	w := httptest.NewRecorder()
	s.handleStats(w, httptest.NewRequest(http.MethodGet, "/stats", nil))
	var resp struct {
		Hits        uint64 `json:"hits"`
		Misses      uint64 `json:"misses"`
		CacheShards []struct {
			Hits   uint64 `json:"hits"`
			Misses uint64 `json:"misses"`
		} `json:"cache_shards"`
		EngineShards int `json:"engine_shards"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("unmarshal %s: %v", w.Body.String(), err)
	}
	if resp.EngineShards != 4 {
		t.Fatalf("engine_shards = %d, want 4", resp.EngineShards)
	}
	if resp.Hits != 1 || resp.Misses != 1 {
		t.Fatalf("totals = %d hits / %d misses, want 1/1", resp.Hits, resp.Misses)
	}
	if len(resp.CacheShards) == 0 {
		t.Fatal("cache_shards missing")
	}
	var h, m uint64
	for _, sh := range resp.CacheShards {
		h += sh.Hits
		m += sh.Misses
	}
	if h != resp.Hits || m != resp.Misses {
		t.Fatalf("per-shard sums (%d,%d) != totals (%d,%d)", h, m, resp.Hits, resp.Misses)
	}
}

// TestStreamLineMatchesEncodingJSON pins the hand-appended NDJSON tuple line
// to the bytes json.Encoder makes of the same streamTuple — for real streamed
// tuples (whose citation arrives in wire spelling, never re-compacted) and
// for values and polynomials holding everything encoding/json escapes.
func TestStreamLineMatchesEncodingJSON(t *testing.T) {
	want := func(tu citare.Tuple) string {
		var sb strings.Builder
		line := streamTuple{Index: tu.Index, Values: tu.Values, Polynomial: tu.Polynomial, Citation: json.RawMessage(tu.CitationJSON)}
		if err := json.NewEncoder(&sb).Encode(line); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	db := gtopdb.PaperInstance()
	db.MustInsert("Family", "30", `<b>"R&D"</b> caf\u00e9`+"\u2028\t", "gpcr")
	db.MustInsert("FC", "30", "p1")
	citer, err := citare.NewFromProgram(db, gtopdb.ViewsProgram)
	if err != nil {
		t.Fatal(err)
	}
	streamed := 0
	var buf []byte
	for _, q := range []string{
		`Q(N, Pn) :- Family(F, N, Ty), Ty = "gpcr", FC(F, P), Person(P, Pn, A)`,
		`Q(N) :- Family(F, N, Ty)`,
	} {
		err := citer.CiteEach(context.Background(), citare.Request{Datalog: q}, func(tu citare.Tuple) error {
			streamed++
			buf = appendStreamLine(buf[:0], tu)
			if got := string(buf); got != want(tu) {
				t.Errorf("streamed tuple %d:\n got %s\nwant %s", tu.Index, got, want(tu))
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if streamed < 10 {
		t.Fatalf("only %d tuples streamed", streamed)
	}
	for _, s := range []string{"", "plain", `q"uo\te`, "<a>&</a>", "\x00\x1f\x7f\n\r\t\b\f", "\xff bad", "é·\u2028\u2029\U0001F600"} {
		for _, tu := range []citare.Tuple{
			{Index: 7, Values: []string{s, "x"}, Polynomial: s, CitationJSON: `{"k":"v"}`},
			{Values: []string{}, CitationJSON: `{}`},
			{Index: -1, CitationJSON: `[]`},
		} {
			if got := string(appendStreamLine(nil, tu)); got != want(tu) {
				t.Errorf("hand-built tuple:\n got %s\nwant %s", got, want(tu))
			}
		}
	}

	// Through the handler, evaluated and replayed: the same lines whether each
	// leaves in its own flushed write (a miss) or gathered into streamChunk-sized
	// writes (a stream of a cached citation), over a body of several chunks.
	big := gtopdb.Generate(gtopdb.Config{Seed: 5, Families: 300, Types: 3, Persons: 80, CommitteeMin: 2, CommitteeMax: 4, IntroFraction: 0.5})
	big.MustInsert("Family", "30", `<b>"R&D"</b> caf\u00e9`+"\u2028\t", "type-01")
	big.MustInsert("FC", "30", "p0001")
	citer, err = citare.NewFromProgram(big, gtopdb.ViewsProgram, citare.WithNeutralCitation(gtopdb.DatabaseCitation()))
	if err != nil {
		t.Fatal(err)
	}
	const q = `Q(N, Pn) :- Family(F, N, Ty), Ty = "type-01", FC(F, P), Person(P, Pn, A)`
	var lines strings.Builder
	tuples := 0
	if err := citer.CiteEach(context.Background(), citare.Request{Datalog: q}, func(tu citare.Tuple) error {
		tuples++
		lines.WriteString(want(tu))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if lines.Len() < 3*streamChunk {
		t.Fatalf("a body of %d bytes, want several chunks", lines.Len())
	}
	s := &server{citer: citare.NewCached(citer)}
	reqBody, _ := json.Marshal(citeRequest{Datalog: q})
	stream := func(wantCached bool) *countingRecorder {
		t.Helper()
		w := &countingRecorder{ResponseRecorder: httptest.NewRecorder()}
		s.handleCiteStream(w, httptest.NewRequest(http.MethodPost, "/v1/cite/stream", bytes.NewReader(reqBody)))
		body := w.Body.String()
		cut := strings.LastIndex(strings.TrimRight(body, "\n"), "\n") + 1
		if body[:cut] != lines.String() {
			t.Fatalf("cached=%v: the tuple lines differ from json.Encoder's", wantCached)
		}
		trailer := roundTrips[streamTrailerLine](t, body[cut:]).Trailer
		if trailer.Cached != wantCached || trailer.Tuples != tuples || trailer.Error != nil {
			t.Fatalf("trailer %+v, want cached=%v and %d tuples", trailer, wantCached, tuples)
		}
		return w
	}
	if w := stream(false); w.flushes != tuples+1 || w.writes != tuples+1 {
		t.Fatalf("evaluated stream: %d writes, %d flushes for %d lines and a trailer", w.writes, w.flushes, tuples)
	}
	s.handleCite(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v1/cite", bytes.NewReader(reqBody)))
	w := stream(true)
	if chunks := lines.Len()/streamChunk + 1; w.flushes != 1 || w.writes < 3 || w.writes > chunks || w.longest >= 2*streamChunk {
		t.Fatalf("replayed stream of %d bytes: %d writes (longest %d), %d flushes; want at most %d chunked writes and the one final flush", lines.Len(), w.writes, w.longest, w.flushes, chunks)
	}
}

// countingRecorder records how a handler wrote its answer.
type countingRecorder struct {
	*httptest.ResponseRecorder
	writes, flushes, longest int
}

func (c *countingRecorder) Write(p []byte) (int, error) {
	c.writes++
	c.longest = max(c.longest, len(p))
	return c.ResponseRecorder.Write(p)
}

func (c *countingRecorder) Flush() {
	c.flushes++
	c.ResponseRecorder.Flush()
}
