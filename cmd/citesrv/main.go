// Command citesrv serves citations over HTTP — the integration surface a
// database owner would put in front of GtoPdb-style resources.
//
//	citesrv -addr :8437 -timeout 30s
//
//	POST /v1/cite          → one citation (v1 wire schema below)
//	POST /v1/cite/stream   → per-tuple citations as NDJSON, streamed
//	POST /v1/cite/batch    → a batch of citations, plan-shared
//	POST /cite             → deprecated shim for /v1/cite (same schema)
//	GET  /views            → the citation views
//	GET  /stats            → cache, plan-cache + shard stats, uptime
//	GET  /metrics          → Prometheus text exposition (0.0.4)
//	GET  /v1/slow          → slow-query ring buffer, newest first
//	GET  /v1/health        → readiness: shard breaker states, 503 when open
//	GET  /debug/pprof/*    → runtime profiling
//	GET  /healthz          → ok (liveness)
//
// # v1 wire schema
//
// A citation request is a JSON object with exactly one query field and
// optional per-request knobs (zero values mean "server default"; unknown
// fields are ignored):
//
//	{
//	  "sql":            "SELECT f.FName FROM Family f ...",  // xor "datalog"
//	  "datalog":        "Q(N) :- Family(F, N, Ty), ...",
//	  "format":         "json",   // json | json-compact | xml | bibtex | text
//	  "max_rewritings": 0,        // bound rewriting enumeration
//	  "max_tuples":     0,        // bound the answer size; beyond it → 422
//	  "explain":        false,    // attach a per-stage pipeline trace
//	  "min_shard_coverage": 0,    // accept partial citations from >= k shards
//	  "shard_attempts":     0     // per-shard attempt budget override
//	}
//
// A successful response:
//
//	{
//	  "columns":     ["N"],
//	  "rows":        [["adenosine receptors"], ...],
//	  "rewritings":  ["Q(N) :- V1(F; F, N), ...", ...],
//	  "polynomials": ["CV1(\"11\")·CV2(\"11\") + ...", ...],
//	  "citation":    "{...}",   // rendered in the requested format
//	  "format":      "json",
//	  "explain":     {"stages": [...]}  // only when the request set explain
//	}
//
// With "explain": true the response carries the request's per-stage
// pipeline trace (parse → rewrite → compile → eval → gather → render,
// with durations, tuple/frame counts, cache outcomes, the strategy
// chosen and per-shard timings). The trace never changes the citation —
// explained and plain responses carry byte-identical citations — but an
// explained request bypasses the citation cache to produce a real trace.
//
// # Streaming: /v1/cite/stream
//
// The streaming endpoint accepts the same request object as /v1/cite and
// answers with newline-delimited JSON (Content-Type application/x-ndjson,
// chunked): one tuple-citation object per line, in the deterministic result
// order, flushed as soon as that tuple's citation is rendered — the first
// line reaches the client before later tuples' citations exist. A request
// whose citation the citation cache holds (it was asked through /v1/cite or
// a batch, under the same options) is a replay instead: the same lines, byte
// for byte, read off the cached citation with nothing left to render, so
// they leave in 32 KB writes without a flush per line, and the trailer
// carries "cached": true with the lookup ("parse") as its only stage. The
// final line is always a trailer object carrying the total and, when the
// stream died mid-flight, the typed error:
//
//	{"index": 0, "values": ["adenosine receptors"],
//	 "polynomial": "CV1(\"11\")·CV2(\"11\")", "citation": {...}}
//	{"index": 1, ...}
//	{"trailer": {"tuples": 2, "stage_ns": {"rewrite": 52000, "eval": 410000, ...}}}
//
//	{"index": 0, ...}
//	{"trailer": {"tuples": 1, "error": {"code": "canceled", "message": "..."}}}
//
// The trailer's stage_ns object totals the pipeline's per-stage wall-clock
// time in nanoseconds (same stage names as the materialized endpoint's
// explain report), so streaming clients get the same visibility.
//
// A request that fails before the first tuple is written — parse error,
// unsatisfiable bound, pre-stream cancellation — gets the plain typed error
// envelope with its usual HTTP status instead of a 200 NDJSON stream.
// Citations stream per tuple and the aggregated result-set citation is never
// materialized, so no rendered record outlives its line; an evaluated stream
// still holds the answer's tuples and polynomials until its last line, so
// its server memory is O(answer) until [evaluate-once].
//
// # Batches: /v1/cite/batch
//
// A batch request wraps many requests; the response carries one slot per
// request in order, each with its own status and either a result or a typed
// error — a failing request costs only its own slot, the others still
// evaluate:
//
//	POST /v1/cite/batch   {"requests": [{...}, {...}]}
//	                    → {"results":  [{"status": 200, "result": {...}},
//	                                    {"status": 400, "error": {"code": "parse", ...}}]}
//
// The response status is 200 whenever any slot differs from the rest; when
// every request fails with one uniform status (all unparsable, the shared
// deadline expired, ...) that 4xx/5xx is also the response status, so
// naive clients and proxies still see the failure. Requests in one batch
// that canonicalize to the same query share one logical-plan compilation
// and one evaluation — k copies of one query cost one citation.
//
// # Errors
//
// Failures use a typed error envelope mapped from the citare error
// taxonomy:
//
//	{"error": {"code": "parse", "message": "...", "index": 0}}
//
//	code         HTTP status
//	parse        400  (bad query text, unknown format, bad request shape)
//	schema       400  (query vs schema mismatch)
//	timeout      408  (server -timeout or client deadline exceeded)
//	canceled     499  (client went away mid-evaluation)
//	limit        422  (max_tuples exceeded)
//	limit        413  (request body over 1 MiB, or 8 MiB for a batch)
//	unavailable  503  (a shard stayed unreachable past its attempt budget)
//	partial      206  (degraded citation accepted under min_shard_coverage)
//	internal     500
//
// Every request runs under a context: the -timeout flag wraps each request
// in a deadline, and a client disconnect cancels evaluation at the next
// partition or frame boundary — a dead client stops burning cores.
//
// # Resilience
//
// With -shards N > 1 and -resilience (the default), scatter-gather
// evaluation runs through the fault-tolerant driver: per-shard attempt
// deadlines (-shard-attempt-timeout), bounded retries with jittered
// exponential backoff (-shard-attempts), optional hedged duplicate scans
// (-shard-hedge-after), and a per-shard circuit breaker
// (-breaker-threshold, -breaker-cooldown) shared across requests. A shard
// that stays unreachable past its budget fails the request with 503
// "unavailable" — unless the request set "min_shard_coverage": k, in which
// case a citation covering at least k shards is returned as 206 with a
// "coverage" object naming the shards that answered, were pruned, or were
// skipped (and, on /v1/cite/stream, the same object on the trailer line).
// With -resilience=false each shard is read once, with no deadline, and a
// failed read answers 503 "unavailable".
// Breaker states are surfaced on /stats, on the /v1/health readiness
// probe (503 once any breaker opens), and as citare_shard_* /metrics
// series. On SIGTERM/SIGINT the server stops accepting connections and
// drains in-flight requests — streams flush their trailers — bounded by
// the -timeout grace period.
//
// All requests are served concurrently from one shared, cached citation
// engine: the engine cites against an immutable database snapshot, and
// equivalent concurrent queries collapse into a single computation. A
// repeated request is two lookups and one write: its text resolves to the
// parsed, prepared, keyed request made the first time, its canonical key to
// the cached citation, and the citation keeps its response bytes from its
// first cache hit on — the answer is assembled from them around the
// request's own columns and format and written at once under its
// Content-Length. With
// -shards N > 1 the database is hash-partitioned and every request routes
// through the sharded engine (scatter-gather evaluation with shard
// pruning); citations are byte-identical to the unsharded engine's.
//
// # Observability
//
// Every request gets a process-unique ID, echoed in the X-Request-ID
// response header, in the request_id field of error envelopes, and in the
// structured access log (one line per request: ID, method, route, status,
// duration, tuples emitted; -quiet suppresses it).
//
// GET /metrics serves the Prometheus text format: cite latency and
// per-stage histograms (citare_cite_duration_seconds,
// citare_stage_duration_seconds{stage=...}), cite/tuple/error counters,
// result- and token-cache counters, streams replayed from the citation cache
// and streams evaluated (citare_stream_cache_{hits,misses}_total; both also
// count as lookups of the citation cache), the resolve memo's and the
// response-bytes memo's counters (citare_resolve_memo_{hits,misses,evictions}_total,
// citare_wire_memo_builds_total, citare_wire_memo_built_bytes_total — bytes
// built so far, an upper bound on what the live cache entries retain, since
// the cache does not report evictions per entry), plan-cache counters by tier
// (citare_plan_cache_{hits,misses}_total{tier="logical"|"physical"}),
// per-shard scan/lookup counts on sharded deployments, HTTP request
// counters and latencies by route, and uptime.
//
// GET /v1/slow serves a fixed-capacity ring of the most recent requests
// slower than -slow-threshold, newest first, each carrying its full
// per-stage pipeline trace — the workflow is: watch /metrics for a latency
// regression, pull /v1/slow to see which stage (and which shard) the slow
// requests spent their time in. -slow-capacity bounds the ring;
// -slow-threshold 0 disables capture.
//
// GET /debug/pprof/ exposes the standard runtime profiles.
//
// # Persistence
//
// With -data-dir the server keeps the database in a log-structured store
// on disk (internal/lsm). The first boot streams the rows of -data's CSV
// files straight into the store (or copies the paper instance) and commits
// them as version 1; a boot that failed mid-seed committed nothing, so the
// next boot deletes the rows it left and seeds again. Every later boot
// recovers the exact state from the WAL and SSTables — no CSV reload —
// including all committed versions for time travel. On shutdown the memtable is flushed and the WAL synced, so
// a restart reopens without replay work. Store internals (memtable and WAL
// bytes, per-level SSTable counts, flush and compaction totals) appear in
// the "lsm" section of /stats and as citare_lsm_* series on /metrics. With
// -shards N > 1 the persistent head snapshot is hash-partitioned into
// memory for scatter-gather serving; the store on disk stays the durable
// source of truth.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"citare"
	"citare/internal/backend"
	"citare/internal/eval"
	"citare/internal/format"
	"citare/internal/gtopdb"
	"citare/internal/lsm"
	"citare/internal/obs"
	"citare/internal/shard"
	"citare/internal/storage"
)

// statusClientClosedRequest is nginx's non-standard 499 "client closed
// request" — the conventional status for work abandoned by the client.
const statusClientClosedRequest = 499

type server struct {
	citer        *citare.CachedCiter
	viewsProgram string
	shards       int           // engine shard count (1 = unsharded)
	timeout      time.Duration // per-request deadline (0 = none)

	// Observability (all optional: a zero server serves without them).
	start    time.Time                // for /stats uptime and the uptime gauge
	quiet    bool                     // -quiet: suppress the access log
	reg      *obs.Registry            // /metrics registry; nil = not initialized
	routes   map[string]*routeMetrics // HTTP metric handles by route label, set with reg
	slow     *slowLog                 // /v1/slow ring; nil = capture disabled
	idPrefix string                   // per-process request-ID prefix
	reqSeq   atomic.Uint64            // request-ID sequence

	// Streams the citation cache answered (replays), and those it did not:
	// evaluated, or failed. Always counted; on /stats and /metrics.
	streamHits, streamMisses atomic.Uint64

	// lsm is the persistent store behind -data-dir; nil on an in-memory
	// server. Surfaced on /stats ("lsm" section) and /metrics.
	lsm *lsm.Store
}

// citeRequest is the v1 wire form of one citation request (the legacy
// /cite endpoint accepts the same shape and ignores the option fields it
// predates — they default to zero).
type citeRequest struct {
	SQL           string `json:"sql,omitempty"`
	Datalog       string `json:"datalog,omitempty"`
	Format        string `json:"format,omitempty"`
	MaxRewritings int    `json:"max_rewritings,omitempty"`
	MaxTuples     int    `json:"max_tuples,omitempty"`
	Explain       bool   `json:"explain,omitempty"`
	// MinShardCoverage and ShardAttempts set the request's degradation
	// policy on a resilient sharded server: accept a partial citation from
	// at least k shards (206 + coverage), and override the per-shard attempt
	// budget. Zero keeps the server defaults (full coverage required).
	MinShardCoverage int `json:"min_shard_coverage,omitempty"`
	ShardAttempts    int `json:"shard_attempts,omitempty"`
}

// request translates the wire form to the library's Request.
func (r citeRequest) request() citare.Request {
	return citare.Request{
		SQL:              r.SQL,
		Datalog:          r.Datalog,
		Format:           r.Format,
		MaxRewritings:    r.MaxRewritings,
		MaxTuples:        r.MaxTuples,
		Explain:          r.Explain,
		MinShardCoverage: r.MinShardCoverage,
		ShardAttempts:    r.ShardAttempts,
	}
}

// queryText returns the request's query source, whichever field holds it.
func (r citeRequest) queryText() string {
	if r.SQL != "" {
		return r.SQL
	}
	return r.Datalog
}

// citeResponse is the /v1/cite response object (and a batch slot's result).
// The handlers write it with citare.Citation.AppendWire, which spells it
// exactly as encoding/json spells this struct — TestResponsesMatchEncodingJSON
// holds them to it; clients (and the tests) decode it through the struct.
type citeResponse struct {
	Columns     []string        `json:"columns"`
	Rows        [][]string      `json:"rows"`
	Rewritings  []string        `json:"rewritings"`
	Polynomials []string        `json:"polynomials"`
	Citation    string          `json:"citation"`
	Format      string          `json:"format"`
	Explain     *citare.Explain `json:"explain,omitempty"`
	// Coverage reports which shards contributed; present only on degraded
	// (206) responses from a resilient sharded server.
	Coverage *citare.Coverage `json:"coverage,omitempty"`
}

type batchRequest struct {
	Requests []citeRequest `json:"requests"`
}

// batchItemResult is one request's slot in the batch envelope: its own
// HTTP-equivalent status plus either a result or a typed error.
type batchItemResult struct {
	Status int           `json:"status"`
	Result *citeResponse `json:"result,omitempty"`
	Error  *errorBody    `json:"error,omitempty"`
}

type batchResponse struct {
	Results []batchItemResult `json:"results"`
}

// streamTuple is one NDJSON line of /v1/cite/stream: one answer tuple with
// its citation polynomial and rendered citation record. The handler writes
// the line with appendStreamLine, which spells it exactly as encoding/json
// spells this struct; clients (and the tests) decode it through the struct.
type streamTuple struct {
	Index      int             `json:"index"`
	Values     []string        `json:"values"`
	Polynomial string          `json:"polynomial"`
	Citation   json.RawMessage `json:"citation"`
}

// streamTrailerLine is the final NDJSON line of /v1/cite/stream.
type streamTrailerLine struct {
	Trailer streamTrailer `json:"trailer"`
}

type streamTrailer struct {
	// Tuples counts the tuple lines written before the trailer.
	Tuples int `json:"tuples"`
	// Cached marks a replay: the lines were read off the citation the cache
	// holds for the request, and stage_ns has the lookup (parse) alone.
	Cached bool `json:"cached,omitempty"`
	// StageNs totals the pipeline's per-stage wall-clock time in
	// nanoseconds (stage names match the Explain report), giving streaming
	// clients the same visibility as the materialized path.
	StageNs map[string]int64 `json:"stage_ns,omitempty"`
	// Error reports a stream that died after tuples were already written;
	// absent on a complete stream.
	Error *errorBody `json:"error,omitempty"`
	// Coverage reports which shards contributed when the stream completed
	// degraded (every delivered tuple is valid, skipped shards may have
	// withheld others); absent on a full-coverage stream.
	Coverage *citare.Coverage `json:"coverage,omitempty"`
}

// errorEnvelope is the v1 error wire form.
type errorEnvelope struct {
	Error errorBody `json:"error"`
}

type errorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	// Index names the first failing request of a batch; nil for /v1/cite.
	Index *int `json:"index,omitempty"`
	// RequestID echoes the request's X-Request-ID, correlating the error
	// with the access log; empty outside the request middleware.
	RequestID string `json:"request_id,omitempty"`
}

// classifyStatus maps a tagged citare error to its HTTP status and wire
// code: 400 parse/schema, 408 deadline, 499 client-gone, 422 limit (413 when
// the limit is the request body's), 503 shards unavailable, 206 partial
// citation, 500 anything untagged.
func classifyStatus(err error) (int, string) {
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		return http.StatusRequestEntityTooLarge, "limit"
	case errors.Is(err, citare.ErrParse):
		return http.StatusBadRequest, "parse"
	case errors.Is(err, citare.ErrSchema):
		return http.StatusBadRequest, "schema"
	case errors.Is(err, citare.ErrLimit):
		return http.StatusUnprocessableEntity, "limit"
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusRequestTimeout, "timeout"
	case errors.Is(err, citare.ErrCanceled):
		return statusClientClosedRequest, "canceled"
	case errors.Is(err, citare.ErrShardUnavailable):
		return http.StatusServiceUnavailable, "unavailable"
	case errors.Is(err, citare.ErrPartial):
		return http.StatusPartialContent, "partial"
	}
	return http.StatusInternalServerError, "internal"
}

// writeError emits the typed error envelope, echoing the request ID when
// the middleware assigned one. index, when >= 0, names the failing request
// of a batch.
func writeError(w http.ResponseWriter, r *http.Request, err error, index int) {
	status, code := classifyStatus(err)
	body := errorBody{Code: code, Message: err.Error(), RequestID: requestID(r.Context())}
	if index >= 0 {
		body.Index = &index
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if encErr := json.NewEncoder(w).Encode(errorEnvelope{Error: body}); encErr != nil {
		log.Printf("citesrv: encode error envelope: %v", encErr)
	}
}

// requestCtx derives the evaluation context for one HTTP request: the
// request's own context (canceled when the client goes away) bounded by
// the server's -timeout deadline.
func (s *server) requestCtx(r *http.Request) (context.Context, context.CancelFunc) {
	if s.timeout > 0 {
		return context.WithTimeout(r.Context(), s.timeout)
	}
	return context.WithCancel(r.Context())
}

// Request bodies are bounded: one client must not make the server buffer an
// arbitrarily large query text or batch.
const (
	maxRequestBody = 1 << 20 // /v1/cite, /v1/cite/stream
	maxBatchBody   = 8 << 20 // /v1/cite/batch
)

// decodeBody decodes the request's JSON body, of at most limit bytes, into v.
// On failure it has answered — 413 "limit" for an oversized body, 400 "parse"
// for anything else — and returns false.
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit)).Decode(v)
	if err == nil {
		return true
	}
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		err = fmt.Errorf("%w: request body exceeds %d bytes: %w", citare.ErrLimit, limit, err)
	} else {
		err = fmt.Errorf("%w: %v", citare.ErrParse, err)
	}
	writeError(w, r, err, -1)
	return false
}

// bodyPool recycles response-body buffers: a /v1/cite answer is tens of KB,
// assembled from a cached citation's stored bytes and written at once.
var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledBody keeps the rare huge answer's buffer out of the pool.
const maxPooledBody = 1 << 20

// putBody hands a buffer taken from bodyPool back, as body has grown it.
func putBody(buf *[]byte, body []byte) {
	if cap(body) <= maxPooledBody {
		*buf = body
		bodyPool.Put(buf)
	}
}

// writeBody sends a finished JSON body in one Write, with its length.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	if _, err := w.Write(body); err != nil {
		log.Printf("citesrv: write response: %v", err)
	}
}

// handleCite serves POST /v1/cite (and, via the shim, the legacy /cite).
func (s *server) handleCite(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	var req citeRequest
	if !decodeBody(w, r, maxRequestBody, &req) {
		return
	}
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	ri := infoFrom(ctx)
	ri.setQuery(req.queryText())
	// Trace the pipeline when the client asked for an explain report or the
	// slow-query log might want the trace; Cite reuses a trace already on
	// the context.
	if req.Explain || s.slow != nil {
		tr := obs.NewTrace()
		ctx = obs.NewContext(ctx, tr, obs.NoSpan)
		ri.setTrace(tr)
	}
	res, err := s.citer.Cite(ctx, req.request())
	// A degraded citation travels as (non-nil Citation, *PartialError): the
	// response body is the usable citation plus its coverage report, under
	// 206 rather than 200. Every other error is terminal.
	status := http.StatusOK
	if err != nil {
		if !errors.Is(err, citare.ErrPartial) || res == nil {
			writeError(w, r, err, -1)
			return
		}
		status = http.StatusPartialContent
	}
	ri.setTuples(res.NumTuples())
	buf := bodyPool.Get().(*[]byte)
	body, err := res.AppendWire((*buf)[:0])
	if err != nil {
		writeError(w, r, err, -1)
	} else {
		body = append(body, '\n')
		writeBody(w, status, body)
	}
	putBody(buf, body)
}

// streamChunk is how many bytes of a replayed stream's lines gather before
// they are written. Chosen on browse-shard4 (streams of ≈ 73 lines, ≈ 290 KB):
// a Write + Flush per line held a replay to 4.4–4.6k ops/s at 0.17–0.18 CPU
// ms/op, 32 KB chunks gave 5.7–6.0k at 0.12 with peak RSS flat; one body-sized
// buffer cost 4–24 MB of RSS (bodies reach 1 MB), keeping bodies 60 MB.
const streamChunk = 32 << 10

// handleCiteStream serves POST /v1/cite/stream: per-tuple citations as
// NDJSON, a trailer line last. A request whose citation the cache holds is a
// replay: nothing is left to render, so its lines leave in streamChunk-sized
// writes from a pooled buffer and the trailer says "cached". Any other request
// is evaluated, each line written and flushed as soon as its citation renders.
// Failures before the first tuple fall back to the plain typed-error response
// with its HTTP status.
func (s *server) handleCiteStream(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	var req citeRequest
	if !decodeBody(w, r, maxRequestBody, &req) {
		return
	}
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	ri := infoFrom(ctx)
	ri.setQuery(req.queryText())
	// Streams always carry a trace: the trailer reports per-stage timing
	// totals so streaming clients get the same visibility as Explain.
	tr := obs.NewTrace()
	ctx = obs.NewContext(ctx, tr, obs.NoSpan)
	ri.setTrace(tr)
	// Header().Set sends nothing by itself: if the stream fails before the
	// first tuple line, writeError below still replaces the Content-Type and
	// picks the real status.
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	pooled := bodyPool.Get().(*[]byte)
	buf := (*pooled)[:0] // the lines not yet written: a chunk and a line at most
	defer func() { putBody(pooled, buf) }()
	// A line leaves as soon as the buffer holds chunk bytes: at once, unless
	// the stream is a replay.
	sent, chunk := 0, 0
	emit := func(t citare.Tuple) error {
		buf = appendStreamLine(buf, t)
		sent++
		if len(buf) < chunk {
			return nil
		}
		_, err := w.Write(buf)
		buf = buf[:0]
		if chunk == 0 && flusher != nil {
			flusher.Flush() // later tuples are still being rendered
		}
		return err
	}
	// A replay has nothing left to render: its lines leave in chunks.
	cached, err := s.citer.Stream(ctx, req.request(), emit, func() { chunk = streamChunk })
	if cached {
		s.streamHits.Add(1)
	} else {
		s.streamMisses.Add(1)
	}
	ri.setTuples(sent)
	// A degraded stream still delivered every tuple it could; the partial
	// report rides the trailer's coverage field, not the error path.
	var partial *citare.PartialError
	if errors.As(err, &partial) {
		err = nil
	}
	if err != nil && sent == 0 {
		writeError(w, r, err, -1)
		return
	}
	trailer := streamTrailer{Tuples: sent, Cached: cached, StageNs: tr.Report().StageTotalsNs()}
	if partial != nil {
		trailer.Coverage = partial.Coverage
	}
	if err != nil {
		// The stream is already committed as 200 NDJSON; the trailer carries
		// the typed error instead of a status line.
		_, code := classifyStatus(err)
		trailer.Error = &errorBody{Code: code, Message: err.Error()}
	}
	line, err := json.Marshal(streamTrailerLine{Trailer: trailer})
	if err == nil {
		_, err = w.Write(append(append(buf, line...), '\n')) // with a replay's last lines
	}
	if err != nil {
		log.Printf("citesrv: write trailer: %v", err)
		return
	}
	if flusher != nil {
		flusher.Flush()
	}
}

// appendStreamLine appends one tuple line of /v1/cite/stream, newline
// included: the bytes json.Encoder makes of the tuple's streamTuple, without
// the reflection walk and without re-scanning the citation to compact it —
// the tuple brings its citation already in wire spelling, encoded once for
// all the tuples of the stream that share it.
func appendStreamLine(dst []byte, t citare.Tuple) []byte {
	dst = append(dst, `{"index":`...)
	dst = strconv.AppendInt(dst, int64(t.Index), 10)
	dst = format.AppendJSONStrings(append(dst, `,"values":`...), t.Values)
	dst = append(dst, `,"polynomial":`...)
	dst = format.AppendJSONString(dst, t.Polynomial)
	dst = append(dst, `,"citation":`...)
	dst = t.AppendCitationWire(dst)
	return append(dst, '}', '\n')
}

// handleCiteBatch serves POST /v1/cite/batch: the whole batch shares one
// deadline and evaluates plan-shared through CiteBatchItems, so a failing
// request fills only its own slot. The response status stays 200 unless
// every slot failed with one uniform status.
func (s *server) handleCiteBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	var breq batchRequest
	if !decodeBody(w, r, maxBatchBody, &breq) {
		return
	}
	if len(breq.Requests) == 0 {
		writeError(w, r, fmt.Errorf("%w: empty batch", citare.ErrParse), -1)
		return
	}
	reqs := make([]citare.Request, len(breq.Requests))
	for i, cr := range breq.Requests {
		reqs[i] = cr.request()
	}
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	ri := infoFrom(ctx)
	ri.setQuery(fmt.Sprintf("batch of %d", len(reqs)))
	items := s.citer.CiteBatchItems(ctx, reqs)
	// The envelope is appended as encoding/json spells batchResponse: every
	// slot its status, then the citation's response object or the error body.
	body := append([]byte(nil), `{"results":[`...)
	uniform := 0 // shared status of every slot so far; -1 once they diverge
	for i, item := range items {
		if i > 0 {
			body = append(body, ',')
		}
		itemErr := item.Err
		// A degraded item carries both a usable Citation and a *PartialError:
		// its slot gets the result with coverage under its own 206 status.
		status := http.StatusOK
		if itemErr != nil && errors.Is(itemErr, citare.ErrPartial) && item.Citation != nil {
			itemErr, status = nil, http.StatusPartialContent
		}
		slot := len(body)
		if itemErr == nil {
			body = strconv.AppendInt(append(body, `{"status":`...), int64(status), 10)
			body, itemErr = item.Citation.AppendWire(append(body, `,"result":`...))
		}
		if itemErr == nil {
			ri.addTuples(item.Citation.NumTuples())
		} else {
			var code string
			status, code = classifyStatus(itemErr)
			errJSON, _ := json.Marshal(errorBody{Code: code, Message: itemErr.Error()}) // two strings: cannot fail
			body = strconv.AppendInt(append(body[:slot], `{"status":`...), int64(status), 10)
			body = append(append(body, `,"error":`...), errJSON...)
		}
		body = append(body, '}')
		if uniform == 0 {
			uniform = status
		} else if uniform != status {
			uniform = -1
		}
	}
	body = append(body, "]}\n"...)
	status := http.StatusOK
	if uniform > 0 && uniform != http.StatusOK {
		status = uniform // every request failed the same way
	}
	writeBody(w, status, body)
}

func (s *server) handleViews(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, s.viewsProgram)
}

// shardStats is one cache shard's (or the total's) counters on /stats.
type shardStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
}

// planCacheStats is one plan-cache tier's counters on /stats.
type planCacheStats struct {
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
}

// wireMemoStats is the cached citations' response-bytes memo on /stats:
// citations that got one, and the bytes built for them — cumulative, so an
// upper bound on what the live cache entries' memos retain.
type wireMemoStats struct {
	Builds uint64 `json:"builds"`
	Bytes  uint64 `json:"bytes_built"`
}

// tokenCacheStats is the engine's rendered-token cache on /stats: hits
// include tokens brought forward to a newer snapshot of a persistent store
// (revalidated), and those of them the delta rule gave new rows
// (delta_applied).
type tokenCacheStats struct {
	shardStats
	Revalidated  uint64 `json:"revalidated"`
	DeltaApplied uint64 `json:"delta_applied"`
}

type statsResponse struct {
	shardStats                    // aggregated totals across cache shards
	CacheShards   []shardStats    `json:"cache_shards"`
	EngineShards  int             `json:"engine_shards"`
	Waits         uint64          `json:"singleflight_waits"`
	TokenCache    tokenCacheStats `json:"token_cache"`
	ResolveMemo   shardStats      `json:"resolve_memo"` // request text → resolved request
	WireMemo      wireMemoStats   `json:"wire_memo"`
	StreamHits    uint64          `json:"stream_hits"`   // streams replayed from the citation cache
	StreamMisses  uint64          `json:"stream_misses"` // streams evaluated (or failed); both also count in hits / misses
	LogicalPlans  planCacheStats  `json:"logical_plans"`
	PhysicalPlans planCacheStats  `json:"physical_plans"`
	UptimeSeconds float64         `json:"uptime_seconds"`
	// Breakers reports each shard's circuit-breaker state on a resilient
	// sharded server; absent otherwise.
	Breakers []eval.BreakerInfo `json:"breakers,omitempty"`
	// LSM reports the persistent store internals (memtable, WAL, per-level
	// SSTable counts, flush/compaction totals) when the server runs with
	// -data-dir; absent on an in-memory server.
	LSM *lsm.StoreStats `json:"lsm,omitempty"`
}

func (s *server) handleStats(w http.ResponseWriter, _ *http.Request) {
	total := s.citer.CacheStats()
	per := s.citer.CacheShardStats()
	stats := statsResponse{
		shardStats:   shardStats{Hits: total.Hits, Misses: total.Misses, Evictions: total.Evictions},
		CacheShards:  make([]shardStats, len(per)),
		EngineShards: s.shards,
		Waits:        total.Waits,
	}
	for i, st := range per {
		stats.CacheShards[i] = shardStats{Hits: st.Hits, Misses: st.Misses, Evictions: st.Evictions}
	}
	eng := s.citer.Citer().Engine()
	tok := eng.TokenCacheStats()
	stats.TokenCache = tokenCacheStats{
		shardStats:   shardStats{Hits: tok.Hits, Misses: tok.Misses, Evictions: tok.Evictions},
		Revalidated:  tok.Revalidated,
		DeltaApplied: tok.DeltaApplied,
	}
	rs := s.citer.Citer().ResolveStats()
	stats.ResolveMemo = shardStats{Hits: rs.Hits, Misses: rs.Misses, Evictions: rs.Evictions}
	stats.WireMemo.Builds, stats.WireMemo.Bytes = s.citer.WireStats()
	stats.StreamHits, stats.StreamMisses = s.streamHits.Load(), s.streamMisses.Load()
	stats.LogicalPlans.Hits, stats.LogicalPlans.Misses = eng.LogicalPlanStats()
	stats.PhysicalPlans.Hits, stats.PhysicalPlans.Misses = eng.PhysicalPlanStats()
	if !s.start.IsZero() {
		stats.UptimeSeconds = time.Since(s.start).Seconds()
	}
	stats.Breakers = eng.BreakerStates()
	if s.lsm != nil {
		st := s.lsm.Stats()
		stats.LSM = &st
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(stats); err != nil {
		log.Printf("citesrv: encode: %v", err)
	}
}

// healthResponse is the /v1/health readiness report.
type healthResponse struct {
	// Status is "ok" when every shard is reachable (or resilience is off),
	// "degraded" when any breaker is open or half-open.
	Status string `json:"status"`
	// Breakers carries the per-shard circuit-breaker states on a resilient
	// sharded server; absent otherwise.
	Breakers []eval.BreakerInfo `json:"breakers,omitempty"`
}

// handleHealth serves GET /v1/health: a readiness probe that reflects the
// shard circuit breakers. A server with an open breaker answers 503 — it is
// still serving (partial-tolerant requests keep working) but a load
// balancer should prefer a healthier replica. /healthz stays the dumb
// liveness probe.
func (s *server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	health := healthResponse{Status: "ok", Breakers: s.citer.Citer().Engine().BreakerStates()}
	status := http.StatusOK
	for _, b := range health.Breakers {
		if b.State != string(eval.BreakerClosed) {
			health.Status = "degraded"
			status = http.StatusServiceUnavailable
			break
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(health); err != nil {
		log.Printf("citesrv: encode: %v", err)
	}
}

// mux assembles the server's routes — the v1 API plus the legacy /cite
// shim, which shares the v1 handler (and therefore the v1 statuses) — and
// wraps them in the request middleware (IDs, access log, HTTP metrics,
// slow-query capture).
func (s *server) mux() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/cite", s.handleCite)
	mux.HandleFunc("/v1/cite/stream", s.handleCiteStream)
	mux.HandleFunc("/v1/cite/batch", s.handleCiteBatch)
	mux.HandleFunc("/cite", s.handleCite) // deprecated: use /v1/cite
	mux.HandleFunc("/views", s.handleViews)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/v1/slow", s.handleSlow)
	mux.HandleFunc("/v1/health", s.handleHealth)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return s.withObservability(mux)
}

// serve runs the HTTP server on l until ctx is canceled, then drains
// gracefully: the listener closes (new connections are refused), in-flight
// requests — including NDJSON streams, which still flush their trailers —
// get a bounded grace period to finish, and only then does the server exit.
// The grace period is the per-request -timeout plus a small margin (a
// request admitted just before shutdown may legitimately run that long), or
// 30s when -timeout is 0.
func (s *server) serve(ctx context.Context, l net.Listener) error {
	srv := &http.Server{Handler: s.mux()}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(l) }()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	grace := 30 * time.Second
	if s.timeout > 0 {
		grace = s.timeout + 2*time.Second
	}
	log.Printf("citesrv: shutting down, draining in-flight requests (grace %v)", grace)
	dctx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	if err := srv.Shutdown(dctx); err != nil {
		// Stragglers outlived the grace period; cut them off.
		srv.Close()
		return err
	}
	return nil
}

func main() {
	var (
		addr      = flag.String("addr", ":8437", "listen address")
		dataDir   = flag.String("data", "", "directory of <Relation>.csv files (defaults to the paper instance)")
		lsmDir    = flag.String("data-dir", "", "persistent LSM store directory: recover on boot if populated, else seed from -data or the paper instance")
		viewsPath = flag.String("views", "", "citation-views program file (defaults to the paper's views)")
		shards    = flag.Int("shards", 1, "hash-partition the database across N shards (<=1 unsharded)")
		timeout   = flag.Duration("timeout", 30*time.Second, "per-request evaluation deadline (0 disables)")
		quiet     = flag.Bool("quiet", false, "suppress the per-request access log")
		slowThr   = flag.Duration("slow-threshold", 500*time.Millisecond, "capture requests at least this slow in the /v1/slow ring (0 disables)")
		slowCap   = flag.Int("slow-capacity", 128, "slow-query ring capacity")

		resilience = flag.Bool("resilience", true, "fault-tolerant scatter-gather on sharded deployments (retries, breakers, partial citations)")
		attemptTO  = flag.Duration("shard-attempt-timeout", 2*time.Second, "per-shard scan attempt deadline (resilient sharded only)")
		attempts   = flag.Int("shard-attempts", 3, "per-shard attempt budget, first try included (resilient sharded only)")
		hedgeAfter = flag.Duration("shard-hedge-after", 0, "duplicate a straggling shard scan after this long, first finisher wins (0 disables)")
		brkThresh  = flag.Int("breaker-threshold", 3, "consecutive shard failures that open its circuit breaker")
		brkCool    = flag.Duration("breaker-cooldown", 5*time.Second, "cooldown before an open breaker probes the shard again")
	)
	flag.Parse()

	viewsProgram := gtopdb.ViewsProgram
	if *viewsPath != "" {
		raw, err := os.ReadFile(*viewsPath)
		if err != nil {
			log.Fatalf("citesrv: %v", err)
		}
		viewsProgram = string(raw)
	}
	opts := []citare.Option{
		citare.WithNeutralCitation(gtopdb.DatabaseCitation()),
	}
	var (
		citer *citare.Citer
		err   error
		pers  *backend.LSM // persistent backend behind -data-dir; nil otherwise
		db    *storage.DB  // in-memory database otherwise
	)
	if *lsmDir != "" {
		if pers, err = openStore(*lsmDir, *dataDir); err != nil {
			log.Fatalf("citesrv: %v", err)
		}
	} else if *dataDir != "" {
		db = storage.NewDB(gtopdb.Schema())
		if _, err := storage.LoadDir(db, *dataDir); err != nil {
			log.Fatalf("citesrv: %v", err)
		}
	} else {
		db = gtopdb.PaperInstance()
	}
	switch {
	case pers != nil && *shards > 1:
		// Sharded serving over persistent data: hash-partition an in-memory
		// copy of the store's head snapshot for scatter-gather evaluation.
		// The store on disk stays the durable source of truth.
		v, verr := pers.Snapshot()
		if verr != nil {
			log.Fatalf("citesrv: %v", verr)
		}
		sdb, serr := shard.FromView(pers.Schema(), v, *shards)
		v.Release()
		if serr != nil {
			log.Fatalf("citesrv: %v", serr)
		}
		citer, err = citare.NewShardedFromProgram(sdb, viewsProgram, opts...)
	case pers != nil:
		citer, err = citare.NewBackendFromProgram(pers, viewsProgram, opts...)
	case *shards > 1:
		sdb, serr := shard.FromDB(db, *shards)
		if serr != nil {
			log.Fatalf("citesrv: %v", serr)
		}
		citer, err = citare.NewShardedFromProgram(sdb, viewsProgram, opts...)
	default:
		*shards = 1
		citer, err = citare.NewFromProgram(db, viewsProgram, opts...)
	}
	if err != nil {
		log.Fatalf("citesrv: %v", err)
	}
	if *shards > 1 {
		log.Printf("citesrv: database hash-partitioned across %d shards", *shards)
	}
	s := &server{
		citer:        citare.NewCached(citer),
		viewsProgram: viewsProgram,
		shards:       *shards,
		timeout:      *timeout,
		quiet:        *quiet,
		slow:         newSlowLog(*slowThr, *slowCap),
		idPrefix:     fmt.Sprintf("%x", time.Now().UnixNano()&0xffffff),
	}
	if pers != nil {
		s.lsm = pers.Store()
	}
	s.initObservability()
	// Resilience wires up after the registry exists so its retry/hedge/
	// breaker counters land on /metrics. SetResilience is a pre-serving
	// configuration call; no requests are in flight yet.
	if *shards > 1 && *resilience {
		citer.Engine().SetResilience(&citare.ResilienceConfig{
			AttemptTimeout:   *attemptTO,
			MaxAttempts:      *attempts,
			HedgeAfter:       *hedgeAfter,
			BreakerThreshold: *brkThresh,
			BreakerCooldown:  *brkCool,
			Metrics:          obs.NewResilienceMetrics(s.reg),
		})
		log.Printf("citesrv: resilient scatter-gather enabled (attempt timeout %v, %d attempts, hedge %v, breaker %d/%v)",
			*attemptTO, *attempts, *hedgeAfter, *brkThresh, *brkCool)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	l, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("citesrv: %v", err)
	}
	log.Printf("citesrv: listening on %s (request timeout %v)", l.Addr(), *timeout)
	if err := s.serve(ctx, l); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("citesrv: %v", err)
	}
	if pers != nil {
		// Flush the memtable and sync the WAL so the next boot recovers the
		// exact served state without replay work.
		if cerr := pers.Close(); cerr != nil {
			log.Fatalf("citesrv: close persistent store: %v", cerr)
		}
		log.Printf("citesrv: persistent store flushed and closed")
	}
	log.Printf("citesrv: drained, bye")
}

// openStore opens the persistent store in dir. A store with no committed
// version — a first boot, or one that failed mid-seed — is seeded from
// csvDir (or the paper instance) and committed as version 1; any other is
// recovered as it stands, with no CSV reload.
func openStore(dir, csvDir string) (*backend.LSM, error) {
	pers, err := backend.OpenLSM(dir, gtopdb.Schema(), lsm.Options{})
	if err != nil {
		return nil, fmt.Errorf("open persistent store %s: %w", dir, err)
	}
	if len(pers.Versions()) > 0 {
		if csvDir != "" {
			log.Printf("citesrv: persistent store %s already populated; ignoring -data", dir)
		}
		st := pers.Store().Stats()
		total := 0
		for _, n := range st.Live {
			total += n
		}
		log.Printf("citesrv: recovered persistent store %s (version %d, %d live tuples, %d committed versions)",
			dir, st.Version, total, len(pers.Versions()))
		return pers, nil
	}
	n, err := seedStore(pers, csvDir)
	if err != nil {
		// What the seed wrote stays in the store, uncommitted: the next
		// boot deletes it and seeds again.
		return nil, errors.Join(fmt.Errorf("seed persistent store %s: %w", dir, err), pers.Close())
	}
	log.Printf("citesrv: seeded persistent store %s (%d tuples, committed as version 1)", dir, n)
	return pers, nil
}

// seedStore loads a store with no committed version and commits it as
// version 1, returning the number of tuples it read. It first deletes every
// live tuple, which only a seed that died mid-way can have left, so that
// version 1 holds exactly what this seed reads. The rows of csvDir's
// <Relation>.csv files then stream straight into the store; without csvDir
// it copies the paper instance.
func seedStore(b *backend.LSM, csvDir string) (int, error) {
	if err := deleteHead(b); err != nil {
		return 0, err
	}
	var (
		n   int
		err error
	)
	if csvDir != "" {
		n, err = storage.LoadDir(b, csvDir)
	} else {
		db := gtopdb.PaperInstance()
		for _, rs := range db.Schema().Relations() {
			db.Relation(rs.Name).Scan(func(t storage.Tuple) bool {
				if err = b.Insert(rs.Name, t...); err != nil {
					return false
				}
				n++
				return true
			})
			if err != nil {
				break
			}
		}
	}
	if err != nil {
		return n, err
	}
	_, err = b.Commit("initial load")
	return n, err
}

// deleteHead deletes every live tuple of b.
func deleteHead(b *backend.LSM) error {
	v, err := b.Snapshot()
	if err != nil {
		return err
	}
	defer v.Release()
	for _, rs := range b.Schema().Relations() {
		// The snapshot does not see the deletes it drives.
		v.Relation(rs.Name).Scan(func(t storage.Tuple) bool {
			_, err = b.Delete(rs.Name, t...)
			return err == nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}
