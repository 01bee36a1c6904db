package main

import (
	"log"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"citare/internal/obs"
)

// reqInfo is the per-request observability record. The middleware creates
// one per request inside the response writer it hands the handler (no copy
// of the request is made to carry it); handlers annotate it (query text,
// tuples emitted, the pipeline trace) and the middleware reads it back after
// the handler returns for the access-log line and the slow-query log.
// Handlers run synchronously under the middleware, so plain fields need no
// locking.
type reqInfo struct {
	id     string
	query  string
	tuples int
	trace  *obs.Trace
}

// infoFrom returns the reqInfo of the request w answers, or nil when the
// handler runs outside the middleware (direct handler tests). All setters
// are nil-safe.
func infoFrom(w http.ResponseWriter) *reqInfo {
	if sw, ok := w.(*statusWriter); ok {
		return &sw.info
	}
	return nil
}

func (ri *reqInfo) setQuery(q string) {
	if ri != nil {
		ri.query = q
	}
}

func (ri *reqInfo) setTuples(n int) {
	if ri != nil {
		ri.tuples = n
	}
}

func (ri *reqInfo) addTuples(n int) {
	if ri != nil {
		ri.tuples += n
	}
}

func (ri *reqInfo) setTrace(tr *obs.Trace) {
	if ri != nil {
		ri.trace = tr
	}
}

// requestID returns the ID of the request w answers, or "" outside the
// middleware.
func requestID(w http.ResponseWriter) string {
	if ri := infoFrom(w); ri != nil {
		return ri.id
	}
	return ""
}

// nextRequestID mints a process-unique request ID: a per-process prefix
// plus a monotonic sequence number.
func (s *server) nextRequestID() string {
	prefix := s.idPrefix
	if prefix == "" {
		prefix = "req"
	}
	var buf [64]byte
	return string(strconv.AppendUint(append(append(buf[:0], prefix...), '-'), s.reqSeq.Add(1), 10))
}

// statusWriter captures the response status for the access log while
// forwarding writes (and flushes — the streaming endpoint needs them) to
// the underlying ResponseWriter. It carries the request's reqInfo.
type statusWriter struct {
	http.ResponseWriter
	status int
	info   reqInfo
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// routeLabels are the values of the route label of the HTTP metrics: the
// server's known routes, the profiler's subtree and "other" — a bounded set
// no matter what paths clients probe.
var routeLabels = []string{"/v1/cite", "/v1/cite/stream", "/v1/cite/batch",
	"/views", "/stats", "/metrics", "/v1/slow", "/v1/health", "/healthz", "/debug/pprof/", "other"}

// routeMetrics holds one route's HTTP metric handles, so that a request
// updates two atomics instead of looking both series up in the registry by
// name and label set. A handle is resolved on first use — a route nobody
// asked for has no series on /metrics.
type routeMetrics struct {
	route    string
	mu       sync.Mutex
	duration *obs.Histogram
	requests map[int]*obs.Counter // by status
}

// newRouteMetrics builds the table of routes, read-only from then on.
func newRouteMetrics() map[string]*routeMetrics {
	table := make(map[string]*routeMetrics, len(routeLabels))
	for _, route := range routeLabels {
		table[route] = &routeMetrics{route: route, requests: make(map[int]*obs.Counter)}
	}
	return table
}

// routeMetricsFor collapses a request path to its route's entry.
func (s *server) routeMetricsFor(path string) *routeMetrics {
	if strings.HasPrefix(path, "/debug/pprof/") {
		path = "/debug/pprof/"
	}
	if m := s.routes[path]; m != nil {
		return m
	}
	return s.routes["other"]
}

// observe records one served request.
func (m *routeMetrics) observe(reg *obs.Registry, status int, dur time.Duration) {
	m.mu.Lock()
	requests := m.requests[status]
	if requests == nil {
		requests = reg.Counter("citesrv_http_requests_total",
			"HTTP requests served, by route and status.",
			obs.Label{Key: "route", Value: m.route},
			obs.Label{Key: "status", Value: strconv.Itoa(status)})
		m.requests[status] = requests
	}
	if m.duration == nil {
		m.duration = reg.Histogram("citesrv_http_request_duration_seconds",
			"HTTP request latency, by route.", obs.DefLatencyBuckets,
			obs.Label{Key: "route", Value: m.route})
	}
	duration := m.duration
	m.mu.Unlock()
	requests.Inc()
	duration.Observe(dur)
}

// withObservability wraps the route mux with the request middleware: it
// mints the request ID (echoed in the X-Request-ID response header and in
// error envelopes), carries a reqInfo through the context for handlers to
// annotate, records HTTP request metrics, emits one structured access-log
// line per request (suppressed by -quiet), and feeds requests over the
// -slow-threshold into the slow-query ring served at /v1/slow.
func (s *server) withObservability(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, info: reqInfo{id: s.nextRequestID()}}
		ri := &sw.info
		w.Header()["X-Request-Id"] = []string{ri.id} // X-Request-ID, canonical
		next.ServeHTTP(sw, r)
		status := sw.status
		if status == 0 {
			status = http.StatusOK
		}
		dur := time.Since(start)
		if s.reg != nil {
			s.routeMetricsFor(r.URL.Path).observe(s.reg, status, dur)
		}
		if !s.quiet {
			log.Printf("citesrv: request id=%s method=%s route=%s status=%d dur=%s tuples=%d",
				ri.id, r.Method, r.URL.Path, status, dur.Round(time.Microsecond), ri.tuples)
		}
		if s.slow != nil && dur >= s.slow.threshold {
			s.slow.add(slowEntry{
				RequestID:  ri.id,
				Time:       start.UTC(),
				Method:     r.Method,
				Route:      r.URL.Path,
				Query:      ri.query,
				Status:     status,
				DurationMs: float64(dur) / float64(time.Millisecond),
				Tuples:     ri.tuples,
				Trace:      ri.trace.Report(),
			})
		}
	})
}
