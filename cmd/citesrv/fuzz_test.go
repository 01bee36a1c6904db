package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// FuzzCiteRequest sends arbitrary bodies to the three citation routes through
// the real mux, under a short request deadline. Every answer is a 200, or a
// typed 4xx envelope with a code — never a 500 and never a panic: a
// stream that fails before its first line answers with its typed status, a
// stream that fails later says why in its trailer, a batch whose every
// request failed the same way answers that 4xx with its slots, and no batch
// slot carries "internal". The route byte picks the route; its high bit pads the body
// past /v1/cite's size bound.
func FuzzCiteRequest(f *testing.F) {
	routes := []string{"/v1/cite", "/v1/cite/batch", "/v1/cite/stream"}
	queries := []citeRequest{
		{SQL: "SELECT f.FName FROM Family f, FamilyIntro i WHERE f.FID = i.FID AND f.Type = 'gpcr'"},
		{Datalog: `Q(N) :- Family(F, N, Ty), Ty = "gpcr", FamilyIntro(F, Tx)`, Format: "bibtex"},
		{Datalog: `Q(N, Pn) :- Family(F, N, Ty), FC(F, C), Person(C, Pn, A)`, MaxTuples: 3},
		{Datalog: `Q(N) :- Family(F, N, Ty), F = "11"`, MaxRewritings: 1, Explain: true},
	}
	for _, q := range queries {
		one, _ := json.Marshal(q)
		batch, _ := json.Marshal(batchRequest{Requests: append(queries, citeRequest{SQL: "SELEKT"})})
		f.Add(uint8(0), one)
		f.Add(uint8(1), batch)
		f.Add(uint8(2), one)
	}
	// decodeBody's failures: no body, a syntax error, a cut-off value, a
	// field of the wrong type, a value of the wrong kind, and a body over
	// the bound.
	for _, bad := range []string{"", "{", `{"sql": "SELECT`, `{"sql": 5}`, `{"requests": {}}`, `[1, 2]`, "null"} {
		for r := range routes {
			f.Add(uint8(r), []byte(bad))
		}
	}
	// A batch whose one request fails: its 400 is the slot's.
	f.Add(uint8(1), []byte(`{"requests":[{}]}`))
	f.Add(uint8(0x80), []byte(`{"sql": "SELECT FName FROM Family"}`))
	f.Add(uint8(0x82), []byte(`{"sql": "SELECT FName FROM Family"}`))

	s := testServer(f)
	s.quiet = true
	s.timeout = 50 * time.Millisecond
	s.initObservability()
	mux := s.mux()
	f.Fuzz(func(t *testing.T, route uint8, body []byte) {
		path := routes[int(route&0x7f)%len(routes)]
		if route&0x80 != 0 {
			body = append(bytes.Repeat([]byte(" "), maxRequestBody), body...)
		}
		w := httptest.NewRecorder()
		mux.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		switch {
		case w.Code >= 400 && w.Code < 500:
			var env errorEnvelope
			if err := json.Unmarshal(w.Body.Bytes(), &env); err == nil && env.Error.Code != "" {
				break
			}
			// A batch whose every request failed the same way answers that
			// status with its slots, each carrying it and a typed error.
			var resp batchResponse
			if path != "/v1/cite/batch" || json.Unmarshal(w.Body.Bytes(), &resp) != nil || len(resp.Results) == 0 {
				t.Fatalf("%s: %d without a typed envelope: %q", path, w.Code, w.Body.String())
			}
			for i, slot := range resp.Results {
				if slot.Status != w.Code || slot.Error == nil || slot.Error.Code == "" || slot.Error.Code == "internal" {
					t.Fatalf("batch answered %d, slot %d: status %d, error %+v", w.Code, i, slot.Status, slot.Error)
				}
			}
		case w.Code != http.StatusOK:
			t.Fatalf("%s: status %d: %s", path, w.Code, w.Body.String())
		case path == "/v1/cite/batch":
			var resp batchResponse
			if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
				t.Fatalf("batch: %v in %q", err, w.Body.String())
			}
			for i, slot := range resp.Results {
				if slot.Error != nil && (slot.Error.Code == "" || slot.Error.Code == "internal") || slot.Status >= 500 {
					t.Fatalf("batch slot %d: status %d, error %+v", i, slot.Status, slot.Error)
				}
			}
		case path == "/v1/cite/stream":
			lines := strings.Split(strings.TrimRight(w.Body.String(), "\n"), "\n")
			var last streamTrailerLine
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("stream: trailer %q: %v", lines[len(lines)-1], err)
			}
			if e := last.Trailer.Error; e != nil && (e.Code == "" || e.Code == "internal") {
				t.Fatalf("stream: trailer error %+v", e)
			}
		}
	})
}
