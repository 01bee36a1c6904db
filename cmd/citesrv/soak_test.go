package main

// Soak test (ISSUE 9 satellite 3): sustained mixed traffic against a citesrv
// instance serving the citegraph workload — batch requests, full NDJSON
// stream reads, and clients that cancel mid-stream — checked for goroutine
// leaks and run under -race in CI's chaos job. The query mix is the
// Zipf-skewed long-tail resolution pattern, so the token cache, plan caches
// and hot-shard paths all see realistic contention.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"

	"citare"
	"citare/internal/citegraph"

	"net/http/httptest"
)

// citegraphServer builds a citesrv server over a small citegraph instance
// with the full policy library behind the cached facade.
func citegraphServer(t testing.TB) *server {
	t.Helper()
	db := citegraph.Generate(citegraph.ScaleSmall())
	citer, err := citare.NewFromProgram(db, citegraph.ViewsProgram,
		citare.WithNeutralCitation(citegraph.DatasetCitation()))
	if err != nil {
		t.Fatal(err)
	}
	return &server{citer: citare.NewCached(citer), viewsProgram: citegraph.ViewsProgram}
}

// parseStream splits an NDJSON body into tuple lines and the trailer,
// returning errors instead of failing the test (soak workers run off the
// test goroutine).
func parseStream(body string) (tuples int, trailer streamTrailer, err error) {
	lines := strings.Split(strings.TrimRight(body, "\n"), "\n")
	if len(lines) == 0 {
		return 0, trailer, fmt.Errorf("empty stream body")
	}
	var last streamTrailerLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		return 0, trailer, fmt.Errorf("trailer line %q: %v", lines[len(lines)-1], err)
	}
	for i, line := range lines[:len(lines)-1] {
		var tu streamTuple
		if err := json.Unmarshal([]byte(line), &tu); err != nil {
			return 0, trailer, fmt.Errorf("tuple line %d %q: %v", i, line, err)
		}
		if tu.Index != i {
			return 0, trailer, fmt.Errorf("tuple line %d carries index %d", i, tu.Index)
		}
	}
	return len(lines) - 1, last.Trailer, nil
}

// The wire-level client patterns over a citegraph mix: one /v1/cite/batch
// POST vs per-request NDJSON /v1/cite/stream reads, measured through a real
// HTTP round trip (httptest server, default transport). The in-process
// stream is weighed by TestStreamVsMaterializedAllocs (root package).

func benchClientSetup(b *testing.B) (*httptest.Server, *http.Client, []string) {
	b.Helper()
	s := citegraphServer(b)
	srv := httptest.NewServer(s.mux())
	b.Cleanup(srv.Close)
	client := &http.Client{}
	b.Cleanup(client.CloseIdleConnections)
	return srv, client, citegraph.QueryMix(citegraph.ScaleSmall(), citegraph.DefaultMixWeights(), 23, 4)
}

func BenchmarkCitesrvBatchClient(b *testing.B) {
	srv, client, mix := benchClientSetup(b)
	slots := make([]string, len(mix))
	for i, q := range mix {
		enc, _ := json.Marshal(map[string]string{"datalog": q})
		slots[i] = string(enc)
	}
	body := `{"requests": [` + strings.Join(slots, ", ") + `]}`
	run := func() error {
		resp, err := client.Post(srv.URL+"/v1/cite/batch", "application/json", strings.NewReader(body))
		if err != nil {
			return err
		}
		var br batchResponse
		err = json.NewDecoder(resp.Body).Decode(&br)
		resp.Body.Close()
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK || len(br.Results) != len(mix) {
			return fmt.Errorf("batch: status %d, %d results", resp.StatusCode, len(br.Results))
		}
		return nil
	}
	if err := run(); err != nil { // warm views, plans, caches
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := run(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCitesrvStreamClient(b *testing.B) {
	srv, client, mix := benchClientSetup(b)
	run := func() error {
		for _, q := range mix {
			enc, _ := json.Marshal(map[string]string{"datalog": q})
			resp, err := client.Post(srv.URL+"/v1/cite/stream", "application/json", strings.NewReader(string(enc)))
			if err != nil {
				return err
			}
			var sb strings.Builder
			sc := bufio.NewScanner(resp.Body)
			sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
			for sc.Scan() {
				sb.WriteString(sc.Text())
				sb.WriteByte('\n')
			}
			resp.Body.Close()
			if err := sc.Err(); err != nil {
				return err
			}
			n, trailer, err := parseStream(sb.String())
			if err != nil {
				return err
			}
			if trailer.Error != nil || trailer.Tuples != n {
				return fmt.Errorf("stream trailer %+v over %d lines", trailer, n)
			}
		}
		return nil
	}
	if err := run(); err != nil { // warm views, plans, caches
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := run(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestCitegraphSoak hammers one server with concurrent workers cycling
// through three client behaviors — batch POSTs, full stream reads, and
// mid-stream disconnects — on the Zipf query mix, then requires the
// goroutine count to settle back to the baseline.
func TestCitegraphSoak(t *testing.T) {
	rounds := 12
	if testing.Short() {
		rounds = 4
	}
	const workers = 8

	before := runtime.NumGoroutine()
	s := citegraphServer(t)
	srv := httptest.NewServer(s.mux())
	client := &http.Client{}

	cfg := citegraph.ScaleSmall()
	mix := citegraph.QueryMix(cfg, citegraph.DefaultMixWeights(), 23, 64)
	// The disconnecting clients need streams long enough to abandon; the
	// hot work's incoming-reference list is the longest stream in the mix.
	longQuery := citegraph.IncomingQuery(citegraph.HotWork())

	var wg sync.WaitGroup
	errc := make(chan error, workers*rounds)
	post := func(path, body string) (*http.Response, error) {
		return client.Post(srv.URL+path, "application/json", strings.NewReader(body))
	}
	reqJSON := func(datalog string) string {
		b, _ := json.Marshal(map[string]string{"datalog": datalog})
		return string(b)
	}

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				q := mix[(w*rounds+r)%len(mix)]
				switch (w + r) % 3 {
				case 0: // batch: three slots, every one must succeed in place
					body := `{"requests": [` + reqJSON(q) + `, ` + reqJSON(longQuery) + `, ` + reqJSON(q) + `]}`
					resp, err := post("/v1/cite/batch", body)
					if err != nil {
						errc <- err
						return
					}
					var br batchResponse
					err = json.NewDecoder(resp.Body).Decode(&br)
					resp.Body.Close()
					if err != nil {
						errc <- fmt.Errorf("batch decode: %v", err)
						return
					}
					if resp.StatusCode != http.StatusOK || len(br.Results) != 3 {
						errc <- fmt.Errorf("batch: status %d, %d results", resp.StatusCode, len(br.Results))
						return
					}
					for i, res := range br.Results {
						if res.Status != http.StatusOK || res.Result == nil {
							errc <- fmt.Errorf("batch slot %d: status %d", i, res.Status)
							return
						}
					}
				case 1: // stream: full read, trailer must account for every line
					resp, err := post("/v1/cite/stream", reqJSON(q))
					if err != nil {
						errc <- err
						return
					}
					var sb strings.Builder
					sc := bufio.NewScanner(resp.Body)
					sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
					for sc.Scan() {
						sb.WriteString(sc.Text())
						sb.WriteByte('\n')
					}
					resp.Body.Close()
					if err := sc.Err(); err != nil {
						errc <- fmt.Errorf("stream read: %v", err)
						return
					}
					if resp.StatusCode != http.StatusOK {
						errc <- fmt.Errorf("stream: status %d: %s", resp.StatusCode, sb.String())
						return
					}
					n, trailer, err := parseStream(sb.String())
					if err != nil {
						errc <- err
						return
					}
					if trailer.Error != nil || trailer.Tuples != n {
						errc <- fmt.Errorf("stream trailer %+v over %d lines", trailer, n)
						return
					}
				case 2: // mid-stream disconnect: read one line, walk away
					resp, err := post("/v1/cite/stream", reqJSON(longQuery))
					if err != nil {
						errc <- err
						return
					}
					br := bufio.NewReader(resp.Body)
					if _, err := br.ReadString('\n'); err != nil {
						resp.Body.Close()
						errc <- fmt.Errorf("disconnect first line: %v", err)
						return
					}
					resp.Body.Close()
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	srv.Close()
	client.CloseIdleConnections()
	waitForGoroutines(t, before)
}
