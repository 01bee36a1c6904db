package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// workers is the closed-loop client count of every workload: each worker
// sends its next request only after the previous answer is complete, over
// its own keep-alive connection. Two, because the sizing was done on two
// cores shared by generator and server; fixed, so that two machines run the
// same offered load.
const workers = 2

// sampleEvery is the correctness sampling rate of a timed loop: every 50th
// response of a worker is kept and later compared byte for byte with the
// in-process answer. A counted loop is short and keeps every response.
const sampleEvery = 50

// headOps is how many requests each worker sends, counted, before the
// point-* warm-up: with every answer of this head of the stream compared
// with the in-memory reference, point-mem and point-lsm — which are sent
// byte-identical streams — are compared with each other inside each run.
const headOps = 500

var trailerPrefix = []byte(`{"trailer"`)

// client sends wire requests to one server.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	return &client{
		base: base,
		hc: &http.Client{
			Timeout: 60 * time.Second,
			Transport: &http.Transport{
				MaxIdleConns:        2 * workers,
				MaxIdleConnsPerHost: 2 * workers,
				DisableCompression:  true,
			},
		},
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// opResult is one completed request as the client saw it.
type opResult struct {
	latency time.Duration
	ttft    time.Duration // stream: request sent → first NDJSON line
	tuples  int           // stream: tuple lines before the trailer
	// payload is the part of the response that is a function of the request
	// and the data alone: the whole body of /v1/cite, the tuple lines of a
	// stream (its trailer carries timings). Valid until the next do on buf.
	payload []byte
	bytes   int // response body bytes, trailer included
}

// do sends one request and reads the whole answer. Any transport error,
// non-200 status or malformed stream is an error.
func (c *client) do(ctx context.Context, req wireRequest, buf *bytes.Buffer) (opResult, error) {
	var res opResult
	body := req.body.json()
	t0 := time.Now()
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+req.path(), bytes.NewReader(body))
	if err != nil {
		return res, err
	}
	hr.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(hr)
	if err != nil {
		return res, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(buf, io.LimitReader(resp.Body, 512)) // best effort, for the message
		return res, fmt.Errorf("POST %s: status %d: %s", req.path(), resp.StatusCode, bytes.TrimSpace(buf.Bytes()))
	}
	if !req.stream {
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			return res, err
		}
		res.latency = time.Since(t0)
		res.payload, res.bytes = buf.Bytes(), buf.Len()
		return res, nil
	}
	br := bufio.NewReaderSize(resp.Body, 32<<10)
	var trailer []byte
	for {
		line, err := br.ReadBytes('\n')
		if len(line) > 0 {
			if res.ttft == 0 {
				res.ttft = time.Since(t0)
			}
			res.bytes += len(line)
			if bytes.HasPrefix(line, trailerPrefix) {
				trailer = line
			} else {
				res.tuples++
				buf.Write(line)
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return res, err
		}
	}
	res.latency = time.Since(t0)
	res.payload = buf.Bytes()
	var tl struct {
		Trailer struct {
			Tuples int             `json:"tuples"`
			Error  json.RawMessage `json:"error"`
		} `json:"trailer"`
	}
	if err := json.Unmarshal(trailer, &tl); err != nil {
		return res, fmt.Errorf("stream without a readable trailer: %v", err)
	}
	if tl.Trailer.Error != nil || tl.Trailer.Tuples != res.tuples {
		return res, fmt.Errorf("stream trailer reports %d tuples, error %s; read %d", tl.Trailer.Tuples, tl.Trailer.Error, res.tuples)
	}
	return res, nil
}

// sample is one kept response: the request and the hash of its payload.
type sample struct {
	req wireRequest
	sum [sha256.Size]byte
}

// opRec is one completed operation as a loop recorded it.
type opRec struct {
	end    time.Duration // completion, since the loop started
	lat    time.Duration
	ttft   time.Duration // streamed ops: time to the first tuple
	tuples int           // streamed ops: tuples delivered
	stream bool
	commit bool // versioned-rw: a curator commit, not a read
	// aside marks versioned-rw's reads after a commit: they are part of the
	// cycle's work and count for throughput, but they are a fixed chore, not
	// the mix, and stay out of the latency percentiles.
	aside bool
}

// opLog is what one worker recorded over one loop.
type opLog struct {
	recs      []opRec
	respBytes int64
	failed    int
	firstErr  error
	samples   []sample
}

func (l *opLog) fail(err error) {
	l.failed++
	if l.firstErr == nil {
		l.firstErr = err
	}
}

// loopResult is the merged record of one closed loop.
type loopResult struct {
	start   time.Time
	logs    []*opLog
	elapsed time.Duration // loop start → last worker done
}

func (r loopResult) ops() int {
	n := 0
	for _, l := range r.logs {
		n += len(l.recs) + l.failed
	}
	return n
}

func (r loopResult) failed() (int, error) {
	n := 0
	var first error
	for _, l := range r.logs {
		n += l.failed
		if first == nil {
			first = l.firstErr
		}
	}
	return n, first
}

// recs merges the workers' records.
func (r loopResult) recs() []opRec {
	var out []opRec
	for _, l := range r.logs {
		out = append(out, l.recs...)
	}
	return out
}

func (r loopResult) samples() []sample {
	var out []sample
	for _, l := range r.logs {
		out = append(out, l.samples...)
	}
	return out
}

func (r loopResult) respBytes() int64 {
	var n int64
	for _, l := range r.logs {
		n += l.respBytes
	}
	return n
}

// closedLoop runs one worker per request source until `until` (or, when
// until is zero, for count requests each) and returns what they recorded.
// A failed request is counted and the loop goes on; only ctx ending stops it
// early.
func closedLoop(ctx context.Context, c *client, next []func() wireRequest, until time.Time, count int) loopResult {
	res := loopResult{start: time.Now(), logs: make([]*opLog, len(next))}
	every := sampleEvery
	if until.IsZero() {
		every = 1
	}
	var wg sync.WaitGroup
	for w := range next {
		// Sized for the fastest window seen, so appends never reallocate
		// inside the measurement.
		l := &opLog{recs: make([]opRec, 0, 1<<17)}
		res.logs[w] = l
		wg.Add(1)
		go func(next func() wireRequest) {
			defer wg.Done()
			var buf bytes.Buffer
			for i := 0; ctx.Err() == nil; i++ {
				if until.IsZero() {
					if i >= count {
						return
					}
				} else if !time.Now().Before(until) {
					return
				}
				req := next()
				r, err := c.do(ctx, req, &buf)
				if err != nil {
					l.fail(err)
					continue
				}
				l.recs = append(l.recs, opRec{end: time.Since(res.start), lat: r.latency, ttft: r.ttft, tuples: r.tuples, stream: req.stream})
				l.respBytes += int64(r.bytes)
				if i%every == 0 {
					l.samples = append(l.samples, sample{req: req, sum: sha256.Sum256(r.payload)})
				}
			}
		}(next[w])
	}
	wg.Wait()
	res.elapsed = time.Since(res.start)
	return res
}

// cpuSampler reads a process's CPU time at fixed intervals while a loop
// runs, so that CPU per operation can be taken slice by slice.
type cpuSampler struct {
	pid      int
	start    time.Time
	interval time.Duration
	at       []time.Duration // sampling instants, since start
	cpu      []float64       // the process's CPU seconds at each
	stop     chan struct{}
	done     chan struct{}
}

// sampleCPU starts sampling pid's CPU every interval, the first sample now.
func sampleCPU(pid int, start time.Time, interval time.Duration) *cpuSampler {
	s := &cpuSampler{pid: pid, start: start, interval: interval, stop: make(chan struct{}), done: make(chan struct{})}
	read := func() {
		if v, err := procCPUSeconds(pid); err == nil {
			s.at = append(s.at, time.Since(start))
			s.cpu = append(s.cpu, v)
		}
	}
	read()
	go func() {
		defer close(s.done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				read()
			case <-s.stop:
				return
			}
		}
	}()
	return s
}

// finish takes a last sample, stops the sampler and returns the sampling
// instants as slice bounds with the CPU time at each. A last slice shorter
// than half an interval is joined to the one before it.
func (s *cpuSampler) finish() (bounds []time.Duration, cpu []float64) {
	close(s.stop)
	<-s.done
	n := len(s.at)
	if v, err := procCPUSeconds(s.pid); err == nil {
		if n >= 2 && time.Since(s.start)-s.at[n-1] < s.interval/2 {
			n-- // the final sample replaces the last tick
		}
		s.at = append(s.at[:n], time.Since(s.start))
		s.cpu = append(s.cpu[:n], v)
	}
	return s.at, s.cpu
}
