package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"citare/internal/backend"
	"citare/internal/gtopdb"
	"citare/internal/lsm"
	"citare/internal/storage"
)

// servedWorkload is a workload that drives a real citesrv over HTTP.
type servedWorkload struct {
	layout layout
	// browse selects the browse-shard4 traffic (a working set that fits
	// every cache, every fifth request streamed); otherwise the point-*
	// traffic (nearly every request a new query, all through /v1/cite).
	browse bool
}

var servedWorkloads = map[string]servedWorkload{
	"point-mem":     {layout: layout{}},
	"point-lsm":     {layout: layout{lsm: true}},
	"browse-shard4": {layout: layout{shards: 4}, browse: true},
}

// warmupShare of the run's seconds is spent, unmeasured, on the workload's
// own mix before the window opens: the views materialize, the server's heap
// reaches its working size, the connections open. Without it the window's
// first slice runs a tenth slower than the rest.
const warmupShare = 0.1

// served is the state of one served run.
type served struct {
	cfg    runConfig
	w      servedWorkload
	res    *result
	dir    string // the run's scratch directory
	csvDir string
	db     *storage.DB // the generated instance (the reference engine's data)
	// working is browse-shard4's working set of queries.
	working []citeBody
	tuples  int
	csvLen  int64
	// head holds every answer of the counted pass before the warm-up: the
	// head of the point-* stream (see headOps), browse-shard4's cold pass.
	head []sample
	// rss is the peak resident set of each of the run's servers, the
	// measured one last.
	rss []float64
}

// runServed runs one served workload untraced: the end-to-end metrics.
func runServed(ctx context.Context, cfg runConfig, w servedWorkload) (*result, error) {
	s := &served{cfg: cfg, w: w, res: newResult(cfg)}
	var err error
	if s.dir, err = os.MkdirTemp(cfg.tmp, cfg.workload+"-"); err != nil {
		return nil, err
	}
	defer os.RemoveAll(s.dir)
	if err := s.generate(); err != nil {
		return nil, err
	}
	srv, storeDir, err := s.setUp(ctx)
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	samples, err := s.measure(ctx, srv)
	if err != nil {
		return nil, err
	}
	srv.stop()
	s.rss = append(s.rss, srv.peakRSSMB())
	s.res.set("peak_rss_mb", slices.Max(s.rss), "MB")
	s.res.Series["server_peak_rss_mb"] = s.rss

	// Correctness: the sampled responses against the in-process answer.
	done := s.res.phase("verify")
	ref, err := newReference(s.db)
	if err != nil {
		return nil, err
	}
	bad, verr := ref.verify(ctx, samples)
	s.res.check("verified_samples", len(samples), bad, verr)
	// Every answer of the counted pass. For the head of the point-* stream
	// that holds point-mem and point-lsm both to the in-memory engine's
	// bytes, and so to each other's.
	bad, verr = ref.verify(ctx, s.head)
	s.res.check("verified_head", len(s.head), bad, verr)
	if w.layout.lsm {
		if err := s.restartCheck(ctx, storeDir, append(s.head, samples...)); err != nil {
			return nil, err
		}
	}
	done()
	if err := s.diskPerTuple(storeDir); err != nil {
		return nil, err
	}
	s.res.finish()
	return s.res, ctx.Err()
}

// setUp times several cold starts, each on a fresh store directory, from
// spawn to the first healthy answer (for the LSM layout that includes
// seeding the store). The last server stays up and is the one measured.
func (s *served) setUp(ctx context.Context) (srv *server, storeDir string, err error) {
	defer s.res.phase("setup")()
	var setups []float64
	for i := 0; i < s.cfg.sc.setups; i++ {
		if srv != nil {
			srv.stop()
			s.rss = append(s.rss, srv.peakRSSMB())
		}
		storeDir = filepath.Join(s.dir, fmt.Sprintf("store-%d", i))
		t0 := time.Now()
		if srv, err = startServer(ctx, s.cfg.citesrv, s.w.layout.serverArgs(s.csvDir, storeDir, false)...); err != nil {
			return nil, "", err
		}
		setups = append(setups, time.Since(t0).Seconds())
		s.res.Extra[fmt.Sprintf("setup_%d_s", i)] = setups[i]
	}
	s.res.set("setup_s", median(setups), "s")
	return srv, storeDir, nil
}

// measure warms the server up, runs the measured window against it and
// scrapes its counters; it returns the sampled responses.
func (s *served) measure(ctx context.Context, srv *server) ([]sample, error) {
	c := newClient(srv.base)
	defer c.close()
	next := s.sources()
	if err := s.warmUp(ctx, c, next); err != nil {
		return nil, err
	}
	done := s.res.phase("window")
	main, st := s.window(ctx, c, srv, next, s.share(1))
	bad, ferr := main.failed()
	s.res.check("main_ops", main.ops(), bad, ferr)
	s.res.set("ops_per_s", st.opsPerS, "1/s")
	s.res.set("p50_ms", st.p50MS, "ms")
	s.res.set("p99_ms", st.p99MS, "ms")
	s.res.set("cpu_ms_per_op", st.cpuMSPerOp, "ms")
	if s.w.browse {
		s.res.set("stream_ttft_p50_ms", st.ttftP50MS, "ms")
		s.res.set("stream_tuples_per_s", st.tuplesPerS, "1/s")
	} else {
		// point-* sends no streams: the first tuple of a materialized answer
		// arrives with the whole of it, one answer per operation.
		s.res.standIn("stream_ttft_p50_ms", st.p50MS, "ms")
		s.res.standIn("stream_tuples_per_s", st.opsPerS, "1/s")
	}
	// citesrv has no write endpoint: what becomes citable here is an answer.
	s.res.standIn("commit_p50_ms", st.p50MS, "ms")
	s.res.Counts["slices"] = st.slices
	s.res.Series["slice_ops_per_s"] = st.sliceOpsPerS
	s.res.Counts["samples_beyond_p99"] = st.beyondP99
	s.res.Counts["stream_samples"] = st.streams
	s.res.Counts["stream_tuples"] = st.tuples
	s.res.Extra["resp_bytes_per_op"] = ratio(float64(main.respBytes()), float64(main.ops()))
	samples := main.samples()
	done()
	for _, path := range []string{"/stats", "/metrics"} {
		raw, err := srv.get(ctx, path)
		if err != nil {
			return nil, fmt.Errorf("scrape %s: %w", path, err)
		}
		s.res.Attachments[path] = raw
	}
	return samples, ctx.Err()
}

func (s *served) share(f float64) time.Duration {
	return time.Duration(f * s.cfg.seconds * float64(time.Second))
}

// generate makes the run's inputs from the seed: the instance and the CSV
// set the server loads.
func (s *served) generate() error {
	defer s.res.phase("generate")()
	s.db = generateGtopdb(s.cfg.sc.gtopdb, s.cfg.seed)
	s.tuples = tupleCount(s.db)
	s.csvDir = filepath.Join(s.dir, "csv")
	var err error
	s.csvLen, err = dumpCSVDir(s.db, s.csvDir)
	s.res.Counts["tuples"] = s.tuples
	return err
}

// sources returns each worker's request source.
func (s *served) sources() (next []func() wireRequest) {
	g := s.cfg.sc.gtopdb
	if s.w.browse {
		types := s.cfg.sc.browseTypes
		if s.cfg.trace {
			types = max(1, types/5)
		}
		s.working = browseQueries(s.cfg.seed, g.Types, types)
		s.res.Counts["working_set_queries"] = len(s.working)
	}
	for w := 0; w < workers; w++ {
		if s.w.browse {
			next = append(next, newBrowseStream(s.cfg.seed, w, s.working).next)
			continue
		}
		next = append(next, newPointStream(s.cfg.seed, w, g.Families).next)
	}
	return next
}

// warmUp brings the server to its steady state, unmeasured. For
// browse-shard4 that is each query of the working set once through
// /v1/cite — the cold materialized path, whose latency is kept as an extra.
func (s *served) warmUp(ctx context.Context, c *client, next []func() wireRequest) error {
	defer s.res.phase("warmup")()
	var warm loopResult
	if s.w.browse {
		// Worker w takes the queries at positions w, w+workers, ...
		working := s.working
		cold := make([]func() wireRequest, workers)
		for w := range cold {
			i := w
			cold[w] = func() wireRequest {
				q := working[i%len(working)]
				i += workers
				return wireRequest{body: q}
			}
		}
		warm = closedLoop(ctx, c, cold, time.Time{}, (len(working)+workers-1)/workers)
		var coldMS []float64
		for _, r := range warm.recs() {
			coldMS = append(coldMS, ms(r.lat))
		}
		s.res.Extra["cold_cite_p50_ms"] = percentile(coldMS, 50)
	} else {
		warm = closedLoop(ctx, c, next, time.Time{}, headOps)
	}
	s.head = warm.samples()
	mix := closedLoop(ctx, c, next, time.Now().Add(s.share(warmupShare)), 0)
	warm.logs = append(warm.logs, mix.logs...)
	bad, err := warm.failed()
	s.res.check("warmup_ops", warm.ops(), bad, err)
	return ctx.Err()
}

// window runs one closed loop for d against the server, sampling the
// server's CPU at every slice bound, and reduces it slice by slice. A window
// shorter than three slices is cut in three.
func (s *served) window(ctx context.Context, c *client, srv *server, next []func() wireRequest, d time.Duration) (loopResult, windowStats) {
	slice := min(sliceLen, d/3)
	start := time.Now()
	cpu := sampleCPU(srv.cmd.Process.Pid, start, slice)
	loop := closedLoop(ctx, c, next, start.Add(d), 0)
	bounds, cpuAt := cpu.finish()
	return loop, summarize(lane{recs: loop.recs(), bounds: bounds, cpu: cpuAt})
}

// restartCheck restarts the server on the store it just closed and replays
// up to a thousand of the sampled requests: a recovered store must answer
// exactly as it did before the restart.
func (s *served) restartCheck(ctx context.Context, storeDir string, samples []sample) error {
	srv, err := startServer(ctx, s.cfg.citesrv, s.w.layout.serverArgs(s.csvDir, storeDir, false)...)
	if err != nil {
		return fmt.Errorf("restart on %s: %w", storeDir, err)
	}
	defer srv.stop()
	if len(samples) > 1000 {
		samples = samples[:1000]
	}
	c := newClient(srv.base)
	defer c.close()
	bad := 0
	var first error
	var buf bytes.Buffer
	for _, want := range samples {
		r, err := c.do(ctx, want.req, &buf)
		if err == nil && sha256.Sum256(r.payload) != want.sum {
			err = fmt.Errorf("answer changed across restart for %s %s", want.req.path(), want.req.body)
		}
		if err != nil {
			bad++
			if first == nil {
				first = err
			}
		}
	}
	s.res.check("restart_replayed", len(samples), bad, first)
	return ctx.Err()
}

// diskPerTuple reports what the layout's durable form costs on disk per live
// tuple: for the LSM layout the store directory the server left, after an
// explicit flush and compaction; otherwise the CSV set a memory-only server
// boots from, which moves with the data, not the code.
func (s *served) diskPerTuple(storeDir string) error {
	if !s.w.layout.lsm {
		s.res.standIn("disk_bytes_per_tuple", float64(s.csvLen)/float64(s.tuples), "B")
		return nil
	}
	defer s.res.phase("quiesce")()
	b, err := backend.OpenLSM(storeDir, gtopdb.Schema(), lsm.Options{})
	if err != nil {
		return err
	}
	defer b.Close() // a second Close after the checked one is harmless
	st := b.Store()
	if err := st.Flush(); err != nil {
		return err
	}
	if err := st.Compact(); err != nil {
		return err
	}
	live := liveTuples(st)
	if err := b.Close(); err != nil {
		return err
	}
	n, err := dirBytes(storeDir)
	if err != nil {
		return err
	}
	s.res.set("disk_bytes_per_tuple", float64(n)/float64(live), "B")
	return nil
}
