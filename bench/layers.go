package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"citare"
	"citare/internal/backend"
	"citare/internal/citegraph"
	"citare/internal/cq"
	"citare/internal/datalog"
	"citare/internal/eval"
	"citare/internal/lsm"
	"citare/internal/obs"
	"citare/internal/rewrite"
	"citare/internal/shard"
	"citare/internal/sqlfe"
	"citare/internal/storage"
)

// perLayer lists the per-layer metrics a traced run reports, with their
// units, in the order of README.md's table; BENCHMARK.json's per_layer is
// the same list (a test keeps them equal). A traced run reports all of
// them on every workload: a layer the workload's configuration does not
// contain reports 0. Times are means over the replayed sample unless the
// README says otherwise.
var perLayer = []struct{ name, unit string }{
	{"datalog.parse_us", "us"}, {"sqlfe.parse_us", "us"}, {"cq.cachekey_us", "us"},
	{"rewrite.enumerate_us", "us"}, {"rewrite.rewritings_per_query", "count"},
	{"eval.compile_us", "us"}, {"core.cite_cold_us", "us"},
	{"core.logical_plan_hit_ratio", "ratio"}, {"core.physical_plan_hit_ratio", "ratio"},

	{"cache.hit_ratio", "ratio"}, {"cache.hit_us", "us"}, {"cache.evictions", "count"},
	{"format.render_us", "us"}, {"format.citation_bytes", "B"},
	{"citesrv.edge_us", "us"}, {"citesrv.resp_bytes_per_op", "B"},

	{"eval.run_us", "us"}, {"eval.sharded_run_us", "us"}, {"eval.tuples_per_query", "count"},
	{"shard.scan_us", "us"}, {"shard.candidates_per_lookup", "count"}, {"shard.imbalance", "ratio"},
	{"core.cite_warm_us", "us"}, {"core.token_cache_hit_ratio", "ratio"},
	{"core.stream_us_per_tuple", "us"}, {"core.materialized_us_per_tuple", "us"},
	{"core.stage_parse_us", "us"}, {"core.stage_rewrite_us", "us"}, {"core.stage_compile_us", "us"},
	{"core.stage_views_us", "us"}, {"core.stage_eval_us", "us"}, {"core.stage_gather_us", "us"},
	{"core.stage_render_us", "us"}, {"core.unattributed_frac", "ratio"},

	{"lsm.lookup_us", "us"}, {"lsm.scan_us_per_ktuple", "us"},
	{"backend.snapshot_us", "us"}, {"backend.asof_us", "us"},
	{"storage.lookup_us", "us"}, {"storage.snapshot_us", "us"},

	{"lsm.insert_us", "us"}, {"lsm.commit_us", "us"}, {"lsm.flush_ms", "ms"}, {"lsm.compact_ms", "ms"},
	{"lsm.reopen_ms", "ms"}, {"lsm.entries_per_tuple", "ratio"}, {"lsm.wal_bytes_per_tuple", "B"},
	{"lsm.sst_bytes_per_tuple", "B"}, {"lsm.flushes", "count"}, {"lsm.compactions", "count"},
	{"core.reset_us", "us"},

	{"obs.trace_overhead_frac", "ratio"}, {"citesrv.trace_on_ops_ratio", "ratio"},
	{"citesrv.open1k_p99_ms", "ms"}, {"citesrv.open1k_late_frac", "ratio"},
}

// layerMetrics accumulates per-layer observations by metric name; a
// metric's value is the mean of its observations.
type layerMetrics map[string][]float64

func (m layerMetrics) add(name string, v float64) { m[name] = append(m[name], v) }

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// replayTarget is the in-process engine a traced run replays against, with
// what the layer probes need besides the Citer.
type replayTarget struct {
	cached *citare.CachedCiter
	schema *storage.Schema
	// snapshot returns a read view of the data in the workload's layout
	// (the view eval.Compile resolves relations against) and its release.
	snapshot func() (eval.DBView, func(), error)
	// plain is set on a sharded layout only: the same data unsharded. The
	// query is evaluated there too, so that eval.run_us stands beside
	// eval.sharded_run_us.
	plain *storage.DB
}

// replay is the state of one traced replay.
type replay struct {
	ctx   context.Context
	tr    *tracer
	lm    layerMetrics
	tg    replayTarget
	defs  []*cq.Query // the view definitions, for rewrite.Enumerate
	reqID int

	// The current epoch: the read view the eval probes resolve relations
	// against — taken once per epoch, as the engine does, so that the lazy
	// indexes built on it are reused — and the queries cited in it.
	view    eval.DBView
	release func()
	seen    map[string]bool

	// Pooled over the traced calls, for core.unattributed_frac and
	// obs.trace_overhead_frac.
	citeNs, stagesNs   int64
	tracedNs, plainNs  time.Duration
	streamTuples       int
	streamNs, matNs    time.Duration
	matTuplesForStream int
}

func newReplay(ctx context.Context, tr *tracer, lm layerMetrics, tg replayTarget) *replay {
	rp := &replay{ctx: ctx, tr: tr, lm: lm, tg: tg, seen: map[string]bool{}}
	for _, v := range tg.cached.Citer().Engine().Views() {
		rp.defs = append(rp.defs, v.Def)
	}
	return rp
}

// newEpoch follows a Reset of the engine: the next request takes a fresh
// read view and every query is cold again.
func (rp *replay) newEpoch() {
	if rp.release != nil {
		rp.release()
	}
	rp.view, rp.release, rp.seen = nil, nil, map[string]bool{}
}

// pure replays requests exactly as the server handles them — through the
// CachedCiter, shaping the wire response — and returns each /v1/cite
// request's latency. It is timed but not decomposed: the cache and
// plan-cache ratios the run reports are the ones this pass produces, and its
// median is the in-process side of citesrv.edge_us.
func (rp *replay) pure(reqs []wireRequest) (citeMS []float64, err error) {
	for _, rq := range reqs {
		t0 := time.Now()
		if rq.stream {
			err = rp.tg.cached.CiteEach(rp.ctx, rq.body.request(), func(citare.Tuple) error { return nil })
		} else {
			var ct *citare.Citation
			if ct, err = rp.tg.cached.Cite(rp.ctx, rq.body.request()); err == nil {
				_, err = encodeCitation(ct)
			}
		}
		if err != nil {
			return nil, fmt.Errorf("%v: %w", rq.body, err)
		}
		if !rq.stream {
			citeMS = append(citeMS, ms(time.Since(t0)))
		}
	}
	return citeMS, nil
}

// ratios records the hit ratios and counts the engine and cache counters
// show since the engine was built.
func (rp *replay) ratios() {
	eng := rp.tg.cached.Citer().Engine()
	cs := rp.tg.cached.CacheStats()
	rp.lm.add("cache.hit_ratio", ratio(float64(cs.Hits), float64(cs.Hits+cs.Misses)))
	rp.lm.add("cache.evictions", float64(cs.Evictions))
	lh, lmiss := eng.LogicalPlanStats()
	rp.lm.add("core.logical_plan_hit_ratio", ratio(float64(lh), float64(lh+lmiss)))
	ph, pm := eng.PhysicalPlanStats()
	rp.lm.add("core.physical_plan_hit_ratio", ratio(float64(ph), float64(ph+pm)))
	ts := eng.TokenCacheStats()
	rp.lm.add("core.token_cache_hit_ratio", ratio(float64(ts.Hits), float64(ts.Hits+ts.Misses)))
}

// one replays a single request with a span around every call into a layer.
// The calls run one after another under the request's root span, so the
// spans' self times add up to it.
func (rp *replay) one(rq wireRequest) error {
	id := rp.reqID
	rp.reqID++
	tr, lm, ctx := rp.tr, rp.lm, rp.ctx
	citer := rp.tg.cached.Citer()
	root := tr.begin(id, -1, "request")
	defer tr.end(root)
	var err error
	step := func(name string, fn func()) time.Duration {
		if err != nil {
			return 0
		}
		return tr.timed(id, root, name, fn)
	}

	// The front end, layer by layer.
	var q, min *cq.Query
	var key string
	parser := "datalog.parse"
	if rq.body.SQL != "" {
		parser = "sqlfe.parse"
	}
	lm.add(parser+"_us", us(step(parser, func() {
		if rq.body.SQL != "" {
			q, err = sqlfe.Parse(rp.tg.schema, rq.body.SQL)
		} else {
			q, err = datalog.ParseQuery(rq.body.Datalog)
		}
	})))
	lm.add("cq.cachekey_us", us(step("cq.cachekey", func() {
		norm, _, _ := q.NormalizeConstants()
		min = cq.Minimize(norm)
		key = min.CanonicalKey()
	})))
	var rws []*rewrite.Rewriting
	pol := citer.Engine().Policy()
	lm.add("rewrite.enumerate_us", us(step("rewrite.enumerate", func() {
		rws, err = rewrite.Enumerate(min, rp.defs, rewrite.Options{AllowPartial: pol.AllowPartial, MaxRewritings: pol.MaxRewritings})
	})))
	lm.add("rewrite.rewritings_per_query", float64(len(rws)))

	// Evaluation of the query itself against the layout's read view.
	if err == nil {
		if rp.view == nil {
			if rp.view, rp.release, err = rp.tg.snapshot(); err != nil {
				return err
			}
		}
		var plan *eval.Plan
		lm.add("eval.compile_us", us(step("eval.compile", func() { plan, err = eval.Compile(rp.view, min) })))
		var out *eval.Result
		run := "eval.run"
		if rp.tg.plain != nil {
			run = "eval.sharded_run"
		}
		lm.add(run+"_us", us(step(run, func() { out, err = plan.EvalCtx(ctx, eval.Options{Parallel: eval.Auto}) })))
		if err == nil {
			lm.add("eval.tuples_per_query", float64(len(out.Tuples)))
		}
		if rp.tg.plain != nil {
			lm.add("eval.run_us", us(step("eval.run", func() { _, err = eval.EvalOpts(rp.tg.plain, min, eval.Options{Parallel: eval.Auto}) })))
		}
	}

	// The pipeline as a whole: first and repeated citation in this epoch.
	req := rq.body.request()
	var ct *citare.Citation
	first := "core.cite_warm"
	if !rp.seen[key] {
		first, rp.seen[key] = "core.cite_cold", true
	}
	lm.add(first+"_us", us(step(first, func() { ct, err = citer.Cite(ctx, req) })))
	warm := step("core.cite_warm", func() { ct, err = citer.Cite(ctx, req) })
	lm.add("core.cite_warm_us", us(warm))
	tuples := 0
	each := step("core.cite_each", func() {
		err = citer.CiteEach(ctx, req, func(citare.Tuple) error { tuples++; return nil })
	})
	if err == nil && tuples > 0 {
		rp.streamNs, rp.streamTuples = rp.streamNs+each, rp.streamTuples+tuples
		rp.matNs, rp.matTuplesForStream = rp.matNs+warm, rp.matTuplesForStream+ct.NumTuples()
	}

	// The program's own account of where the time went: the Explain report
	// of a materialized request, the trailer's trace of a streamed one.
	var report *obs.Report
	traced := step("core.cite_traced", func() {
		otr := obs.NewTrace()
		octx := obs.NewContext(ctx, otr, obs.NoSpan)
		if rq.stream {
			err = citer.CiteEach(octx, req, func(citare.Tuple) error { return nil })
		} else {
			treq := req
			treq.Explain = true
			_, err = citer.Cite(octx, treq)
		}
		report = otr.Report()
	})
	if err == nil {
		rp.account(report)
		rp.tracedNs += traced
		if rq.stream {
			rp.plainNs += each
		} else {
			rp.plainNs += warm
		}
	}

	// The citation cache, the renderer and the response shaping.
	step("cache.cite", func() { _, err = rp.tg.cached.Cite(ctx, req) })
	lm.add("cache.hit_us", us(step("cache.hit", func() { _, err = rp.tg.cached.Cite(ctx, req) })))
	var rendered string
	lm.add("format.render_us", us(step("format.render", func() { rendered, err = ct.Rendered() })))
	lm.add("format.citation_bytes", float64(len(rendered)))
	step("citesrv.encode", func() { _, err = encodeCitation(ct) })
	if err != nil {
		return fmt.Errorf("replay %v: %w", rq.body, err)
	}
	return nil
}

// account adds one traced call's stage totals, and how much of its "cite"
// span no stage directly under it covers.
func (rp *replay) account(report *obs.Report) {
	totals := report.StageTotalsNs()
	for _, stage := range []string{obs.StageParse, obs.StageRewrite, obs.StageCompile, obs.StageViews, obs.StageEval, obs.StageGather, obs.StageRender} {
		rp.lm.add("core.stage_"+stage+"_us", float64(totals[stage])/1e3)
	}
	if cite := report.Find(obs.StageCite); cite != nil {
		rp.citeNs += cite.DurationNs
		for _, child := range cite.Children {
			rp.stagesNs += child.DurationNs
		}
	}
}

// finish turns the pooled sums into their metrics.
func (rp *replay) finish() {
	rp.lm.add("core.unattributed_frac", 1-ratio(float64(rp.stagesNs), float64(rp.citeNs)))
	rp.lm.add("obs.trace_overhead_frac", ratio(float64(rp.tracedNs-rp.plainNs), float64(rp.plainNs)))
	rp.lm.add("core.stream_us_per_tuple", ratio(us(rp.streamNs), float64(rp.streamTuples)))
	rp.lm.add("core.materialized_us_per_tuple", ratio(us(rp.matNs), float64(rp.matTuplesForStream)))
}

// probeBatch is how many calls one storage-probe span covers: the calls take
// well under a microsecond, less than reading the clock twice.
const probeBatch = 100

// probe times batches of a cheap call under their own request IDs and
// records the mean per call.
func (rp *replay) probe(metric string, batches int, call func(i int)) {
	for b := 0; b < batches; b++ {
		id := rp.reqID
		rp.reqID++
		d := rp.tr.timed(id, -1, fmt.Sprintf("%s/%d", metric, probeBatch), func() {
			for i := 0; i < probeBatch; i++ {
				call(b*probeBatch + i)
			}
		})
		rp.lm.add(metric, us(d)/probeBatch)
	}
}

// timedOnce runs one slow call (a flush, a compaction) under its own
// request ID and returns its duration.
func (rp *replay) timedOnce(name string, call func() error) (time.Duration, error) {
	id := rp.reqID
	rp.reqID++
	var err error
	d := rp.tr.timed(id, -1, name, func() { err = call() })
	return d, err
}

// storageProbes times the storage layer of a gtopdb layout: point lookups
// and snapshots on whichever stores the layout has.
func (rp *replay) storageProbes(p *inproc, families int, seed int64) {
	r := rand.New(rand.NewSource(seed*1_000_003 + 23))
	fids := make([]string, 20*probeBatch)
	for i := range fids {
		fids[i] = familyID(r.Intn(families))
	}
	sink := func(storage.Tuple) bool { return true }
	fidCol := []int{0}
	switch {
	case p.db != nil:
		rel := p.db.Snapshot().Relation("FC")
		rp.probe("storage.lookup_us", 20, func(i int) { rel.Lookup(fidCol, fids[i:i+1], sink) })
		rp.probe("storage.snapshot_us", 5, func(int) { p.db.Snapshot() })
	case p.sdb != nil:
		// Shard 0's part stands for the per-shard store.
		rel := p.sdb.Part(0).Snapshot().Relation("FC")
		rp.probe("storage.lookup_us", 20, func(i int) { rel.Lookup(fidCol, fids[i:i+1], sink) })
		rp.probe("storage.snapshot_us", 5, func(int) { p.sdb.Snapshot() })
		cands := 0
		rp.probe("shard.scan_us", 20, func(i int) {
			for _, si := range shardsFor(p.sdb, "FC", fidCol, fids[i:i+1]) {
				cands++
				_ = p.sdb.ShardScan(rp.ctx, si, "FC", fidCol, fids[i:i+1], sink) // fails only on a canceled ctx
			}
		})
		rp.lm.add("shard.candidates_per_lookup", float64(cands)/float64(20*probeBatch))
	case p.persist != nil:
		rp.lsmReadProbes(p.persist, "FC", fidCol, fids)
	}
}

func shardsFor(d *shard.DB, rel string, cols []int, vals []string) []int {
	if c := d.CandidateShards(rel, cols, vals); c != nil {
		return c
	}
	all := make([]int, d.NumShards())
	for i := range all {
		all[i] = i
	}
	return all
}

// imbalance is the busiest shard's operation count over the mean.
func imbalance(st shard.OpStats) float64 {
	total, most := 0.0, 0.0
	for _, s := range st.PerShard {
		n := float64(s.Scans + s.Lookups)
		total += n
		most = max(most, n)
	}
	return ratio(most*float64(len(st.PerShard)), total)
}

// lsmReadProbes times the LSM read path: backend snapshots, point lookups
// and a full scan through an LSM view.
func (rp *replay) lsmReadProbes(b *backend.LSM, rel string, cols []int, keys []string) {
	sink := func(storage.Tuple) bool { return true }
	release := func(v backend.View, err error) {
		if err == nil {
			v.Release()
		}
	}
	rp.probe("backend.snapshot_us", 5, func(int) { release(b.Snapshot()) })
	first := b.Versions()[0]
	rp.probe("backend.asof_us", 5, func(int) { release(b.AsOf(first)) })
	v, err := b.Snapshot()
	if err != nil {
		return
	}
	defer v.Release()
	rv := v.Relation(rel)
	rp.probe("lsm.lookup_us", len(keys)/probeBatch, func(i int) { rv.Lookup(cols, keys[i:i+1], sink) })
	n := 0
	d, _ := rp.timedOnce("lsm.scan", func() error {
		rv.Scan(func(storage.Tuple) bool { n++; return true })
		return nil
	})
	rp.lm.add("lsm.scan_us_per_ktuple", ratio(us(d)*1000, float64(n)))
}

// lsmWriteProbes times the LSM write path on a store that has been loaded:
// a flush, a compaction, a close and reopen, and the store's size per live
// tuple. reopen must open the store again and return it.
func (rp *replay) lsmWriteProbes(st *lsm.Store, closeStore func() error, reopen func() (*lsm.Store, error)) (*lsm.Store, error) {
	d, err := rp.timedOnce("lsm.flush", st.Flush)
	if err != nil {
		return nil, err
	}
	rp.lm.add("lsm.flush_ms", ms(d))
	if d, err = rp.timedOnce("lsm.compact", st.Compact); err != nil {
		return nil, err
	}
	rp.lm.add("lsm.compact_ms", ms(d))
	stats := st.Stats()
	live, entries, bytes := float64(liveTuples(st)), float64(stats.MemtableEntries), 0.0
	for _, l := range stats.Levels {
		entries += float64(l.Entries)
		bytes += float64(l.Bytes)
	}
	rp.lm.add("lsm.entries_per_tuple", ratio(entries, live))
	rp.lm.add("lsm.sst_bytes_per_tuple", ratio(bytes, live))
	rp.lm.add("lsm.flushes", float64(stats.Flushes))
	rp.lm.add("lsm.compactions", float64(stats.Compactions))
	if err := closeStore(); err != nil {
		return nil, err
	}
	d, err = rp.timedOnce("lsm.reopen", func() error {
		st, err = reopen()
		return err
	})
	rp.lm.add("lsm.reopen_ms", ms(d))
	return st, err
}

// timedLoad bulk-loads db into an empty LSM backend and commits it, timing
// the inserts (in batches), the commit, and the WAL bytes per tuple.
func (rp *replay) timedLoad(b *backend.LSM, db *storage.DB) error {
	var pending [][]string // relation name first
	for _, rs := range db.Schema().Relations() {
		db.Relation(rs.Name).Scan(func(t storage.Tuple) bool {
			pending = append(pending, append([]string{rs.Name}, t...))
			return true
		})
	}
	var err error
	wal0, flushes0 := b.Store().Stats().WALBytes, b.Store().Stats().Flushes
	rp.probe("lsm.insert_us", len(pending)/probeBatch, func(i int) {
		if err == nil {
			err = b.Insert(pending[i][0], pending[i][1:]...)
		}
		if i == 10*probeBatch-1 {
			// WAL bytes per tuple over the first thousand inserts, before
			// any flush can have truncated the log.
			if st := b.Store().Stats(); st.Flushes == flushes0 {
				rp.lm.add("lsm.wal_bytes_per_tuple", float64(st.WALBytes-wal0)/float64(i+1))
			}
		}
	})
	for _, row := range pending[len(pending)/probeBatch*probeBatch:] {
		if err == nil {
			err = b.Insert(row[0], row[1:]...)
		}
	}
	if err != nil {
		return err
	}
	d, err := rp.timedOnce("lsm.commit", func() error {
		_, err := b.Commit("initial load")
		return err
	})
	rp.lm.add("lsm.commit_us", us(d))
	return err
}

// runTraced is the traced run of any workload: the per-layer metrics.
func runTraced(ctx context.Context, cfg runConfig) (*result, error) {
	res := newResult(cfg)
	tr := newTracer()
	lm := layerMetrics{}
	var err error
	if w, ok := servedWorkloads[cfg.workload]; ok {
		err = tracedServed(ctx, cfg, w, res, tr, lm)
	} else {
		err = tracedVersioned(ctx, cfg, res, tr, lm)
	}
	if err != nil {
		return nil, err
	}
	for _, m := range perLayer {
		res.set(m.name, mean(lm[m.name]), m.unit)
	}
	// The span file must load back and its accounting must hold.
	if err := tr.write(cfg.spanFile, cfg.workload, cfg.seed); err != nil {
		return nil, err
	}
	res.SpanFile = cfg.spanFile
	res.Counts["spans"] = len(tr.spans)
	loaded, err := loadSpans(cfg.spanFile)
	if err == nil {
		_, err = selfTimes(loaded.Spans)
	}
	bad := 0
	if err != nil {
		bad = 1
	}
	res.check("span_file_accounting", 1, bad, err)
	res.finish()
	return res, nil
}

// tracedServed replays a sample of a served workload in process, in the
// server's layout, then probes the HTTP edge with real servers.
func tracedServed(ctx context.Context, cfg runConfig, w servedWorkload, res *result, tr *tracer, lm layerMetrics) error {
	s := &served{cfg: cfg, w: w, res: res}
	var err error
	if s.dir, err = os.MkdirTemp(cfg.tmp, cfg.workload+"-traced-"); err != nil {
		return err
	}
	defer os.RemoveAll(s.dir)
	if err := s.generate(); err != nil {
		return err
	}
	storeDir := filepath.Join(s.dir, "store")
	p, err := openInproc(w.layout, s.db, storeDir)
	if err != nil {
		return err
	}
	defer func() { p.close() }()
	rp := newReplay(ctx, tr, lm, p.target())
	if p.persist != nil {
		if err := rp.timedLoad(p.persist, s.db); err != nil {
			return err
		}
		if err := p.citer.Invalidate(); err != nil {
			return err
		}
	}

	// The sample: what the workload's first worker would send, the warm-up
	// included (for browse-shard4 that is the cold pass over the working
	// set, here a fifth of the untraced run's). The pure pass takes the
	// first part; the decomposed pass goes on from there for its share of
	// the run's seconds.
	next := s.sources()
	var sample []wireRequest
	n := pureSample
	if w.browse {
		for _, q := range s.working {
			sample = append(sample, wireRequest{body: q})
		}
		n = pureSample / 8 // a browse request costs a hundred point lookups
	}
	for i := 0; i < n; i++ {
		sample = append(sample, next[0]())
	}
	done := res.phase("replay")
	pureMS, err := rp.pure(sample)
	if err != nil {
		return err
	}
	rp.ratios()
	res.check("pure_replayed", len(sample), 0, nil)
	if p.sdb != nil {
		lm.add("shard.imbalance", imbalance(p.sdb.OpStats()))
	}
	// A new epoch, so that the decomposed pass sees its queries for the
	// first time in an epoch, as the pure pass did.
	resetD, err := rp.timedOnce("core.reset", p.citer.Invalidate)
	if err != nil {
		return err
	}
	lm.add("core.reset_us", us(resetD))
	rp.newEpoch()
	until := time.Now().Add(s.share(replayShare))
	n = 0
	for ; n < minDecomposed || time.Now().Before(until); n++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := rp.one(next[0]()); err != nil {
			return err
		}
	}
	rp.finish()
	rp.newEpoch() // releases the read view before the store is closed
	res.check("decomposed", n, 0, nil)
	rp.storageProbes(p, cfg.sc.gtopdb.Families, cfg.seed)
	if p.persist != nil {
		st, err := rp.lsmWriteProbes(p.persist.Store(), p.persist.Close, func() (*lsm.Store, error) {
			b, err := backend.OpenLSM(storeDir, s.db.Schema(), lsm.Options{})
			if err != nil {
				return nil, err
			}
			p.persist = b
			return b.Store(), nil
		})
		if err != nil {
			return err
		}
		res.Counts["live_tuples_after_reopen"] = liveTuples(st)
	}
	done()
	return s.wireProbes(ctx, sample, pureMS, lm)
}

const (
	// pureSample is the size of the pure pass's sample.
	pureSample = 1500
	// minDecomposed is the least number of requests the decomposed pass
	// replays, whatever its time share.
	minDecomposed = 20
	// replayShare of the run's seconds goes to the decomposed pass;
	// probeShare goes to each of the three wire-probe windows.
	replayShare = 0.35
	probeShare  = 0.15
)

// target adapts an in-process engine to the replay.
func (p *inproc) target() replayTarget {
	tg := replayTarget{cached: p.citer}
	switch {
	case p.db != nil:
		tg.schema = p.db.Schema()
		tg.snapshot = func() (eval.DBView, func(), error) { return eval.DBViewOf(p.db.Snapshot()), func() {}, nil }
	case p.sdb != nil:
		tg.schema, tg.plain = p.sdb.Schema(), p.plain
		tg.snapshot = func() (eval.DBView, func(), error) { return p.sdb.Snapshot(), func() {}, nil }
	default:
		b := p.persist
		tg.schema = b.Schema()
		tg.snapshot = func() (eval.DBView, func(), error) {
			v, err := b.Snapshot()
			if err != nil {
				return nil, nil, err
			}
			return v, v.Release, nil
		}
	}
	return tg
}

// wireProbes measures what only a real server shows: the HTTP edge (the
// wire median of the sample minus the in-process median), the cost of
// citesrv's default per-request tracing (closed-loop throughput with the
// default -slow-threshold over throughput with 0), and an open loop at a
// fixed thousand requests per second, latency counted from each request's
// due time.
func (s *served) wireProbes(ctx context.Context, sample []wireRequest, pureMS []float64, lm layerMetrics) error {
	defer s.res.phase("wire_probes")()
	window := s.share(probeShare)
	quiet, err := startServer(ctx, s.cfg.citesrv, s.w.layout.serverArgs(s.csvDir, filepath.Join(s.dir, "wire-0"), false)...)
	if err != nil {
		return err
	}
	defer quiet.stop()
	c := newClient(quiet.base)
	defer c.close()
	i := 0
	edge := closedLoop(ctx, c, []func() wireRequest{func() wireRequest {
		i++
		return sample[i-1]
	}}, time.Time{}, len(sample))
	bad, ferr := edge.failed()
	s.res.check("edge_ops", edge.ops(), bad, ferr)
	var wireMS []float64
	for _, r := range edge.recs() {
		if !r.stream {
			wireMS = append(wireMS, ms(r.lat))
		}
	}
	lm.add("citesrv.edge_us", (percentile(wireMS, 50)-percentile(pureMS, 50))*1000)
	lm.add("citesrv.resp_bytes_per_op", ratio(float64(edge.respBytes()), float64(edge.ops())))

	next := s.sources()
	off := closedLoop(ctx, c, next, time.Now().Add(window), 0)
	bad, ferr = off.failed()
	s.res.check("trace_off_ops", off.ops(), bad, ferr)

	if !s.w.browse {
		// Not on browse-shard4: a thousand of its requests a second is more
		// than twice what the server completes, and the backlog of 60 KB
		// answers is held in its memory.
		p99, late, n, failed, oerr := openLoop(ctx, c, next[0], 1000, window)
		s.res.check("open_loop_ops", n, failed, oerr)
		lm.add("citesrv.open1k_p99_ms", p99)
		lm.add("citesrv.open1k_late_frac", late)
	}
	c.close()
	quiet.stop()

	// The same closed loop against a server that traces every request.
	tracing, err := startServer(ctx, s.cfg.citesrv, s.w.layout.serverArgs(s.csvDir, filepath.Join(s.dir, "wire-1"), true)...)
	if err != nil {
		return err
	}
	defer tracing.stop()
	tc := newClient(tracing.base)
	defer tc.close()
	warm := closedLoop(ctx, tc, next, time.Now().Add(s.share(warmupShare)/2), 0)
	on := closedLoop(ctx, tc, next, time.Now().Add(window), 0)
	bad, ferr = on.failed()
	wbad, _ := warm.failed()
	s.res.check("trace_on_ops", on.ops()+warm.ops(), bad+wbad, ferr)
	lm.add("citesrv.trace_on_ops_ratio", ratio(float64(on.ops())/on.elapsed.Seconds(), float64(off.ops())/off.elapsed.Seconds()))
	return ctx.Err()
}

// openLoop sends requests on a fixed schedule, rate per second for d,
// whether or not earlier ones have been answered. A request's latency counts
// from the instant it was due, so time it spent waiting for a free sender
// is included; late is the share of requests that left more than a
// millisecond after they were due — how far the generator itself fell
// behind.
func openLoop(ctx context.Context, c *client, next func() wireRequest, rate int, d time.Duration) (p99MS, lateFrac float64, n, failed int, firstErr error) {
	const senders = 64 // more requests in flight than any healthy server leaves unanswered
	type job struct {
		due time.Time
		req wireRequest
	}
	jobs := make(chan job, senders)
	var mu sync.Mutex
	var lat []float64
	late := 0
	var wg sync.WaitGroup
	for i := 0; i < senders; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for j := range jobs {
				lag := time.Since(j.due)
				_, err := c.do(ctx, j.req, &buf)
				total := time.Since(j.due)
				mu.Lock()
				if err != nil {
					failed++
					if firstErr == nil {
						firstErr = err
					}
				} else {
					lat = append(lat, ms(total))
				}
				if lag > time.Millisecond {
					late++
				}
				mu.Unlock()
			}
		}()
	}
	start := time.Now()
	interval := time.Second / time.Duration(rate)
	for ; ctx.Err() == nil; n++ {
		due := start.Add(time.Duration(n) * interval)
		if due.Sub(start) >= d {
			break
		}
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		jobs <- job{due: due, req: next()}
	}
	close(jobs)
	wg.Wait()
	return percentile(lat, 99), ratio(float64(late), float64(n)), n, failed, firstErr
}

// tracedVersioned replays versioned-rw's read cycle in process with spans
// and times the write path around it.
func tracedVersioned(ctx context.Context, cfg runConfig, res *result, tr *tracer, lm layerMetrics) error {
	graph := cfg.sc.graph
	graph.Seed = cfg.seed
	dir, err := os.MkdirTemp(cfg.tmp, cfg.workload+"-traced-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	db := citegraph.Generate(graph)
	res.Counts["tuples"] = tupleCount(db)
	store, err := openGraphStore(filepath.Join(dir, "store"), graph)
	if err != nil {
		return err
	}
	defer func() { store.back.Close() }()
	cached := citare.NewCached(store.citer)
	tg := replayTarget{cached: cached, schema: store.back.Schema(), snapshot: func() (eval.DBView, func(), error) {
		v, err := store.back.Snapshot()
		if err != nil {
			return nil, nil, err
		}
		return v, v.Release, nil
	}}
	rp := newReplay(ctx, tr, lm, tg)
	defer res.phase("replay")()
	if err := rp.timedLoad(store.back, db); err != nil {
		return err
	}
	if err := cached.Invalidate(); err != nil {
		return err
	}

	cycle := readCycle(graph, cfg.seed, 0)
	var sample []wireRequest
	for _, read := range cycle {
		sample = append(sample, wireRequest{body: citeBody{Datalog: read.query}})
	}
	if _, err := rp.pure(sample); err != nil {
		return err
	}
	rp.ratios()
	res.check("pure_replayed", len(sample), 0, nil)

	// The decomposed pass, with a curator commit after every commitEvery-th
	// read as in the workload: each Reset starts a new epoch.
	curator := rand.New(rand.NewSource(cfg.seed*1_000_003 + 11))
	zipf := rand.NewZipf(curator, graph.ZipfS, graph.ZipfV, uint64(graph.Works-1))
	nextWork := graph.Works
	until := time.Now().Add(time.Duration(replayShare * cfg.seconds * float64(time.Second)))
	n := 0
	for ; n < minDecomposed || time.Now().Before(until); n++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := rp.one(sample[n%len(sample)]); err != nil {
			return err
		}
		if n%commitEvery != commitEvery-1 {
			continue
		}
		batch := 0
		d, err := rp.timedOnce("lsm.insert_batch", func() error {
			return workBatch(graph, curator, zipf, nextWork, cfg.sc.commitWorks, func(rel string, vals ...string) error {
				batch++
				return store.back.Insert(rel, vals...)
			})
		})
		if err != nil {
			return err
		}
		nextWork += cfg.sc.commitWorks
		lm.add("lsm.insert_us", ratio(us(d), float64(batch)))
		if d, err = rp.timedOnce("lsm.commit", func() error {
			_, err := store.back.Commit(fmt.Sprintf("batch-%d", nextWork))
			return err
		}); err != nil {
			return err
		}
		lm.add("lsm.commit_us", us(d))
		if d, err = rp.timedOnce("core.reset", cached.Invalidate); err != nil {
			return err
		}
		lm.add("core.reset_us", us(d))
		rp.newEpoch()
	}
	rp.finish()
	rp.newEpoch() // releases the read view before the store is closed
	res.check("decomposed", n, 0, nil)

	keys := make([]string, 20*probeBatch)
	for i := range keys {
		keys[i] = citegraph.WorkID(int(zipf.Uint64()))
	}
	rp.lsmReadProbes(store.back, "Cites", []int{1}, keys)
	_, err = rp.lsmWriteProbes(store.back.Store(), store.back.Close, func() (*lsm.Store, error) {
		reopened, err := openGraphStore(filepath.Join(dir, "store"), graph)
		if err != nil {
			return nil, err
		}
		store = reopened
		return store.back.Store(), nil
	})
	return err
}
