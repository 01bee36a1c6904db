package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"citare"
	"citare/internal/backend"
	"citare/internal/citegraph"
	"citare/internal/lsm"
	"citare/internal/storage"
)

// versioned-rw drives the write and time-travel path, which has no HTTP
// endpoint, through the citare facade: an LSM-backed Citer over a citegraph
// instance, two closed-loop workers reading a Zipf-skewed query mix — most
// reads at the head, some pinned to an old version through Citer.AsOf — while
// worker 0 follows every commitEvery-th of its reads with a curator commit.
//
// The reads come in cycles of fixed composition (see readCycle): a read of
// the hottest work costs a thousand resolutions of a tail work, so were the
// mix drawn per operation, how often the draw hit the head would decide the
// window's throughput. Each worker repeats its cycle; the cycle is also the
// slice the window's metrics are taken over.
const (
	cycleReads  = 100 // reads per cycle
	commitEvery = 25  // worker 0 commits after every 25th read
	pinnedCount = 4   // versions committed before the window and pinned
	// recheckPairs bounds how many (version, query) pairs each fixity
	// re-check asks again — every pair seen again during the window is
	// compared as it comes; the re-checks after the window and after the
	// reopen take an even sample of all pairs, because the run's time cap
	// does not cover a second evaluation of everything.
	recheckPairs = 60
)

// versionedMix tames citegraph's default mix: its hot-key co-citation and
// chain joins take over half a second each at this scale and would be the
// whole run.
var versionedMix = citegraph.MixWeights{Resolution: 60, Incoming: 25, AuthorProv: 10, VenueRollup: 5}

func graphOptions() []citare.Option {
	return []citare.Option{citare.WithNeutralCitation(citegraph.DatasetCitation())}
}

// graphStore is the opened store with its head Citer.
type graphStore struct {
	back  *backend.LSM
	citer *citare.Citer
}

func openGraphStore(dir string, cfg citegraph.Config) (*graphStore, error) {
	b, err := backend.OpenLSM(dir, citegraph.Schema(cfg), lsm.Options{})
	if err != nil {
		return nil, err
	}
	c, err := citare.NewBackend(b, citegraph.MustViews(), graphOptions()...)
	if err != nil {
		b.Close()
		return nil, err
	}
	return &graphStore{back: b, citer: c}, nil
}

// plannedRead is one read of a cycle.
type plannedRead struct {
	query  string
	pinned int  // index of the pinned version to read as of; -1 reads the head
	aside  bool // a read after a commit, see opRec.aside
}

// zipfRanks returns n work ranks that follow the instance's popularity law
// P(k) ∝ (v+k)^-s exactly: the inverse of its cumulative distribution taken
// at n evenly spaced points, not n draws from it.
func zipfRanks(cfg citegraph.Config, n int) []int {
	cum := make([]float64, cfg.Works)
	total := 0.0
	for k := range cum {
		total += math.Pow(cfg.ZipfV+float64(k), -cfg.ZipfS)
		cum[k] = total
	}
	out := make([]int, n)
	for j := range out {
		u := (float64(j) + 0.5) / float64(n) * total
		out[j] = sort.SearchFloat64s(cum, u)
	}
	return out
}

// readCycle builds one worker's cycle. Everything that decides a read's cost
// is fixed: the kinds come in the shares of versionedMix, the works of each
// work-keyed kind are spread over the popularity law by zipfRanks (every
// cycle reads the hottest works equally often), and which reads are pinned to
// an old version follows a read's position in its kind's list. The seed picks
// the authors and venues and shuffles the order.
func readCycle(cfg citegraph.Config, seed int64, worker int) []plannedRead {
	r := rand.New(rand.NewSource(seed*1_000_003 + int64(worker)*7919 + 13))
	total := versionedMix.Resolution + versionedMix.Incoming + versionedMix.AuthorProv + versionedMix.VenueRollup
	var cycle []plannedRead
	// add appends n reads of one kind; every seventh (≈15%) is pinned to an
	// old version.
	add := func(n int, query func(j int) string) {
		for j := 0; j < n; j++ {
			read := plannedRead{query: query(j), pinned: -1}
			if j%7 == 3 {
				read.pinned = j % pinnedCount
			}
			cycle = append(cycle, read)
		}
	}
	n := cycleReads * versionedMix.Resolution / total
	ranks := zipfRanks(cfg, n)
	add(n, func(j int) string { return citegraph.ResolutionQuery(citegraph.WorkID(ranks[j])) })
	n = cycleReads * versionedMix.Incoming / total
	incoming := zipfRanks(cfg, n)
	add(n, func(j int) string { return citegraph.IncomingQuery(citegraph.WorkID(incoming[j])) })
	add(cycleReads*versionedMix.AuthorProv/total, func(int) string {
		return citegraph.AuthorProvenanceQuery(citegraph.AuthorID(r.Intn(cfg.Authors)))
	})
	add(cycleReads-len(cycle), func(int) string {
		return citegraph.VenueRollupQuery(citegraph.VenueID(r.Intn(cfg.Venues)))
	})
	r.Shuffle(len(cycle), func(i, j int) { cycle[i], cycle[j] = cycle[j], cycle[i] })
	return cycle
}

// sightingKey names one citation the run has seen: a query as of a version.
type sightingKey struct {
	version uint64
	query   string
}

// fixity remembers the citation of every (version, query) pair seen. A pair
// seen again must hash the same — the paper's fixity requirement.
type fixity struct {
	mu       sync.Mutex
	seen     map[sightingKey][sha256.Size]byte
	checked  int
	mismatch int
	first    error
}

func (f *fixity) observe(k sightingKey, sum [sha256.Size]byte) {
	f.mu.Lock()
	defer f.mu.Unlock()
	prev, ok := f.seen[k]
	if !ok {
		f.seen[k] = sum
		return
	}
	f.checked++
	if prev != sum {
		f.mismatch++
		if f.first == nil {
			f.first = fmt.Errorf("citation of %q at version %d changed", k.query, k.version)
		}
	}
}

// citeHash evaluates one query and hashes its citation.
func citeHash(ctx context.Context, c *citare.Citer, query string) (sum [sha256.Size]byte, tuples int, err error) {
	ct, err := c.Cite(ctx, citare.Request{Datalog: query})
	if err != nil {
		return sum, 0, err
	}
	raw, err := encodeCitation(ct)
	return sha256.Sum256(raw), ct.NumTuples(), err
}

// versionedRun is the state of one versioned-rw run.
type versionedRun struct {
	cfg   runConfig
	graph citegraph.Config
	res   *result
	store *graphStore
	// pinned are the AsOf Citers of the versions committed before the window.
	pinned   []*citare.Citer
	pinnedAt []uint64
	fix      *fixity

	// The head's version as readers may assume it: headSeq is odd while a
	// commit is being published, and headSeq/2 indexes headVersions. A read
	// that saw the same even headSeq before and after ran entirely against
	// that version.
	headSeq      atomic.Uint64
	headMu       sync.Mutex
	headVersions []uint64

	// The curator's state (worker 0 only).
	curator  *rand.Rand
	zipf     *rand.Zipf
	nextWork int
}

func runVersioned(ctx context.Context, cfg runConfig) (*result, error) {
	v := &versionedRun{cfg: cfg, graph: cfg.sc.graph, res: newResult(cfg), fix: &fixity{seen: map[sightingKey][sha256.Size]byte{}}}
	v.graph.Seed = cfg.seed
	dir, err := os.MkdirTemp(cfg.tmp, cfg.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	done := v.res.phase("generate")
	db := citegraph.Generate(v.graph)
	v.res.Counts["tuples"] = tupleCount(db)
	done()
	v.curator = rand.New(rand.NewSource(cfg.seed*1_000_003 + 11))
	v.zipf = rand.NewZipf(v.curator, v.graph.ZipfS, v.graph.ZipfV, uint64(v.graph.Works-1))
	v.nextWork = v.graph.Works

	// Set-up: open an empty store, bulk-load the instance, commit it, build
	// the Citer and answer one query. Repeated on fresh directories; the
	// last store is the one measured.
	var setups []float64
	storeDir := ""
	defer func() {
		if v.store != nil {
			v.store.back.Close()
		}
	}()
	done = v.res.phase("setup")
	for i := 0; i < cfg.sc.setups; i++ {
		if v.store != nil {
			if err := v.store.back.Close(); err != nil {
				return nil, err
			}
		}
		storeDir = filepath.Join(dir, fmt.Sprintf("store-%d", i))
		t0 := time.Now()
		if v.store, err = v.setUp(ctx, storeDir, db); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	done()
	v.res.set("setup_s", median(setups), "s")
	for i, s := range setups {
		v.res.Extra[fmt.Sprintf("setup_%d_s", i)] = s
	}

	if err := v.pinVersions(ctx); err != nil {
		return nil, err
	}
	v.window(ctx)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := v.recheck(ctx, "recheck"); err != nil {
		return nil, err
	}

	// Quiesce: flush and compact, measure the store, then reopen it and ask
	// everything once more.
	st := v.store.back.Store()
	if err := st.Flush(); err != nil {
		return nil, err
	}
	if err := st.Compact(); err != nil {
		return nil, err
	}
	stats := st.Stats()
	if raw, err := json.Marshal(stats); err == nil {
		v.res.Attachments["lsm_stats"] = string(raw)
	}
	live := liveTuples(st)
	if err := v.store.back.Close(); err != nil {
		return nil, err
	}
	v.store = nil
	n, err := dirBytes(storeDir)
	if err != nil {
		return nil, err
	}
	v.res.set("disk_bytes_per_tuple", float64(n)/float64(live), "B")
	v.res.Counts["flushes"] = int(stats.Flushes)
	v.res.Counts["compactions"] = int(stats.Compactions)
	if v.store, err = openGraphStore(storeDir, v.graph); err != nil {
		return nil, fmt.Errorf("reopen: %w", err)
	}
	if err := v.repin(); err != nil {
		return nil, err
	}
	if err := v.recheck(ctx, "recheck_reopened"); err != nil {
		return nil, err
	}
	v.res.check("fixity_repeats", v.fix.checked, v.fix.mismatch, v.fix.first)
	v.res.finish()
	return v.res, nil
}

func (v *versionedRun) setUp(ctx context.Context, dir string, db *storage.DB) (*graphStore, error) {
	s, err := openGraphStore(dir, v.graph)
	if err != nil {
		return nil, err
	}
	if err := seedBackend(s.back, db); err != nil {
		s.back.Close()
		return nil, err
	}
	if err := s.citer.Reset(); err != nil {
		s.back.Close()
		return nil, err
	}
	if _, err := s.citer.Cite(ctx, citare.Request{Datalog: citegraph.ResolutionQuery(citegraph.HotWork())}); err != nil {
		s.back.Close()
		return nil, err
	}
	return s, nil
}

// commit applies one curator batch and publishes it: the version is citable
// once Reset returns.
func (v *versionedRun) commit() error {
	if err := workBatch(v.graph, v.curator, v.zipf, v.nextWork, v.cfg.sc.commitWorks, v.store.back.Insert); err != nil {
		return err
	}
	v.nextWork += v.cfg.sc.commitWorks
	version, err := v.store.back.Commit(fmt.Sprintf("batch-%d", v.nextWork))
	if err != nil {
		return err
	}
	v.headSeq.Add(1) // odd: readers stop attributing reads to a version
	err = v.store.citer.Reset()
	v.headMu.Lock()
	v.headVersions = append(v.headVersions, version)
	v.headMu.Unlock()
	v.headSeq.Add(1)
	return err
}

// afterCommit lists the reads that follow a commit: the newest work's record
// and references, and one author's and one venue's page — one query per
// kind, so that together they touch every view.
func (v *versionedRun) afterCommit() []string {
	newest := citegraph.WorkID(v.nextWork - 1)
	return []string{
		citegraph.ResolutionQuery(newest), citegraph.IncomingQuery(newest),
		citegraph.AuthorProvenanceQuery(citegraph.AuthorID(0)), citegraph.VenueRollupQuery(citegraph.VenueID(0)),
	}
}

func (v *versionedRun) headVersion(seq uint64) uint64 {
	v.headMu.Lock()
	defer v.headMu.Unlock()
	return v.headVersions[seq/2]
}

// pinVersions commits until pinnedCount versions exist (the bulk load was
// the first) and pins a Citer to each.
func (v *versionedRun) pinVersions(ctx context.Context) error {
	defer v.res.phase("warmup")()
	v.headVersions = []uint64{v.store.back.Versions()[0]}
	for len(v.store.back.Versions()) < pinnedCount {
		if err := v.commit(); err != nil {
			return err
		}
	}
	v.pinnedAt = append([]uint64(nil), v.store.back.Versions()[:pinnedCount]...)
	if err := v.repin(); err != nil {
		return err
	}
	// Warm-up, unmeasured: one query of each kind on the head and on every
	// pinned engine materializes all four views there.
	for _, q := range v.afterCommit() {
		for _, c := range append([]*citare.Citer{v.store.citer}, v.pinned...) {
			if _, err := c.Cite(ctx, citare.Request{Datalog: q}); err != nil {
				return fmt.Errorf("warm-up %q: %w", q, err)
			}
		}
	}
	return nil
}

func (v *versionedRun) repin() error {
	v.pinned = v.pinned[:0]
	for _, version := range v.pinnedAt {
		c, err := v.store.citer.AsOf(version)
		if err != nil {
			return fmt.Errorf("pin version %d: %w", version, err)
		}
		v.pinned = append(v.pinned, c)
	}
	return nil
}

// window is the measured closed loop: each worker repeats its cycle until
// the time is up; the cycles completed by then are the window's slices.
func (v *versionedRun) window(ctx context.Context) {
	defer v.res.phase("window")()
	type workerLog struct {
		lane     lane
		failed   int
		firstErr error
	}
	logs := make([]*workerLog, workers)
	start := time.Now()
	until := start.Add(time.Duration(v.cfg.seconds * float64(time.Second)))
	cpu0, cpuErr := procCPUSeconds(os.Getpid())
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		l := &workerLog{lane: lane{bounds: []time.Duration{0}}}
		logs[w] = l
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cycle := readCycle(v.graph, v.cfg.seed, w)
			fail := func(err error) {
				l.failed++
				if l.firstErr == nil {
					l.firstErr = err
				}
			}
			// do performs one read and returns its tuple count, -1 if it failed.
			do := func(read plannedRead) (tuples int) {
				citer, key := v.store.citer, sightingKey{query: read.query}
				if read.pinned >= 0 {
					citer, key.version = v.pinned[read.pinned], v.pinnedAt[read.pinned]
				}
				seq := v.headSeq.Load()
				t0 := time.Now()
				sum, tuples, err := citeHash(ctx, citer, read.query)
				rec := opRec{end: time.Since(start), lat: time.Since(t0), aside: read.aside}
				if err != nil {
					fail(fmt.Errorf("%q: %w", read.query, err))
					return -1
				}
				l.lane.recs = append(l.lane.recs, rec)
				// A head read that overlapped a publish ran against a version
				// that cannot be told; it is not a sighting.
				if read.pinned >= 0 {
					v.fix.observe(key, sum)
				} else if seq%2 == 0 && v.headSeq.Load() == seq {
					key.version = v.headVersion(seq)
					v.fix.observe(key, sum)
				}
				return tuples
			}
			for i := 0; ctx.Err() == nil && time.Now().Before(until); i++ {
				do(cycle[i%cycleReads])
				if w == 0 && i%commitEvery == commitEvery-1 {
					t0 := time.Now()
					if err := v.commit(); err != nil {
						fail(err)
					} else {
						l.lane.recs = append(l.lane.recs, opRec{end: time.Since(start), lat: time.Since(t0), commit: true})
					}
					// The curator looks at the release: one read of each
					// kind. Reset left the head's views to be materialized
					// again; these reads pay for it, every time, instead of
					// whichever reads the shuffle put next. The first of them is
					// the newest work's record: committed must mean citable.
					for j, q := range v.afterCommit() {
						if do(plannedRead{query: q, pinned: -1, aside: true}) == 0 && j == 0 {
							fail(fmt.Errorf("%q: the work just committed is not citable", q))
						}
					}
				}
				if i%cycleReads == cycleReads-1 {
					l.lane.bounds = append(l.lane.bounds, time.Since(start))
				}
			}
		}(w)
	}
	wg.Wait()
	cpu1, _ := procCPUSeconds(os.Getpid())
	if cpuErr != nil {
		v.res.Errors = append(v.res.Errors, "cpu: "+cpuErr.Error())
	}

	var lanes []lane
	ops, failed := 0, 0
	var firstErr error
	for _, l := range logs {
		lanes = append(lanes, l.lane)
		ops += len(l.lane.recs)
		failed += l.failed
		if firstErr == nil {
			firstErr = l.firstErr
		}
	}
	st := summarize(lanes...)
	v.res.check("main_ops", ops+failed, failed, firstErr)
	v.res.set("ops_per_s", st.opsPerS, "1/s")
	v.res.set("p50_ms", st.p50MS, "ms")
	v.res.set("p99_ms", st.p99MS, "ms")
	v.res.set("cpu_ms_per_op", ratio((cpu1-cpu0)*1000, float64(ops)), "ms")
	// Nothing is streamed here: the first tuple of a materialized answer
	// arrives with the whole of it, one answer per operation.
	v.res.standIn("stream_ttft_p50_ms", st.p50MS, "ms")
	v.res.standIn("stream_tuples_per_s", st.opsPerS, "1/s")
	v.res.set("commit_p50_ms", st.commitP50MS, "ms")
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		v.res.set("peak_rss_mb", float64(ru.Maxrss)/1024, "MB")
	}
	v.res.Counts["slices"] = st.slices
	v.res.Series["cycle_ops_per_s"] = st.sliceOpsPerS
	v.res.Counts["samples_beyond_p99"] = st.beyondP99
	v.res.Counts["commits"] = st.commits
}

// recheck asks an even sample of the pairs seen on a pinned version or on
// the last head version again, through AsOf Citers of the currently open
// store, and requires the same citation hash.
func (v *versionedRun) recheck(ctx context.Context, kind string) error {
	defer v.res.phase(kind)()
	citers := map[uint64]*citare.Citer{}
	for i, version := range v.pinnedAt {
		citers[version] = v.pinned[i]
	}
	last := v.headVersions[len(v.headVersions)-1]
	if citers[last] == nil {
		c, err := v.store.citer.AsOf(last)
		if err != nil {
			return fmt.Errorf("%s: version %d: %w", kind, last, err)
		}
		citers[last] = c
	}
	var keys []sightingKey
	for k := range v.fix.seen { // the workers have finished: no lock needed
		if citers[k.version] != nil {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.version != b.version {
			return a.version < b.version
		}
		return a.query < b.query
	})
	step := max(1, len(keys)/recheckPairs)
	n, bad := 0, 0
	var first error
	for i := 0; i < len(keys); i += step {
		if err := ctx.Err(); err != nil {
			return err
		}
		k := keys[i]
		n++
		sum, _, err := citeHash(ctx, citers[k.version], k.query)
		if err == nil && sum != v.fix.seen[k] {
			err = fmt.Errorf("citation of %q as of version %d changed", k.query, k.version)
		}
		if err != nil {
			bad++
			if first == nil {
				first = err
			}
		}
	}
	v.res.check(kind, n, bad, first)
	return nil
}
