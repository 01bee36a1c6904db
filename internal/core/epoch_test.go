package core_test

// Epoch-stability tests: a citation computed at epoch E reads the snapshot
// taken at E and is unchanged by any later write — to the live database
// (until Reset) or to the versioned store whose committed version the
// engine is pinned to. An epoch is a snapshot and a plan cache and nothing
// else: Reset costs O(relations), and requests of one epoch share no lock.

import (
	"fmt"
	"strconv"
	"sync"
	"testing"
	"time"

	"citare/internal/backend"
	"citare/internal/core"
	"citare/internal/eval"
	"citare/internal/gtopdb"
	"citare/internal/lsm"
	"citare/internal/shard"
	"citare/internal/storage"
)

// citeJSON cites a datalog query and renders the aggregated citation.
func citeJSON(t *testing.T, e *core.Engine, src string) (rows int, citation string) {
	t.Helper()
	res, err := e.Cite(mustQuery(t, src))
	if err != nil {
		t.Fatal(err)
	}
	return len(res.Tuples), res.Citation.JSON()
}

// TestEpochUnchangedByLaterWrites: reads at the engine's current epoch are
// fixed until Reset publishes a new snapshot — for the plain and the
// sharded engine alike.
func TestEpochUnchangedByLaterWrites(t *testing.T) {
	const q = `Q(N) :- Family(F, N, Ty), Ty = "gpcr"`
	insert := map[string]func(vals ...string){}

	engines := map[string]*core.Engine{}
	{
		db := gtopdb.PaperInstance()
		e, err := core.NewEngine(core.DBSource{DB: db}, gtopdb.MustPaperViews(), core.DefaultPolicy())
		if err != nil {
			t.Fatal(err)
		}
		engines["plain"] = e
		insert["plain"] = func(vals ...string) { db.MustInsert("Family", vals...) }
	}
	{
		sdb, err := shard.FromDB(gtopdb.PaperInstance(), 3)
		if err != nil {
			t.Fatal(err)
		}
		e, err := core.NewEngine(core.ShardSource{DB: sdb}, gtopdb.MustPaperViews(), core.DefaultPolicy())
		if err != nil {
			t.Fatal(err)
		}
		engines["sharded"] = e
		insert["sharded"] = func(vals ...string) { sdb.MustInsert("Family", vals...) }
	}

	for name, e := range engines {
		t.Run(name, func(t *testing.T) {
			rows0, cite0 := citeJSON(t, e, q)
			insert[name]("901", "EpochFam", "gpcr")
			rows1, cite1 := citeJSON(t, e, q)
			if rows1 != rows0 || cite1 != cite0 {
				t.Fatalf("epoch read changed before Reset: rows %d→%d", rows0, rows1)
			}
			if err := e.Reset(); err != nil {
				t.Fatal(err)
			}
			rows2, _ := citeJSON(t, e, q)
			if rows2 != rows0+1 {
				t.Fatalf("Reset did not publish the write: %d rows, want %d", rows2, rows0+1)
			}
		})
	}
}

// TestVersionedEpochsAcrossEngines pins one engine per committed version of
// an LSM store and checks each keeps citing its own version's data — across
// a Reset, too — while the store keeps evolving: the paper's §4 fixity
// requirement carried through the engine's epoch machinery.
func TestVersionedEpochsAcrossEngines(t *testing.T) {
	b, err := backend.OpenLSM(t.TempDir(), gtopdb.Schema(), lsm.Options{DisableBackgroundCompaction: true})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	insert := func(rel string, vals ...string) {
		t.Helper()
		if err := b.Insert(rel, vals...); err != nil {
			t.Fatal(err)
		}
	}
	commit := func(label string) uint64 {
		t.Helper()
		v, err := b.Commit(label)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	insert("Family", "11", "Calcitonin", "gpcr")
	insert("FamilyIntro", "11", "intro-v1")
	ver1 := commit("release-1")
	insert("Family", "12", "Calcium", "gpcr")
	insert("FamilyIntro", "12", "intro-v2")
	ver2 := commit("release-2")

	const q = `Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), Ty = "gpcr"`
	want := map[uint64]int{ver1: 1, ver2: 2}
	engines := map[uint64]*core.Engine{}
	for _, ver := range []uint64{ver1, ver2} {
		e, err := core.NewEngine(backend.At(b, ver), gtopdb.MustPaperViews(), core.DefaultPolicy())
		if err != nil {
			t.Fatal(err)
		}
		engines[ver] = e
	}

	baseline := map[uint64]string{}
	for ver, e := range engines {
		rows, cite := citeJSON(t, e, q)
		if rows != want[ver] {
			t.Fatalf("version %d: %d rows, want %d", ver, rows, want[ver])
		}
		baseline[ver] = cite
	}

	// The store keeps evolving after the epochs were pinned.
	for i := 0; i < 3; i++ {
		insert("Family", fmt.Sprint(100+i), "Later", "gpcr")
		insert("FamilyIntro", fmt.Sprint(100+i), "later-intro")
		commit("")
	}

	for ver, e := range engines {
		if err := e.Reset(); err != nil { // a new epoch of a pinned source reads the same version
			t.Fatal(err)
		}
		rows, cite := citeJSON(t, e, q)
		if rows != want[ver] || cite != baseline[ver] {
			t.Fatalf("version %d drifted after later commits: %d rows", ver, rows)
		}
	}
}

// TestResetAllocsDoNotGrowWithInstance: Reset takes a copy-on-write snapshot
// and an empty plan cache — no tuple is read or copied — so what it
// allocates is the same for a thousand tuples and for a hundred thousand.
func TestResetAllocsDoNotGrowWithInstance(t *testing.T) {
	views := oracleWorldViews(t)
	instance := func(n int) *storage.DB {
		db := storage.NewDB(oracleSchema())
		for i := 0; i < n/2; i++ {
			db.MustInsert("R", strconv.Itoa(i), strconv.Itoa(i%7))
			db.MustInsert("S", strconv.Itoa(i), strconv.Itoa(i%5))
		}
		return db
	}
	engines := map[string]func(*storage.DB) (*core.Engine, error){
		"mem": func(db *storage.DB) (*core.Engine, error) {
			return core.NewEngine(core.DBSource{DB: db}, views, core.DefaultPolicy())
		},
		"shards=4": func(db *storage.DB) (*core.Engine, error) {
			sdb, err := shard.FromDB(db, 4)
			if err != nil {
				return nil, err
			}
			return core.NewEngine(core.ShardSource{DB: sdb}, views, core.DefaultPolicy())
		},
	}
	for name, build := range engines {
		t.Run(name, func(t *testing.T) {
			allocs := func(n int) float64 {
				e, err := build(instance(n))
				if err != nil {
					t.Fatal(err)
				}
				return testing.AllocsPerRun(10, func() {
					if err := e.Reset(); err != nil {
						t.Fatal(err)
					}
				})
			}
			small, large := allocs(1_000), allocs(100_000)
			if large > small {
				t.Fatalf("Reset allocates %.0f objects over 1k tuples and %.0f over 100k: it must not grow with the instance", small, large)
			}
		})
	}
}

// gatedSource is a SnapshotSource over a live database whose snapshots can
// stall the reads of one relation: after close(pass), the next pass reads of
// it go through and every later one blocks, announcing itself on entered,
// until open.
type gatedSource struct {
	db  *storage.DB
	rel string

	mu      sync.Mutex
	pass    int
	gate    chan struct{} // nil: open
	entered chan struct{}
}

func newGatedSource(db *storage.DB, rel string) *gatedSource {
	// One slot is enough: the tests wait for the first blocked read only.
	return &gatedSource{db: db, rel: rel, entered: make(chan struct{}, 1)}
}

func (g *gatedSource) close(pass int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.pass, g.gate = pass, make(chan struct{})
}

func (g *gatedSource) open() {
	g.mu.Lock()
	defer g.mu.Unlock()
	close(g.gate)
	g.gate = nil
}

func (g *gatedSource) read() {
	g.mu.Lock()
	gate := g.gate
	if gate != nil && g.pass > 0 {
		g.pass--
		gate = nil
	}
	g.mu.Unlock()
	if gate == nil {
		return
	}
	select {
	case g.entered <- struct{}{}:
	default:
	}
	<-gate
}

// awaitStalled returns once a read is blocked at the gate.
func (g *gatedSource) awaitStalled(t *testing.T) {
	t.Helper()
	select {
	case <-g.entered:
	case <-time.After(20 * time.Second):
		t.Fatal("no read reached the closed gate")
	}
}

func (g *gatedSource) Schema() *storage.Schema { return g.db.Schema() }

func (g *gatedSource) Snapshot() (eval.DBView, error) {
	return gatedView{eval.DBViewOf(g.db.Snapshot()), g}, nil
}

type gatedView struct {
	eval.DBView
	g *gatedSource
}

func (v gatedView) Relation(name string) eval.RelView {
	r := v.DBView.Relation(name)
	if r == nil || name != v.g.rel {
		return r
	}
	return gatedRel{r, v.g}
}

type gatedRel struct {
	eval.RelView
	g *gatedSource
}

func (r gatedRel) Scan(fn func(storage.Tuple) bool) {
	r.g.read()
	r.RelView.Scan(fn)
}

func (r gatedRel) Lookup(cols []int, vals []string, fn func(storage.Tuple) bool) {
	r.g.read()
	r.RelView.Lookup(cols, vals, fn)
}

// citeAsync cites src on its own goroutine; the result is the aggregated
// citation's JSON after the row count, or the error.
func citeAsync(t *testing.T, e *core.Engine, src string) <-chan string {
	q := mustQuery(t, src)
	out := make(chan string, 1)
	go func() {
		res, err := e.Cite(q)
		if err != nil {
			out <- "error: " + err.Error()
			return
		}
		out <- fmt.Sprintf("%d rows %s", len(res.Tuples), res.Citation.JSON())
	}()
	return out
}

func await(t *testing.T, what string, ch <-chan string) string {
	t.Helper()
	select {
	case s := <-ch:
		return s
	case <-time.After(20 * time.Second):
		t.Fatalf("%s did not finish", what)
		return ""
	}
}

// The gated tests read R through one request and S through another; both
// queries have rewritings (VE, VS), so both evaluate views on first use.
const (
	gatedQuery = `Q(A) :- R(A, B)`
	otherQuery = `Q(A, C) :- S(A, C)`
)

// TestCiteInFlightAcrossReset: a citation that captured epoch E finishes on
// E — its rewriting evaluation and its token rendering included — although
// Reset published E+1 with new data while it was stalled mid-pipeline.
func TestCiteInFlightAcrossReset(t *testing.T) {
	db := storage.NewDB(oracleSchema())
	db.MustInsert("R", "a", "b")
	db.MustInsert("R", "c", "b")
	src := newGatedSource(db, "R")
	e, err := core.NewEngine(src, oracleWorldViews(t), core.DefaultPolicy())
	if err != nil {
		t.Fatal(err)
	}
	before := await(t, "warm cite", citeAsync(t, e, gatedQuery))
	if err := e.Reset(); err != nil { // drop the warm tokens: the stalled cite must render its own
		t.Fatal(err)
	}
	src.close(1) // the output evaluation reads R; the rewriting's evaluation stalls
	inFlight := citeAsync(t, e, gatedQuery)
	src.awaitStalled(t)
	db.MustInsert("R", "z", "b")
	if err := e.Reset(); err != nil {
		t.Fatal(err)
	}
	src.open()
	if got := await(t, "in-flight cite", inFlight); got != before {
		t.Fatalf("in-flight cite left its epoch:\n got %s\nwant %s", got, before)
	}
	after := await(t, "cite after Reset", citeAsync(t, e, gatedQuery))
	if after == before {
		t.Fatalf("Reset did not publish the write: %s", after)
	}
}

// TestFirstReadsAfterResetShareNoLock: after Reset, the first citation
// returns the bytes it returned before, and two first citations do not wait
// for one another — one stalled in its output evaluation, in its rewriting's
// evaluation or in token rendering holds nothing the other needs.
func TestFirstReadsAfterResetShareNoLock(t *testing.T) {
	views := oracleWorldViews(t)
	for pass, stage := range []string{"output evaluation", "rewriting evaluation", "token rendering"} {
		t.Run(stage, func(t *testing.T) {
			db := storage.NewDB(oracleSchema())
			db.MustInsert("R", "a", "b")
			db.MustInsert("S", "a", "c")
			src := newGatedSource(db, "R")
			e, err := core.NewEngine(src, views, core.DefaultPolicy())
			if err != nil {
				t.Fatal(err)
			}
			wantGated := await(t, "warm cite", citeAsync(t, e, gatedQuery))
			wantOther := await(t, "warm cite", citeAsync(t, e, otherQuery))
			if err := e.Reset(); err != nil {
				t.Fatal(err)
			}
			src.close(pass)
			stalled := citeAsync(t, e, gatedQuery)
			src.awaitStalled(t)
			if got := await(t, "the citation beside the stalled one", citeAsync(t, e, otherQuery)); got != wantOther {
				t.Fatalf("first cite after Reset changed:\n got %s\nwant %s", got, wantOther)
			}
			src.open()
			if got := await(t, "the stalled citation", stalled); got != wantGated {
				t.Fatalf("first cite after Reset changed:\n got %s\nwant %s", got, wantGated)
			}
		})
	}
}
