package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"

	"citare/internal/citegraph"
	"citare/internal/gtopdb"
	"citare/internal/storage"
)

// scale fixes every input size of a run. The full scale is what
// BENCHMARK.json measures; the toy scale exists so the smoke test finishes
// in seconds.
type scale struct {
	name string
	// gtopdb is the generated GtoPdb instance citesrv serves (the only
	// schema the real binary can load); Seed is overwritten per run.
	gtopdb gtopdb.Config
	// browseTypes is how many distinct family types browse-shard4 draws its
	// queries from (three query shapes per type).
	browseTypes int
	// graph is the citegraph instance behind versioned-rw; Seed likewise.
	graph citegraph.Config
	// commitWorks is the curator batch size of versioned-rw (new works per
	// commit, each with authorship and references).
	commitWorks int
	// setups is how many times a run repeats set-up to report its median.
	setups int
}

// fullScale is the issue's sizing: "gtopdb-20k" — 20000 families over 500
// types (40 families per type, GtoPdb's real ratio), about 146k tuples and
// 16 MB as LSM files against the store's 4 MiB block cache — and citegraph
// at ScaleMedium, about 133k tuples.
func fullScale() scale {
	return scale{
		name:        "full",
		gtopdb:      gtopdb.Config{Families: 20000, Persons: 10000, Types: 500, CommitteeMin: 2, CommitteeMax: 6, IntroFraction: 0.6},
		browseTypes: 40,
		graph:       citegraph.ScaleMedium(),
		commitWorks: 20,
		setups:      4,
	}
}

func toyScale() scale {
	return scale{
		name:        "toy",
		gtopdb:      gtopdb.Config{Families: 200, Persons: 100, Types: 5, CommitteeMin: 2, CommitteeMax: 6, IntroFraction: 0.6},
		browseTypes: 5,
		graph:       citegraph.ScaleSmall(),
		commitWorks: 5,
		setups:      1,
	}
}

// generateGtopdb builds the run's GtoPdb instance. gtopdb.Generate draws
// committee members by ranging over a map, so its insertion order differs
// between two calls with one seed; re-inserting every relation in sorted
// order makes the instance — and the CSV set dumped from it — a pure
// function of the seed.
func generateGtopdb(cfg gtopdb.Config, seed int64) *storage.DB {
	cfg.Seed = seed
	raw := gtopdb.Generate(cfg)
	db := storage.NewDB(gtopdb.Schema())
	for _, rs := range raw.Schema().Relations() {
		tuples := raw.Relation(rs.Name).Tuples()
		sort.Slice(tuples, func(i, j int) bool { return tuples[i].Key() < tuples[j].Key() })
		for _, t := range tuples {
			db.MustInsert(rs.Name, t...)
		}
	}
	return db
}

// familyID is the FID gtopdb.Generate gives its f-th family.
func familyID(f int) string { return strconv.Itoa(100 + f) }

// typeName is the Type value gtopdb.Generate gives its t-th family type.
func typeName(t int) string { return fmt.Sprintf("type-%02d", t) }

// dumpCSVDir writes <dir>/<Relation>.csv for every relation — the only form
// in which citesrv ever sees the data — and returns the bytes written.
func dumpCSVDir(db *storage.DB, dir string) (int64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	for _, rs := range db.Schema().Relations() {
		f, err := os.Create(filepath.Join(dir, rs.Name+".csv"))
		if err != nil {
			return 0, err
		}
		if err := storage.DumpCSV(db, rs.Name, f); err != nil {
			f.Close()
			return 0, fmt.Errorf("dump %s: %w", rs.Name, err)
		}
		if err := f.Close(); err != nil {
			return 0, err
		}
	}
	return dirBytes(dir)
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return total, err
}

func tupleCount(db *storage.DB) int {
	n := 0
	for _, rs := range db.Schema().Relations() {
		n += db.Relation(rs.Name).Len()
	}
	return n
}

// wireRequest is one request of a stream: the endpoint and the query. It is
// sent over HTTP by the load generator and replayed in process by the
// reference and the traced run.
type wireRequest struct {
	stream bool // POST /v1/cite/stream instead of /v1/cite
	body   citeBody
}

func (r wireRequest) path() string {
	if r.stream {
		return "/v1/cite/stream"
	}
	return "/v1/cite"
}

// citeBody is the subset of citesrv's v1 request object the benchmark sends.
type citeBody struct {
	SQL     string `json:"sql,omitempty"`
	Datalog string `json:"datalog,omitempty"`
}

// json is the request's HTTP body.
func (b citeBody) json() []byte {
	raw, err := json.Marshal(b)
	if err != nil {
		panic(err) // two plain strings always marshal
	}
	return raw
}

func (b citeBody) String() string { return string(b.json()) }

// The point-* query shapes, each keyed on one family.

func pointDatalog(fid string) citeBody {
	return citeBody{Datalog: fmt.Sprintf(`Q(N) :- Family(F, N, Ty), F = %q`, fid)}
}

func committeeDatalog(fid string) citeBody {
	return citeBody{Datalog: fmt.Sprintf(`Q(N, Pn) :- Family(F, N, Ty), F = %q, FC(F, P), Person(P, Pn, A)`, fid)}
}

// pointSQL is the point lookup through the SQL front end. It projects the
// type as well: were it equivalent to pointDatalog, the two would share one
// citation-cache entry, and the answer's column labels would be those of
// whichever arrived first — not a function of the request alone.
func pointSQL(fid string) citeBody {
	return citeBody{SQL: fmt.Sprintf(`SELECT f.FName, f.Type FROM Family f WHERE f.FID = '%s'`, fid)}
}

// pointStream is one worker's point-mem / point-lsm request stream: 70%
// datalog point lookups, 20% committee joins, 10% the point lookup as SQL,
// the family uniform over all of them — so nearly every request is a query
// the server has not seen, and the citation cache cannot help. Each worker
// draws from its own seeded source, so the stream does not depend on how the
// workers interleave.
type pointStream struct {
	r        *rand.Rand
	families int
}

func newPointStream(seed int64, worker, families int) *pointStream {
	return &pointStream{r: rand.New(rand.NewSource(seed*1_000_003 + int64(worker)*7919 + 1)), families: families}
}

func (s *pointStream) next() wireRequest {
	fid := familyID(s.r.Intn(s.families))
	switch p := s.r.Intn(10); {
	case p < 7:
		return wireRequest{body: pointDatalog(fid)}
	case p < 9:
		return wireRequest{body: committeeDatalog(fid)}
	default:
		return wireRequest{body: pointSQL(fid)}
	}
}

// browseQueries is browse-shard4's working set: for each of n seeded
// distinct family types, the families of the type, the type joined with the
// introductions (the paper's Example 2.3 shape) and the type joined with the
// committees.
func browseQueries(seed int64, types, n int) []citeBody {
	r := rand.New(rand.NewSource(seed*1_000_003 + 2))
	out := make([]citeBody, 0, 3*n)
	for _, t := range r.Perm(types)[:n] {
		ty := typeName(t)
		out = append(out,
			citeBody{Datalog: fmt.Sprintf(`Q(N) :- Family(F, N, Ty), Ty = %q`, ty)},
			citeBody{Datalog: fmt.Sprintf(`Q(N, Tx) :- Family(F, N, Ty), Ty = %q, FamilyIntro(F, Tx)`, ty)},
			citeBody{Datalog: fmt.Sprintf(`Q(N, Pn) :- Family(F, N, Ty), Ty = %q, FC(F, P), Person(P, Pn, A)`, ty)},
		)
	}
	return out
}

// browseStream is one worker's browse-shard4 request stream. Its
// composition is fixed, not drawn: the worker walks a seeded permutation of
// the working set again and again, and every fifth request goes to
// /v1/cite/stream (the cache is bypassed and the query evaluates) while the
// others go to /v1/cite (a citation-cache hit once warm). A stream costs
// fifty cache hits, so a drawn 20% would make the window's work depend on
// the draw; the phase shifts by one each pass, so every query is streamed in
// turn.
type browseStream struct {
	order []citeBody
	i     int
}

func newBrowseStream(seed int64, worker int, queries []citeBody) *browseStream {
	r := rand.New(rand.NewSource(seed*1_000_003 + int64(worker)*7919 + 3))
	s := &browseStream{order: make([]citeBody, len(queries))}
	for i, j := range r.Perm(len(queries)) {
		s.order[i] = queries[j]
	}
	return s
}

func (s *browseStream) next() wireRequest {
	i := s.i
	s.i++
	pass := i / len(s.order)
	return wireRequest{stream: (i+pass)%5 == 4, body: s.order[i%len(s.order)]}
}

// workBatch is one curator commit against a citegraph instance: n new works
// starting at index first, each with authorship and a Zipf-drawn reference
// list into the base works (so later batches never re-rank the popularity
// law) — the shape of citegraph.GenerateVersioned's update batches.
func workBatch(cfg citegraph.Config, r *rand.Rand, zipf *rand.Zipf, first, n int, ins func(rel string, vals ...string) error) error {
	seen := make(map[int]bool, cfg.RefsPerWork)
	for w := first; w < first+n; w++ {
		wid := citegraph.WorkID(w)
		if err := ins("Work", wid, "Title-"+wid[1:], citegraph.VenueID(r.Intn(cfg.Venues)), strconv.Itoa(cfg.YearMax)); err != nil {
			return err
		}
		start := r.Intn(cfg.Authors)
		for k := 0; k < cfg.AuthorsPerWork; k++ {
			if err := ins("Wrote", citegraph.AuthorID((start+k)%cfg.Authors), wid); err != nil {
				return err
			}
		}
		clear(seen)
		for len(seen) < cfg.RefsPerWork {
			cited := int(zipf.Uint64())
			if seen[cited] {
				cited = r.Intn(cfg.Works)
				if seen[cited] {
					continue
				}
			}
			seen[cited] = true
			if err := ins("Cites", wid, citegraph.WorkID(cited)); err != nil {
				return err
			}
		}
	}
	return nil
}
