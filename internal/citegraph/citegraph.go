// Package citegraph generates an OpenCitations-shaped citation-graph
// workload at configurable scale: works, authors, venues, authorship and a
// cites(Citing, Cited) relation whose in-degree follows a Zipf law — a
// handful of blockbuster works absorb most references while the long tail
// is cited once or never, the access pattern reference-resolution services
// observe in practice. It is the repo's standing stress instance: deep-join
// citation policies, hot-key skew against the shard router, versioned
// write traffic and batch/streaming clients all run over it (the root
// package's TestCitegraph* and alloc tests, cmd/citesrv's soak suite,
// bench's versioned-rw workload).
//
// Generation is strictly deterministic: one seeded rand.Rand, sequential
// insertion, no map iteration — identical seed+config produce byte-identical
// storage.DB contents regardless of GOMAXPROCS, and shard.FromDB routes the
// same tuples to the same shards for any fixed shard count (property-tested
// in citegraph_test.go).
package citegraph

import (
	"math/rand"
	"strconv"

	"citare/internal/storage"
)

// Config parameterizes the generator. Counts are exact for entity relations
// and expected values for the edge relations; TupleCount reports the exact
// total a config will generate.
type Config struct {
	// Seed drives all randomness. Two generations with equal Seed and equal
	// remaining fields are byte-identical.
	Seed int64
	// Works, Authors, Venues are the entity-relation cardinalities.
	Works, Authors, Venues int
	// AuthorsPerWork is the authorship out-degree (exact, capped by Authors).
	AuthorsPerWork int
	// RefsPerWork is the reference-list length per citing work (exact,
	// before self-cite/duplicate suppression, which the generator resolves
	// by redrawing so the count stays exact whenever Works > RefsPerWork).
	RefsPerWork int
	// ZipfS > 1 and ZipfV >= 1 shape the cited-work popularity law: cited
	// works are drawn rank-wise from Zipf(s, v), so rank 0 (see HotWork) has
	// by far the highest in-degree.
	ZipfS, ZipfV float64
	// YearMin/YearMax bound publication years (inclusive).
	YearMin, YearMax int
	// CitesShardKey routes the Cites relation in sharded deployments:
	// "Cited" (the default) sends every reference to a work to the shard
	// owning that work — realistic for resolution serving, and deliberately
	// hot-key-skewed since in-degree is Zipf; "Citing" routes by the citing
	// work, which is near-uniform. TestCitegraphShardRouting (root package)
	// checks the two against each other.
	CitesShardKey string
}

// ScaleSmall is the CI / unit-test scale: ~5k tuples, fast enough to
// generate inside -race test runs.
func ScaleSmall() Config {
	return Config{
		Seed: 17, Works: 400, Authors: 300, Venues: 20,
		AuthorsPerWork: 2, RefsPerWork: 8,
		ZipfS: 1.2, ZipfV: 4,
		YearMin: 1990, YearMax: 2017,
		CitesShardKey: "Cited",
	}
}

// ScaleMedium is the local benchmark-table scale: ~130k tuples.
func ScaleMedium() Config {
	cfg := ScaleSmall()
	cfg.Works, cfg.Authors, cfg.Venues = 8_000, 5_000, 60
	cfg.AuthorsPerWork, cfg.RefsPerWork = 3, 12
	return cfg
}

// ScaleStress is the standing local stress scale: ≥1M tuples. Generation
// stays in the low seconds.
func ScaleStress() Config {
	cfg := ScaleSmall()
	cfg.Works, cfg.Authors, cfg.Venues = 60_000, 30_000, 200
	cfg.AuthorsPerWork, cfg.RefsPerWork = 3, 13
	return cfg
}

// TupleCount returns the exact number of tuples Generate will produce.
func (cfg Config) TupleCount() int {
	cfg = cfg.normalized()
	return cfg.Works + cfg.Authors + cfg.Venues +
		cfg.Works*cfg.AuthorsPerWork + cfg.Works*cfg.RefsPerWork
}

// normalized clamps degenerate fields so every config generates something.
func (cfg Config) normalized() Config {
	if cfg.Works <= 1 {
		cfg.Works = 2
	}
	if cfg.Authors <= 0 {
		cfg.Authors = 1
	}
	if cfg.Venues <= 0 {
		cfg.Venues = 1
	}
	if cfg.AuthorsPerWork <= 0 {
		cfg.AuthorsPerWork = 1
	}
	if cfg.AuthorsPerWork > cfg.Authors {
		cfg.AuthorsPerWork = cfg.Authors
	}
	if cfg.RefsPerWork <= 0 {
		cfg.RefsPerWork = 1
	}
	if cfg.RefsPerWork >= cfg.Works {
		cfg.RefsPerWork = cfg.Works - 1
	}
	if cfg.ZipfS <= 1 {
		cfg.ZipfS = 1.2
	}
	if cfg.ZipfV < 1 {
		cfg.ZipfV = 1
	}
	if cfg.YearMax < cfg.YearMin {
		cfg.YearMax = cfg.YearMin
	}
	if cfg.CitesShardKey == "" {
		cfg.CitesShardKey = "Cited"
	}
	return cfg
}

// Schema returns the citegraph schema:
//
//	Work(WID, Title, VID, Year)
//	Author(AID, AName, Affil)
//	Venue(VID, VName, Field)
//	Wrote(AID, WID)          — authorship, sharded by AID
//	Cites(Citing, Cited)     — references, sharded per cfg.CitesShardKey
//
// Shard keys are chosen to exercise both router behaviors: Wrote prunes on
// bound authors (author-transitive provenance stays local), while Cites under
// the default "Cited" key concentrates the Zipf head onto single shards (hot
// keys), and under "Citing" spreads near-uniformly.
func Schema(cfg Config) *storage.Schema {
	cfg = cfg.normalized()
	s := storage.NewSchema()
	s.MustAddRelation(&storage.RelSchema{
		Name: "Work",
		Cols: []storage.Column{{Name: "WID"}, {Name: "Title"}, {Name: "VID"}, {Name: "Year"}},
		Key:  []string{"WID"},
	})
	s.MustAddRelation(&storage.RelSchema{
		Name: "Author",
		Cols: []storage.Column{{Name: "AID"}, {Name: "AName"}, {Name: "Affil"}},
		Key:  []string{"AID"},
	})
	s.MustAddRelation(&storage.RelSchema{
		Name: "Venue",
		Cols: []storage.Column{{Name: "VID"}, {Name: "VName"}, {Name: "Field"}},
		Key:  []string{"VID"},
	})
	s.MustAddRelation(&storage.RelSchema{
		Name:     "Wrote",
		Cols:     []storage.Column{{Name: "AID"}, {Name: "WID"}},
		Key:      []string{"AID", "WID"},
		ShardKey: "AID",
		ForeignKeys: []storage.ForeignKey{
			{Cols: []string{"AID"}, RefRel: "Author", RefCols: []string{"AID"}},
			{Cols: []string{"WID"}, RefRel: "Work", RefCols: []string{"WID"}},
		},
	})
	s.MustAddRelation(&storage.RelSchema{
		Name:     "Cites",
		Cols:     []storage.Column{{Name: "Citing"}, {Name: "Cited"}},
		Key:      []string{"Citing", "Cited"},
		ShardKey: cfg.CitesShardKey,
		ForeignKeys: []storage.ForeignKey{
			{Cols: []string{"Citing"}, RefRel: "Work", RefCols: []string{"WID"}},
			{Cols: []string{"Cited"}, RefRel: "Work", RefCols: []string{"WID"}},
		},
	})
	return s
}

// WorkID returns the i-th work's identifier. Rank order doubles as
// popularity order: WorkID(0) is the Zipf head (see HotWork).
func WorkID(i int) string { return "W" + pad7(i) }

// AuthorID returns the i-th author's identifier.
func AuthorID(i int) string { return "A" + pad7(i) }

// VenueID returns the i-th venue's identifier.
func VenueID(i int) string { return "V" + pad7(i) }

// HotWork returns the most-cited work's identifier — the Zipf head, whose
// shard (under the default "Cited" routing) is the hot shard.
func HotWork() string { return WorkID(0) }

// pad7 renders a non-negative int zero-padded to 7 digits without fmt.
func pad7(i int) string {
	var b [7]byte
	for p := 6; p >= 0; p-- {
		b[p] = byte('0' + i%10)
		i /= 10
	}
	return string(b[:])
}

// Generate builds the citegraph instance for a config. The result passes
// CheckForeignKeys and contains exactly cfg.TupleCount() tuples.
func Generate(cfg Config) *storage.DB {
	cfg = cfg.normalized()
	db := storage.NewDB(Schema(cfg))
	g := newGen(cfg)
	g.entities(func(rel string, vals ...string) { db.MustInsert(rel, vals...) })
	g.edges(func(rel string, vals ...string) { db.MustInsert(rel, vals...) })
	return db
}

// inserter receives generated tuples in deterministic order.
type inserter func(rel string, vals ...string)

// gen is the generation state behind Generate.
type gen struct {
	cfg  Config
	r    *rand.Rand
	zipf *rand.Zipf
	// seen dedups one work's reference list; reused across works.
	seen map[int]bool
}

func newGen(cfg Config) *gen {
	r := rand.New(rand.NewSource(cfg.Seed))
	return &gen{
		cfg:  cfg,
		r:    r,
		zipf: rand.NewZipf(r, cfg.ZipfS, cfg.ZipfV, uint64(cfg.Works-1)),
		seen: make(map[int]bool, cfg.RefsPerWork),
	}
}

// entities emits the Venue, Author and Work relations.
func (g *gen) entities(ins inserter) {
	cfg := g.cfg
	fields := []string{"databases", "systems", "theory", "ir", "ml", "hci"}
	for v := 0; v < cfg.Venues; v++ {
		ins("Venue", VenueID(v), "Venue-"+pad7(v), fields[v%len(fields)])
	}
	for a := 0; a < cfg.Authors; a++ {
		ins("Author", AuthorID(a), "Author-"+pad7(a), "Inst-"+strconv.Itoa(a%53))
	}
	span := cfg.YearMax - cfg.YearMin + 1
	for w := 0; w < cfg.Works; w++ {
		ins("Work", WorkID(w), "Title-"+pad7(w),
			VenueID(g.r.Intn(cfg.Venues)),
			strconv.Itoa(cfg.YearMin+g.r.Intn(span)))
	}
}

// edges emits Wrote and Cites for every base work, one work at a time so the
// interleaving (and therefore the byte content) is a pure function of the
// seed.
func (g *gen) edges(ins inserter) {
	for w := 0; w < g.cfg.Works; w++ {
		g.workEdges(w, ins)
	}
}

// workEdges emits authorship and the Zipf-drawn reference list of work w.
// Authors are a contiguous window (cheap, distinct by construction); cited
// works redraw on self-cites and duplicates so the reference count is exact.
func (g *gen) workEdges(w int, ins inserter) {
	cfg := g.cfg
	wid := WorkID(w)
	start := g.r.Intn(cfg.Authors)
	for k := 0; k < cfg.AuthorsPerWork; k++ {
		ins("Wrote", AuthorID((start+k)%cfg.Authors), wid)
	}
	clear(g.seen)
	for len(g.seen) < cfg.RefsPerWork {
		cited := int(g.zipf.Uint64())
		if cited == w || g.seen[cited] {
			// Redraw; bounded because RefsPerWork < Works. The tail is long
			// enough that collisions stay rare even at the Zipf head.
			cited = g.r.Intn(cfg.Works)
			if cited == w || g.seen[cited] {
				continue
			}
		}
		g.seen[cited] = true
		ins("Cites", wid, WorkID(cited))
	}
}
