package citegraph

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"

	"citare/internal/shard"
	"citare/internal/storage"
)

// dbFingerprint hashes the full logical content of a DB: every relation in
// schema declaration order, tuples sorted bytewise. Two DBs with equal
// fingerprints hold byte-identical contents regardless of insertion order.
func dbFingerprint(db *storage.DB) string {
	h := sha256.New()
	for _, rs := range db.Schema().Relations() {
		rows := make([]string, 0, db.Relation(rs.Name).Len())
		db.Relation(rs.Name).Scan(func(t storage.Tuple) bool {
			rows = append(rows, strings.Join(t, "\x1f"))
			return true
		})
		sort.Strings(rows)
		fmt.Fprintf(h, "%s\x1e%d\x1e", rs.Name, len(rows))
		for _, r := range rows {
			h.Write([]byte(r))
			h.Write([]byte{'\x1e'})
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// shardFingerprint merges each relation's tuples across all shards and
// hashes them the same way, so it is comparable to dbFingerprint.
func shardFingerprint(sdb *shard.DB) string {
	h := sha256.New()
	for _, rs := range sdb.Schema().Relations() {
		var rows []string
		for i := 0; i < sdb.NumShards(); i++ {
			sdb.Part(i).Relation(rs.Name).Scan(func(t storage.Tuple) bool {
				rows = append(rows, strings.Join(t, "\x1f"))
				return true
			})
		}
		sort.Strings(rows)
		fmt.Fprintf(h, "%s\x1e%d\x1e", rs.Name, len(rows))
		for _, r := range rows {
			h.Write([]byte(r))
			h.Write([]byte{'\x1e'})
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGenerateDeterministic: identical seed+config produce byte-identical DB
// contents across repeated runs, across GOMAXPROCS 1 and 4, and across shard
// counts 1, 3, 5 (ISSUE 9 satellite 1).
func TestGenerateDeterministic(t *testing.T) {
	cfg := ScaleSmall()
	want := dbFingerprint(Generate(cfg))

	// Repeated runs.
	for run := 0; run < 3; run++ {
		if got := dbFingerprint(Generate(cfg)); got != want {
			t.Fatalf("run %d: fingerprint %s, want %s", run, got, want)
		}
	}

	// GOMAXPROCS must not matter (generation is single-threaded by design,
	// but the property is what the workload contract promises).
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		if got := dbFingerprint(Generate(cfg)); got != want {
			t.Fatalf("GOMAXPROCS=%d: fingerprint %s, want %s", procs, got, want)
		}
	}
	runtime.GOMAXPROCS(prev)

	// Shard partitioning must preserve content for every shard count, and
	// routing must be deterministic: equal per-shard fingerprints across two
	// independent partitionings.
	for _, shards := range []int{1, 3, 5} {
		a, err := shard.FromDB(Generate(cfg), shards)
		if err != nil {
			t.Fatal(err)
		}
		if got := shardFingerprint(a); got != want {
			t.Fatalf("shards=%d: merged fingerprint %s, want %s", shards, got, want)
		}
		b, err := shard.FromDB(Generate(cfg), shards)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < shards; i++ {
			if ga, gb := dbFingerprint(a.Part(i)), dbFingerprint(b.Part(i)); ga != gb {
				t.Fatalf("shards=%d part %d: routing not deterministic", shards, i)
			}
		}
	}

	// A different seed must actually change the content.
	other := cfg
	other.Seed++
	if dbFingerprint(Generate(other)) == want {
		t.Fatal("different seed produced identical contents")
	}
}

// TestGenerateShape: exact tuple counts, FK consistency, and the promised
// Zipf skew (the hot work's in-degree dwarfs the median).
func TestGenerateShape(t *testing.T) {
	cfg := ScaleSmall()
	db := Generate(cfg)
	if err := db.CheckForeignKeys(); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, rs := range db.Schema().Relations() {
		total += db.Relation(rs.Name).Len()
	}
	if total != cfg.TupleCount() {
		t.Fatalf("generated %d tuples, TupleCount promises %d", total, cfg.TupleCount())
	}
	if n := db.Relation("Cites").Len(); n != cfg.Works*cfg.RefsPerWork {
		t.Fatalf("Cites has %d tuples, want %d", n, cfg.Works*cfg.RefsPerWork)
	}

	inDeg := make(map[string]int)
	db.Relation("Cites").Scan(func(tu storage.Tuple) bool {
		if tu[0] == tu[1] {
			t.Fatalf("self-citation %v", tu)
		}
		inDeg[tu[1]]++
		return true
	})
	degs := make([]int, 0, len(inDeg))
	for _, d := range inDeg {
		degs = append(degs, d)
	}
	sort.Ints(degs)
	hot, median := inDeg[HotWork()], degs[len(degs)/2]
	if hot < 8*median || hot != degs[len(degs)-1] {
		t.Fatalf("in-degree not Zipf-skewed: hot=%d median=%d max=%d", hot, median, degs[len(degs)-1])
	}
}

// TestViewsParse: the policy library parses and exposes the four views.
func TestViewsParse(t *testing.T) {
	vs, err := Views()
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(vs))
	for i, v := range vs {
		names[i] = v.Name()
	}
	sort.Strings(names)
	want := []string{"VAuthored", "VCites", "VVenue", "VWork"}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Fatalf("views %v, want %v", names, want)
	}
}

// TestQueryMixDeterministic: same seed → same mix; the mix is dominated by
// resolution/incoming probes per the default weights.
func TestQueryMixDeterministic(t *testing.T) {
	cfg := ScaleSmall()
	a := QueryMix(cfg, DefaultMixWeights(), 7, 200)
	b := QueryMix(cfg, DefaultMixWeights(), 7, 200)
	if len(a) != 200 || fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatal("query mix not deterministic per seed")
	}
	if fmt.Sprint(a) == fmt.Sprint(QueryMix(cfg, DefaultMixWeights(), 8, 200)) {
		t.Fatal("different seeds produced identical mixes")
	}
	point := 0
	for _, q := range a {
		if strings.Contains(q, "W = ") || strings.Contains(q, "C = ") {
			point++
		}
	}
	if point < len(a)/2 {
		t.Fatalf("mix has %d/%d point probes; long-tail weights not applied", point, len(a))
	}
}

// TestScales: preset sanity — ScaleStress clears its 1M-tuple floor, and
// smaller presets stay ordered.
func TestScales(t *testing.T) {
	small, med, stress := ScaleSmall(), ScaleMedium(), ScaleStress()
	if n := stress.TupleCount(); n < 1_000_000 {
		t.Fatalf("ScaleStress generates %d tuples, want >= 1M", n)
	}
	if !(small.TupleCount() < med.TupleCount() && med.TupleCount() < stress.TupleCount()) {
		t.Fatal("scale presets not strictly ordered")
	}
}
