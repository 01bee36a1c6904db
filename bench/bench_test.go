package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"citare/internal/citegraph"
)

// TestMain moves to the repository root: the benchmark is run from there
// (BENCHMARK.json and ./cmd/citesrv are named relative to it).
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Exit(m.Run())
}

// hashDir returns the sha256 over the names and contents of dir's files in
// name order.
func hashDir(dir string) (string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	for _, e := range entries { // ReadDir sorts by name
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s %d\n", e.Name(), len(raw))
		h.Write(raw)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// inputDigest hashes everything a seed generates at toy scale: the CSV set
// citesrv loads and the head of every request stream and write batch.
func inputDigest(t *testing.T, seed int64) (csv, streams string) {
	t.Helper()
	sc := toyScale()
	dir := t.TempDir()
	if _, err := dumpCSVDir(generateGtopdb(sc.gtopdb, seed), dir); err != nil {
		t.Fatal(err)
	}
	csv, err := hashDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for w := 0; w < workers; w++ {
		ps := newPointStream(seed, w, sc.gtopdb.Families)
		bs := newBrowseStream(seed, w, browseQueries(seed, sc.gtopdb.Types, sc.browseTypes))
		for i := 0; i < 500; i++ {
			for _, r := range []wireRequest{ps.next(), bs.next()} {
				fmt.Fprintf(h, "%s %s\n", r.path(), r.body.json())
			}
		}
		graph := sc.graph
		graph.Seed = seed
		for _, read := range readCycle(graph, seed, w) {
			fmt.Fprintf(h, "%d %s\n", read.pinned, read.query)
		}
	}
	r := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(r, sc.graph.ZipfS, sc.graph.ZipfV, uint64(sc.graph.Works-1))
	record := func(rel string, vals ...string) error {
		fmt.Fprintf(h, "%s %s\n", rel, strings.Join(vals, ","))
		return nil
	}
	if err := workBatch(sc.graph, r, zipf, sc.graph.Works, sc.commitWorks, record); err != nil {
		t.Fatal(err)
	}
	return csv, hex.EncodeToString(h.Sum(nil))
}

func TestInputsAreAFunctionOfTheSeed(t *testing.T) {
	csv1, streams1 := inputDigest(t, 7)
	csv2, streams2 := inputDigest(t, 7)
	if csv1 != csv2 || streams1 != streams2 {
		t.Fatalf("same seed, different inputs: csv %s vs %s, streams %s vs %s", csv1, csv2, streams1, streams2)
	}
	csv3, streams3 := inputDigest(t, 8)
	if csv1 == csv3 || streams1 == streams3 {
		t.Fatal("different seeds generated the same inputs")
	}
}

// TestReadCycleComposition pins what makes versioned-rw steady: whatever the
// seed, a cycle reads the same works as of the same versions.
func TestReadCycleComposition(t *testing.T) {
	graph := citegraph.ScaleMedium()
	composition := func(seed int64) string {
		var reads []string
		for _, r := range readCycle(graph, seed, 0) {
			if strings.HasPrefix(r.query, "Q(T, Y) :- Work(") || strings.HasPrefix(r.query, "Q(G) :- Cites(") { // the work-keyed kinds
				reads = append(reads, fmt.Sprintf("%d %s", r.pinned, r.query))
			}
		}
		sort.Strings(reads)
		return strings.Join(reads, "\n")
	}
	if composition(1) != composition(2) {
		t.Fatal("the work-keyed reads of a cycle depend on the seed")
	}
	hot := 0
	for _, r := range readCycle(graph, 1, 0) {
		if r.query == citegraph.IncomingQuery(citegraph.HotWork()) {
			hot++
		}
	}
	if hot == 0 {
		t.Fatal("a cycle never reads the references to the hottest work")
	}
}

// TestSmoke runs every workload at toy size, untraced and traced, and
// requires every metric BENCHMARK.json names, with its unit, and no failed
// operation.
func TestSmoke(t *testing.T) {
	spec, err := loadSpec(specFile)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	tmp := t.TempDir()
	bin, err := buildCitesrv(ctx, filepath.Join(tmp, "citesrv"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got := workloadNames(); strings.Join(got, ",") != strings.Join(names, ",") {
		t.Fatalf("%s names workloads %v, the benchmark has %v", specFile, names, got)
	}
	for _, name := range names {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/traced=%v", name, traced), func(t *testing.T) {
				cfg := runConfig{
					workload: name, seed: 3, seconds: 1, trace: traced, sc: toyScale(),
					citesrv: bin, tmp: tmp, spanFile: filepath.Join(tmp, name+"-spans.json"),
				}
				res, err := run(ctx, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("attempted %d, failed %d: %v", res.Attempted, res.Failed, res.Errors)
				}
				want := spec.EndToEnd
				if traced {
					want = spec.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("reported %d metrics, %s names %d", len(res.Metrics), specFile, len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s not reported", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s reported in %q, declared in %q", m.Name, got.Unit, m.Unit)
					case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
						t.Errorf("metric %s is %v", m.Name, got.Value)
					case !traced && got.Value <= 0:
						t.Errorf("end-to-end metric %s is %v; it must never be 0", m.Name, got.Value)
					}
				}
				if traced {
					f, err := loadSpans(cfg.spanFile)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := selfTimes(f.Spans); err != nil {
						t.Fatalf("span file accounting: %v", err)
					}
				}
			})
		}
	}
	if left, _ := filepath.Glob(filepath.Join(tmp, "*-*")); len(left) > 4 { // the span files stay
		t.Errorf("scratch directories left behind: %v", left)
	}
}

func TestPerLayerTableMatchesSpec(t *testing.T) {
	spec, err := loadSpec(specFile)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("%s names %d per-layer metrics, the traced run reports %d", specFile, len(spec.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		if s := spec.PerLayer[i]; s.Name != m.name || s.Unit != m.unit {
			t.Errorf("per-layer metric %d: %s has %s [%s], the traced run %s [%s]", i, specFile, s.Name, s.Unit, m.name, m.unit)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(data, n=4) of Python 3.12.
	for _, tc := range []struct {
		data   []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{10, 20}, 7.5, 22.5},
		{[]float64{3.1, 2.9, 3.0, 3.4, 2.8, 3.2, 3.05, 2.95, 3.3, 3.15}, 2.9375, 3.225},
	} {
		q1, q3 := quartiles(tc.data)
		if math.Abs(q1-tc.q1) > 1e-9 || math.Abs(q3-tc.q3) > 1e-9 {
			t.Errorf("quartiles(%v) = %v, %v; Python gives %v, %v", tc.data, q1, q3, tc.q1, tc.q3)
		}
	}
}

func TestVerdicts(t *testing.T) {
	lower := metricSpec{Name: "p50_ms", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{70, 130, 80, 120, 100, 60, 140, 100, 90, 110}
	for _, tc := range []struct {
		m    metricSpec
		a, b []float64
		want string
	}{
		{lower, steady, steady, "ok"},
		{lower, steady, shift(steady, 1.05), "ok"},
		{lower, steady, shift(steady, 1.2), "worse"},
		{lower, steady, shift(steady, 0.8), "ok"},
		{higher, steady, shift(steady, 0.8), "worse"},
		{higher, steady, shift(steady, 1.2), "ok"},
		{lower, steady, noisy, "unresolved"},
	} {
		if _, got := verdict(tc.m, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: medians %v → %v: verdict %s, want %s", tc.m.Name, median(tc.a), median(tc.b), got, tc.want)
		}
	}
}

// TestTailIsPooled pins what p99_ms is for: a stall that hits one slice of
// ten must show in it, while the rates stay the typical slice's.
func TestTailIsPooled(t *testing.T) {
	ln := lane{}
	for k := 0; k <= 10; k++ {
		ln.bounds = append(ln.bounds, time.Duration(k)*time.Second)
	}
	for i := 0; i < 1000; i++ {
		lat := time.Millisecond
		if i >= 300 && i < 315 { // fifteen stalled operations, all in slice 3
			lat = 100 * time.Millisecond
		}
		ln.recs = append(ln.recs, opRec{end: time.Duration(i)*10*time.Millisecond + 5*time.Millisecond, lat: lat})
	}
	st := summarize(ln)
	if st.p99MS != 100 || st.p50MS != 1 {
		t.Errorf("p50 %v ms, p99 %v ms; want 1 and 100", st.p50MS, st.p99MS)
	}
	if st.opsPerS != 100 || st.slices != 10 || st.beyondP99 != 10 {
		t.Errorf("ops/s %v over %d slices, %d samples beyond p99; want 100, 10, 10", st.opsPerS, st.slices, st.beyondP99)
	}
}

func TestStandInsAreNotJudged(t *testing.T) {
	run := &result{Workload: "point-mem", outcome: outcome{Metrics: map[string]metric{"p50_ms": {Value: 1}, "commit_p50_ms": {Value: 2}}}}
	run.StandIns = []string{"commit_p50_ms"}
	set := &resultSet{Runs: []*result{run}}
	if got := set.values("point-mem", "p50_ms"); len(got) != 1 {
		t.Errorf("owned metric: values %v", got)
	}
	if got := set.values("point-mem", "commit_p50_ms"); len(got) != 0 {
		t.Errorf("stand-in: values %v, want none", got)
	}
}

func TestSelfTimesAccounting(t *testing.T) {
	good := []span{
		{Req: 0, ID: 0, Parent: -1, Name: "request", Start: 0, End: 100},
		{Req: 0, ID: 1, Parent: 0, Name: "parse", Start: 5, End: 25},
		{Req: 0, ID: 2, Parent: 0, Name: "cite", Start: 30, End: 90},
		{Req: 0, ID: 3, Parent: 2, Name: "eval", Start: 40, End: 60},
	}
	self, err := selfTimes(good)
	if err != nil {
		t.Fatal(err)
	}
	if want := []time.Duration{20, 20, 40, 20}; fmt.Sprint(self) != fmt.Sprint(want) {
		t.Errorf("self times %v, want %v", self, want)
	}
	overlapping := append([]span(nil), good...)
	overlapping[2].Start = 20 // starts before its sibling "parse" ended
	if _, err := selfTimes(overlapping); err == nil {
		t.Error("overlapping siblings passed the accounting check")
	}
}
