// Command bench is the repository's benchmark: it builds the real citesrv,
// generates data and request streams from a seed, drives one workload for a
// fixed number of seconds, checks the answers, and prints every metric by
// name with its unit. README.md in this directory describes the workloads,
// the metrics and which layer should move which number.
//
//	bench --workload point-mem --seed 1 --seconds 20 --trace 0
//	bench suite --seeds 10 --out A.json
//	bench compare A.json B.json
//	bench spans .bench_build/spans/point-mem-seed1.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// buildDir holds everything the benchmark writes: the built binaries,
// scratch directories of running workloads, result and span files. It is
// relative to the working directory, which must be the repository root.
const buildDir = ".bench_build"

// runCap is the hard limit on one run; a run that reaches it fails instead
// of hanging.
const runCap = 170 * time.Second

// runConfig is one run's parameters.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	sc       scale  // fullScale, except in the smoke test
	citesrv  string // path of the built server binary
	tmp      string // parent of the run's scratch directory
	spanFile string // traced runs: where the spans go
}

func workloadNames() []string {
	names := []string{"versioned-rw"}
	for name := range servedWorkloads {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compareMain(os.Args[2:]))
		case "suite":
			os.Exit(suiteMain(os.Args[2:]))
		case "spans":
			os.Exit(spansMain(os.Args[2:]))
		}
	}
	os.Exit(runMain(os.Args[1:]))
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: point-mem, point-lsm, browse-shard4 or versioned-rw")
	seed := fs.Int64("seed", 1, "seed of the generated data and request streams")
	seconds := fs.Float64("seconds", 20, "measured seconds")
	trace := fs.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg := runConfig{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace != 0, sc: fullScale()}
	cfg.spanFile = filepath.Join(buildDir, "spans", fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))

	// SIGINT/SIGTERM and the hard cap both cancel the run's context; every
	// wait in the run selects on it, and the deferred clean-up (server
	// stop, scratch removal) runs on the way out.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, runCap)
	defer cancel()

	res, err := run(ctx, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", cfg.workload, err)
		return 1
	}
	if err := res.writeFile(resultPath(cfg.workload, cfg.seed, cfg.trace)); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	res.print(os.Stdout)
	return 0
}

// resultPath is where a run's result file goes.
func resultPath(workload string, seed int64, traced bool) string {
	t := 0
	if traced {
		t = 1
	}
	return filepath.Join(buildDir, "results", fmt.Sprintf("%s-seed%d-trace%d.json", workload, seed, t))
}

// run executes one run end to end inside a scratch directory that is
// removed on every exit path.
func run(ctx context.Context, cfg runConfig) (*result, error) {
	served, isServed := servedWorkloads[cfg.workload]
	if !isServed && cfg.workload != "versioned-rw" {
		return nil, fmt.Errorf("unknown workload; have %v", workloadNames())
	}
	if cfg.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	env := captureEnvironment()
	if cfg.tmp == "" {
		cfg.tmp = filepath.Join(buildDir, "tmp")
	}
	if err := os.MkdirAll(cfg.tmp, 0o755); err != nil {
		return nil, err
	}
	if isServed && cfg.citesrv == "" {
		var err error
		if cfg.citesrv, err = buildCitesrv(ctx, filepath.Join(buildDir, "citesrv")); err != nil {
			return nil, err
		}
	}
	var (
		res *result
		err error
	)
	switch {
	case cfg.trace:
		res, err = runTraced(ctx, cfg)
	case isServed:
		res, err = runServed(ctx, cfg, served)
	default:
		res, err = runVersioned(ctx, cfg)
	}
	if err != nil {
		return nil, err
	}
	res.Env = env
	return res, nil
}

// buildCitesrv builds the server under test from the working directory's
// sources. With a warm build cache it takes a fraction of a second; it is
// never part of a measured set-up.
func buildCitesrv(ctx context.Context, out string) (string, error) {
	bin, err := filepath.Abs(out)
	if err != nil {
		return "", err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/citesrv")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build citesrv: %v\n%s", err, out)
	}
	return bin, nil
}

// print writes the human-readable report and, as the last line, the
// machine-readable outcome.
func (r *result) print(w *os.File) {
	fmt.Fprintf(w, "workload %s  seed %d  seconds %g  traced %v  scale %s\n", r.Workload, r.Seed, r.Seconds, r.Traced, r.Scale)
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Metrics[name]
		fmt.Fprintf(w, "  %-34s %14.4f %s\n", name, m.Value, m.Unit)
	}
	counts := make([]string, 0, len(r.Counts))
	for name := range r.Counts {
		counts = append(counts, name)
	}
	sort.Strings(counts)
	for _, name := range counts {
		fmt.Fprintf(w, "  count %-28s %14d\n", name, r.Counts[name])
	}
	for _, e := range r.Errors {
		fmt.Fprintf(w, "  error: %s\n", e)
	}
	line, err := json.Marshal(r.outcome)
	if err != nil {
		panic(err) // numbers and strings only
	}
	fmt.Fprintf(w, "%s\n", line)
}
