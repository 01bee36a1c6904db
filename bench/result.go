package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the last line a run prints: the contract between the benchmark
// and whatever drives it.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// result is everything one run records. The outcome goes to standard
// output; the whole result goes to the run's result file.
type result struct {
	outcome
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Traced   bool    `json:"traced"`
	Scale    string  `json:"scale"`
	// Counts are the run's operation and sample counts by name (measured
	// ops, samples beyond p99, verified samples, commits, ...).
	Counts map[string]int `json:"counts"`
	// Extra holds measurements that are neither gated nor per-layer
	// metrics of BENCHMARK.json but explain them (cold-path latency,
	// every set-up time, ...).
	Extra map[string]float64 `json:"extra,omitempty"`
	// Series holds per-slice values of the measured window (see sliceLen).
	Series map[string][]float64 `json:"series,omitempty"`
	// Errors lists the first error of each kind of failure.
	Errors []string `json:"errors,omitempty"`
	// StandIns names the reported metrics that are stand-ins (see standIn).
	StandIns []string `json:"stand_ins,omitempty"`
	// SpanFile is where a traced run wrote its spans.
	SpanFile string `json:"span_file,omitempty"`
	// Attachments are raw post-run scrapes of the server (/stats, /metrics)
	// or, for versioned-rw, the store's own statistics.
	Attachments map[string]string `json:"attachments,omitempty"`
	Env         environment       `json:"env"`
}

func newResult(cfg runConfig) *result {
	return &result{
		outcome:     outcome{Metrics: map[string]metric{}},
		Workload:    cfg.workload,
		Seed:        cfg.seed,
		Seconds:     cfg.seconds,
		Traced:      cfg.trace,
		Scale:       cfg.sc.name,
		Counts:      map[string]int{},
		Extra:       map[string]float64{},
		Series:      map[string][]float64{},
		Attachments: map[string]string{},
	}
}

func (r *result) set(name string, value float64, unit string) {
	r.Metrics[name] = metric{Value: value, Unit: unit}
}

// standIn reports a metric on a workload that has no operation of its kind.
// The contract wants every end-to-end metric from every workload and none
// ever 0, so the workload repeats the nearest quantity it does measure: that
// costs no window time, and `bench compare` does not judge it. README.md
// lists which workloads own which metric.
func (r *result) standIn(name string, value float64, unit string) {
	r.set(name, value, unit)
	r.StandIns = append(r.StandIns, name)
}

// check counts n attempted operations of which bad failed, keeping the
// first error of the kind.
func (r *result) check(kind string, n, bad int, err error) {
	r.Attempted += n
	r.Failed += bad
	r.Counts[kind] += n
	if bad > 0 {
		r.Counts[kind+"_failed"] += bad
		r.Errors = append(r.Errors, fmt.Sprintf("%s: %d of %d failed: %v", kind, bad, n, err))
	}
}

// phase times one phase of the run into Extra, so a result file shows where
// the run's wall time went: defer r.phase("name")().
func (r *result) phase(name string) func() {
	t0 := time.Now()
	return func() { r.Extra["phase_"+name+"_s"] += time.Since(t0).Seconds() }
}

func (r *result) finish() {
	r.Correct = r.Failed == 0 && r.Attempted > 0
}

func (r *result) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// environment is what a result file records about where it was measured.
type environment struct {
	Commit     string `json:"commit"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Kernel     string `json:"kernel"`
	LoadAvg    string `json:"loadavg_at_start"`
	Started    string `json:"started"`
}

func captureEnvironment() environment {
	return environment{
		Commit:     gitCommit(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		Kernel:     firstLine("/proc/sys/kernel/osrelease"),
		LoadAvg:    firstLine("/proc/loadavg"),
		Started:    time.Now().UTC().Format(time.RFC3339),
	}
}

// gitCommit names the commit being measured by reading .git in the working
// directory, or "unknown" when that is not a git work tree (the driver's
// checkout is not one).
func gitCommit() string {
	head := firstLine(filepath.Join(".git", "HEAD"))
	ref, isRef := strings.CutPrefix(head, "ref: ")
	if !isRef {
		return head // a detached HEAD holds the hash itself, else "unknown"
	}
	if hash := firstLine(filepath.Join(".git", ref)); hash != "unknown" {
		return hash
	}
	packed, err := os.ReadFile(filepath.Join(".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if hash, name, ok := strings.Cut(line, " "); ok && name == ref {
			return hash
		}
	}
	return "unknown"
}

func firstLine(path string) string {
	raw, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	return strings.TrimSpace(line)
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
