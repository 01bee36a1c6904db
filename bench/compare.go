package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"text/tabwriter"
)

// resultSet is a set of complete runs of one commit: what `bench suite`
// writes and `bench compare` reads.
type resultSet struct {
	Runs []*result `json:"runs"`
}

func loadSet(path string) (*resultSet, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set resultSet
	if err := json.Unmarshal(raw, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(set.Runs) == 0 {
		// A single run's result file is a set of one.
		var one result
		if err := json.Unmarshal(raw, &one); err != nil || one.Workload == "" {
			return nil, fmt.Errorf("%s: neither a result set nor a result file", path)
		}
		set.Runs = []*result{&one}
	}
	return &set, nil
}

// values collects one metric's values over the runs of a workload that own
// the metric; a stand-in (see result.standIn) is not a value to judge.
func (s *resultSet) values(workload, metric string) []float64 {
	var out []float64
	for _, r := range s.Runs {
		if m, ok := r.Metrics[metric]; ok && r.Workload == workload && !slices.Contains(r.StandIns, metric) {
			out = append(out, m.Value)
		}
	}
	return out
}

func (s *resultSet) workloads() []string {
	seen := map[string]bool{}
	var out []string
	for _, r := range s.Runs {
		if !seen[r.Workload] {
			seen[r.Workload] = true
			out = append(out, r.Workload)
		}
	}
	sort.Strings(out)
	return out
}

// failures lists the runs of a set that were not correct.
func (s *resultSet) failures() []string {
	var out []string
	for _, r := range s.Runs {
		if !r.Correct {
			out = append(out, fmt.Sprintf("%s seed %d: %d of %d failed %v", r.Workload, r.Seed, r.Failed, r.Attempted, r.Errors))
		}
	}
	return out
}

// verdict judges B against A on one workload × metric: "worse" when B's
// median is worse than A's by more than the bound; otherwise "unresolved"
// when either side's spread is wider than the bound (the sets cannot tell a
// change of that size from noise); otherwise "ok".
func verdict(m metricSpec, a, b []float64) (worse float64, v string) {
	worse = m.worsening(median(a), median(b))
	switch {
	case worse > m.Bound:
		return worse, "worse"
	case spread(a) > m.Bound || spread(b) > m.Bound:
		return worse, "unresolved"
	}
	return worse, "ok"
}

// compareMain implements `bench compare A.json B.json`: per workload ×
// end-to-end metric, B's median against A's with the bound stored in
// BENCHMARK.json. The exit code is 1 when any pairing is worse or either set
// holds a failed run.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare A.json B.json")
		return 2
	}
	spec, err := loadSpec(specFile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench compare: %v\n", err)
		return 2
	}
	var sets [2]*resultSet
	for i := range sets {
		if sets[i], err = loadSet(args[i]); err != nil {
			fmt.Fprintf(os.Stderr, "bench compare: %v\n", err)
			return 2
		}
	}
	a, b := sets[0], sets[1]
	exit := 0
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median\tA spread\tB median\tB spread\tB worse by\tbound\tverdict\t")
	for _, w := range a.workloads() {
		for _, m := range spec.EndToEnd {
			av, bv := a.values(w, m.Name), b.values(w, m.Name)
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			worse, v := verdict(m, av, bv)
			if v == "worse" {
				exit = 1
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g\t%.1f%%\t%.4g\t%.1f%%\t%+.1f%%\t%.0f%%\t%s\t\n",
				w, m.Name, m.Unit, median(av), 100*spread(av), median(bv), 100*spread(bv), 100*worse, 100*m.Bound, v)
		}
	}
	tw.Flush()
	for i, set := range sets {
		for _, p := range set.failures() {
			fmt.Printf("set %c: %s\n", 'A'+i, p)
			exit = 1
		}
	}
	return exit
}

// suiteMain implements `bench suite`: the untraced run of every workload of
// BENCHMARK.json on seeds 1 to n, for its run_seconds, each run in its own
// process (so that one run's memory cannot show in the next's), collected
// into one result-set file, with the spread of every end-to-end metric
// printed against its bound.
func suiteMain(args []string) int {
	fs := flag.NewFlagSet("suite", flag.ContinueOnError)
	seeds := fs.Int("seeds", 10, "runs per workload, on seeds 1 to n")
	out := fs.String("out", filepath.Join(buildDir, "results", "suite.json"), "result-set file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, err := loadSpec(specFile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench suite: %v\n", err)
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench suite: %v\n", err)
		return 1
	}
	set := &resultSet{}
	for seed := int64(1); seed <= int64(*seeds); seed++ {
		for _, workload := range spec.Workloads {
			w := workload.Name
			cmd := exec.Command(self, "--workload", w, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(spec.RunSeconds), "--trace", "0")
			cmd.Stderr = os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "bench suite: %s seed %d: %v\n", w, seed, err)
				return 1
			}
			one, err := loadSet(resultPath(w, seed, false))
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench suite: %v\n", err)
				return 1
			}
			set.Runs = append(set.Runs, one.Runs...)
			fmt.Fprintf(os.Stderr, "%s seed %d done\n", w, seed)
		}
	}
	raw, err := json.MarshalIndent(set, "", " ")
	if err == nil {
		err = os.WriteFile(*out, append(raw, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench suite: %v\n", err)
		return 1
	}
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tmedian\tspread\tbound\tsteady\t")
	for _, w := range set.workloads() {
		for _, m := range spec.EndToEnd {
			vals := set.values(w, m.Name)
			if len(vals) == 0 {
				continue
			}
			steady := "NO"
			switch sp := spread(vals); {
			case sp <= m.Bound/3:
				steady = "yes"
			case sp <= m.Bound:
				steady = "within bound"
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.5g\t%.1f%%\t%.0f%%\t%s\t\n", w, m.Name, m.Unit, median(vals), 100*spread(vals), 100*m.Bound, steady)
		}
	}
	tw.Flush()
	exit := 0
	for _, p := range set.failures() {
		fmt.Println(p)
		exit = 1
	}
	return exit
}
