package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"text/tabwriter"
	"time"
)

// span is one timed call the traced run made into a layer. Spans of one
// replayed request share Req; Parent is the ID of the enclosing span, -1 for
// the request's root. Times are nanoseconds since the trace began.
type span struct {
	Req    int    `json:"req"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps the traced run's spans in memory; they are written out once,
// when the run ends. The replay is single-threaded, so there is no locking.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)} }

// begin opens a span and returns its ID.
func (t *tracer) begin(req, parent int, name string) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{Req: req, ID: id, Parent: parent, Name: name, Start: int64(time.Since(t.t0))})
	return id
}

// end closes a span and returns its duration.
func (t *tracer) end(id int) time.Duration {
	t.spans[id].End = int64(time.Since(t.t0))
	return t.spans[id].dur()
}

// timed runs fn inside a span.
func (t *tracer) timed(req, parent int, name string, fn func()) time.Duration {
	id := t.begin(req, parent, name)
	fn()
	return t.end(id)
}

// spanFile is the on-disk form of a traced run's spans.
type spanFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Spans    []span `json:"spans"`
}

func (t *tracer) write(path, workload string, seed int64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	raw, err := json.Marshal(spanFile{Workload: workload, Seed: seed, Spans: t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

func loadSpans(path string) (*spanFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f spanFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// selfTimes returns each span's self time — its duration minus the part its
// children cover — and checks the accounting: within every request the self
// times must add up to the root span's duration, which holds exactly when
// every child lies inside its parent and siblings do not overlap.
func selfTimes(spans []span) (self []time.Duration, err error) {
	self = make([]time.Duration, len(spans))
	rootOf := make([]int, len(spans))
	lastEnd := make([]int64, len(spans)) // end of the latest child seen, per parent
	for i, s := range spans {
		if s.ID != i {
			return nil, fmt.Errorf("span %d carries ID %d", i, s.ID)
		}
		if s.End < s.Start {
			return nil, fmt.Errorf("span %d (%s) was never closed", i, s.Name)
		}
		self[i] += s.dur()
		lastEnd[i] = s.Start
		if s.Parent < 0 {
			rootOf[i] = i
			continue
		}
		if s.Parent >= i {
			return nil, fmt.Errorf("span %d (%s) names a later span as its parent", i, s.Name)
		}
		p := spans[s.Parent]
		if s.Req != p.Req || s.Start < lastEnd[s.Parent] || s.End > p.End {
			return nil, fmt.Errorf("span %d (%s) does not nest inside span %d (%s)", i, s.Name, p.ID, p.Name)
		}
		lastEnd[s.Parent] = s.End
		self[s.Parent] -= s.dur()
		rootOf[i] = rootOf[s.Parent]
	}
	sums := make(map[int]time.Duration)
	for i := range spans {
		sums[rootOf[i]] += self[i]
	}
	for root, sum := range sums {
		if sum != spans[root].dur() {
			return nil, fmt.Errorf("request %d: self times add up to %v, the request span is %v", spans[root].Req, sum, spans[root].dur())
		}
	}
	return self, nil
}

// spansMain implements `bench spans FILE`: load a span file, check its
// accounting and print self time by span name.
func spansMain(args []string) int {
	if len(args) != 1 {
		fmt.Fprintln(os.Stderr, "usage: bench spans FILE")
		return 2
	}
	f, err := loadSpans(args[0])
	if err == nil {
		err = printSelfTimes(f)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench spans: %v\n", err)
		return 1
	}
	return 0
}

func printSelfTimes(f *spanFile) error {
	self, err := selfTimes(f.Spans)
	if err != nil {
		return err
	}
	type agg struct {
		n     int
		total time.Duration
	}
	byName := map[string]*agg{}
	requests := map[int]bool{}
	var all time.Duration
	for i, s := range f.Spans {
		a := byName[s.Name]
		if a == nil {
			a = &agg{}
			byName[s.Name] = a
		}
		a.n++
		a.total += self[i]
		all += self[i]
		requests[s.Req] = true
	}
	names := make([]string, 0, len(byName))
	for name := range byName {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return byName[names[i]].total > byName[names[j]].total })
	fmt.Printf("%s seed %d: %d spans of %d requests; per request the self times add up to the request span\n",
		f.Workload, f.Seed, len(f.Spans), len(requests))
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "span\tcount\tself total\tself mean\tshare\t")
	for _, name := range names {
		a := byName[name]
		fmt.Fprintf(tw, "%s\t%d\t%v\t%v\t%.1f%%\t\n", name, a.n, a.total.Round(time.Microsecond),
			(a.total / time.Duration(a.n)).Round(10*time.Nanosecond), 100*float64(a.total)/float64(max(all, 1)))
	}
	return tw.Flush()
}
