package rewrite

import (
	"fmt"
	"testing"

	"citare/internal/cq"
	"citare/internal/workload"
)

// benchEnumerate times Enumerate of q over views and reports how many
// rewritings it returns.
func benchEnumerate(b *testing.B, q *cq.Query, views []*cq.Query, opts Options) {
	var n int
	for i := 0; i < b.N; i++ {
		rs, err := Enumerate(q, views, opts)
		if err != nil {
			b.Fatal(err)
		}
		n = len(rs)
	}
	b.ReportMetric(float64(n), "rewritings")
}

// BenchmarkEnumerateViews prices the rewriting search as the view set grows
// over a fixed 6-chain (§4: "it is infeasible … to go through all
// rewritings"). A 6-chain admits 6+5+…+1 = 21 window views; the sweep starts
// at the 6 span-1 windows, the smallest set that covers the chain.
func BenchmarkEnumerateViews(b *testing.B) {
	q := workload.ChainQuery(6)
	for _, n := range []int{6, 11, 15, 18, 21} {
		views := workload.WindowViews(6, n)
		b.Run(fmt.Sprintf("views=%d", len(views)), func(b *testing.B) {
			benchEnumerate(b, q, views, Options{})
		})
	}
}

// BenchmarkEnumerateQuerySize prices the rewriting search as the query grows:
// a k-chain over 2k window views.
func BenchmarkEnumerateQuerySize(b *testing.B) {
	for _, k := range []int{1, 2, 3, 4, 5, 6} {
		q, views := workload.ChainQuery(k), workload.WindowViews(k, 2*k)
		b.Run(fmt.Sprintf("subgoals=%d", k), func(b *testing.B) {
			benchEnumerate(b, q, views, Options{})
		})
	}
}

// BenchmarkEnumerateMinimality prices Definition 2.2's minimality checks:
// certified minimal rewritings against the raw covers, partial ones allowed
// in both, of a 5-chain over 12 window views.
func BenchmarkEnumerateMinimality(b *testing.B) {
	q, views := workload.ChainQuery(5), workload.WindowViews(5, 12)
	b.Run("certified+minimal", func(b *testing.B) {
		benchEnumerate(b, q, views, Options{AllowPartial: true})
	})
	b.Run("raw-covers", func(b *testing.B) {
		benchEnumerate(b, q, views, Options{AllowPartial: true, SkipMinimality: true})
	})
}
