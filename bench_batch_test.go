package citare

// B17 — batch throughput: k concurrent equivalent (and mixed) requests
// through CiteBatch vs. the same requests as independent Cite calls. The
// batch groups equivalent queries, so k copies of one query cost one
// citation evaluation; the independent loop pays k evaluations (the
// logical plan is still cached after the first).

import (
	"context"
	"fmt"
	"testing"

	"citare/internal/gtopdb"
)

// benchBatchCiter builds the shared benchmark citer over the generated
// gtopdb instance and warms its plan and token caches.
func benchBatchCiter(b *testing.B) *Citer {
	b.Helper()
	cfg := gtopdb.DefaultConfig()
	cfg.Families = 500
	citer, err := NewFromProgram(gtopdb.Generate(cfg), gtopdb.ViewsProgram)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := citer.Cite(context.Background(), Request{Datalog: benchJoinQuery}); err != nil {
		b.Fatal(err)
	}
	return citer
}

const benchJoinQuery = `Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), Ty = "type-01"`

// benchMixedQueries are the distinct queries of the mixed batch.
var benchMixedQueries = []string{
	benchJoinQuery,
	`Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), F = "250"`,
	`Q(N) :- Family(F, N, Ty), Ty = "type-02"`,
	`Q(N, Pn) :- Family(F, N, Ty), FC(F, P), Person(P, Pn, A), F = "100"`,
}

// equivalentBatch is k copies of the join query (half as a syntactic
// variant, so grouping must see through the surface form).
func equivalentBatch(k int) []Request {
	reqs := make([]Request, k)
	for i := range reqs {
		q := benchJoinQuery
		if i%2 == 1 {
			q = `Q(Name, Text) :- FamilyIntro(Fid, Text), Family(Fid, Name, Kind), Kind = "type-01"`
		}
		reqs[i] = Request{Datalog: q}
	}
	return reqs
}

// mixedBatch cycles k requests over the distinct queries.
func mixedBatch(k int) []Request {
	reqs := make([]Request, k)
	for i := range reqs {
		reqs[i] = Request{Datalog: benchMixedQueries[i%len(benchMixedQueries)]}
	}
	return reqs
}

// BenchmarkCiteBatch measures one batch of k requests per op — equivalent
// and mixed — against the same requests issued as independent Cite calls.
func BenchmarkCiteBatch(b *testing.B) {
	const k = 16
	for _, bc := range []struct {
		name string
		reqs []Request
	}{
		{"equivalent", equivalentBatch(k)},
		{"mixed", mixedBatch(k)},
	} {
		b.Run(fmt.Sprintf("batch/%s-k=%d", bc.name, k), func(b *testing.B) {
			citer := benchBatchCiter(b)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := citer.CiteBatch(context.Background(), bc.reqs); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("independent/%s-k=%d", bc.name, k), func(b *testing.B) {
			citer := benchBatchCiter(b)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, req := range bc.reqs {
					if _, err := citer.Cite(context.Background(), req); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
