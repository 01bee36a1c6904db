package citare

// Parity of bound plans through the facade: every engine layout answers a
// query of a warm shape — same query, another constant — as a fresh
// unsharded Citer does, which compiles that query directly.

import (
	"context"
	"fmt"
	"strconv"
	"testing"

	"citare/internal/gtopdb"
	"citare/internal/storage"
)

// shapeRequests asks the point workload's three shapes about one family.
func shapeRequests(fid string) []Request {
	return []Request{
		warmShapeQueries[0].request(fid),
		warmShapeQueries[1].request(fid),
		warmShapeQueries[2].request(fid),
		{Datalog: fmt.Sprintf(`Q(Tx, %q) :- FamilyIntro(F, Tx), F = %q`, fid, fid)}, // the constant labels a column too
	}
}

func shapeParityDB() *storage.DB {
	return gtopdb.Generate(gtopdb.Config{Seed: 3, Families: 120, Types: 6, Persons: 80, CommitteeMin: 2, CommitteeMax: 5, IntroFraction: 0.7})
}

// TestShardedPointLookupsBindConstants: on a sharded engine the first plan
// step's bound constant is what prunes shards, so a plan compiled for one
// family and bound to another must scan the other family's shard. Checked
// for several shard counts, materialized and streamed, uncached and through
// the citation cache.
func TestShardedPointLookupsBindConstants(t *testing.T) {
	ctx := context.Background()
	db := shapeParityDB()
	newPlain := func() *Citer {
		c, err := NewFromProgram(db, gtopdb.ViewsProgram, WithNeutralCitation(gtopdb.DatabaseCitation()))
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	layouts := map[string]*Citer{"plain": newPlain()}
	for _, n := range []int{2, 3, 5} {
		layouts[fmt.Sprintf("shards=%d", n)] = shardedPaperCiter(t, db, n)
	}
	cached := NewCached(shardedPaperCiter(t, db, 3))
	for f := 0; f < 40; f++ {
		fid := strconv.Itoa(100 + f)
		for _, req := range shapeRequests(fid) {
			direct, err := newPlain().Cite(ctx, req) // never saw the shape: compiles this query
			if err != nil {
				t.Fatal(err)
			}
			want := citationFingerprint(t, direct)
			for name, c := range layouts {
				got, err := c.Cite(ctx, req)
				if err != nil {
					t.Fatalf("%s %v: %v", name, req, err)
				}
				if fp := citationFingerprint(t, got); fp != want {
					t.Fatalf("%s %v: bound plan diverged from direct compile\n got %s\nwant %s", name, req, fp, want)
				}
				assertStreamMatchesCite(t, c, req)
			}
			got, err := cached.Cite(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			if fp := citationFingerprint(t, got); fp != want {
				t.Fatalf("cached %v: bound plan diverged from direct compile\n got %s\nwant %s", req, fp, want)
			}
		}
	}
	for name, c := range layouts {
		if _, misses := c.Engine().LogicalPlanStats(); misses > uint64(len(shapeRequests("x"))) {
			t.Fatalf("%s: %d rewriting enumerations for %d shapes — nothing was bound", name, misses, len(shapeRequests("x")))
		}
	}
}
