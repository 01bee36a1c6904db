package citare

// B12–B13 — concurrency benchmarks for the read path: shared-engine
// throughput under concurrent Cite load (lock contention), and snapshot
// cost.

import (
	"context"
	"fmt"
	"testing"

	"citare/internal/backend"
	"citare/internal/gtopdb"
	"citare/internal/lsm"
	"citare/internal/shard"
	"citare/internal/storage"
)

// B12 — shared-engine throughput under concurrent Cite load: one engine,
// GOMAXPROCS client goroutines, mixed query set. Compares against the same
// engine driven from a single goroutine to expose lock contention.
func BenchmarkConcurrentCite(b *testing.B) {
	cfg := gtopdb.DefaultConfig()
	cfg.Families = 400
	db := gtopdb.Generate(cfg)
	queries := []string{
		`Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), Ty = "type-01"`,
		`Q(N) :- Family(F, N, Ty), Ty = "type-02"`,
		`Q(N, Pn) :- Family(F, N, Ty), FC(F, P), Person(P, Pn, A), Ty = "type-03"`,
	}
	for _, mode := range []string{"serial", "concurrent"} {
		b.Run(mode, func(b *testing.B) {
			c, err := NewFromProgram(db, gtopdb.ViewsProgram)
			if err != nil {
				b.Fatal(err)
			}
			// Warm plans and tokens so both modes measure steady state.
			if _, err := c.Cite(context.Background(), Request{Datalog: queries[0]}); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			if mode == "serial" {
				for i := 0; i < b.N; i++ {
					if _, err := c.Cite(context.Background(), Request{Datalog: queries[i%len(queries)]}); err != nil {
						b.Fatal(err)
					}
				}
				return
			}
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					if _, err := c.Cite(context.Background(), Request{Datalog: queries[i%len(queries)]}); err != nil {
						b.Fatal(err)
					}
					i++
				}
			})
		})
	}
}

// B12 (continued) — cached engine under the same concurrent load: after
// warmup every request is a cache hit, measuring pure cache contention.
func BenchmarkConcurrentCachedCite(b *testing.B) {
	cfg := gtopdb.DefaultConfig()
	cfg.Families = 400
	db := gtopdb.Generate(cfg)
	base, err := NewFromProgram(db, gtopdb.ViewsProgram)
	if err != nil {
		b.Fatal(err)
	}
	c := NewCached(base)
	query := `Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), Ty = "type-01"`
	if _, err := c.Cite(context.Background(), Request{Datalog: query}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := c.Cite(context.Background(), Request{Datalog: query}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// B13 — snapshot cost: taking a snapshot is O(relations), and the first
// write after a snapshot pays the copy-on-write clone.
func BenchmarkSnapshot(b *testing.B) {
	cfg := gtopdb.DefaultConfig()
	cfg.Families = 2000
	db := gtopdb.Generate(cfg)
	b.Run("take", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = db.Snapshot()
		}
	})
	b.Run("take+first-write", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = db.Snapshot()
			db.MustInsert("Family", fmt.Sprintf("s%d", i), "N", "type-01")
		}
	})
}

// Engine Reset — publishing a new epoch is a snapshot and an empty plan
// cache in every storage mode: O(relations) (× shards), never O(tuples).
func BenchmarkEngineReset(b *testing.B) {
	cfg := gtopdb.DefaultConfig()
	cfg.Families = 2000
	db := gtopdb.Generate(cfg)
	modes := []struct {
		name  string
		build func() (*Citer, error)
	}{
		{"mem", func() (*Citer, error) { return NewFromProgram(db, gtopdb.ViewsProgram) }},
		{"shards=4", func() (*Citer, error) {
			sdb, err := shard.FromDB(db, 4)
			if err != nil {
				return nil, err
			}
			return NewShardedFromProgram(sdb, gtopdb.ViewsProgram)
		}},
		{"lsm", func() (*Citer, error) {
			store, err := backend.OpenLSM(b.TempDir(), db.Schema(), lsm.Options{})
			if err != nil {
				return nil, err
			}
			b.Cleanup(func() { store.Close() })
			for _, rs := range db.Schema().Relations() {
				var ierr error
				db.Relation(rs.Name).Scan(func(tu storage.Tuple) bool {
					ierr = store.Insert(rs.Name, tu...)
					return ierr == nil
				})
				if ierr != nil {
					return nil, ierr
				}
			}
			if _, err := store.Commit("load"); err != nil {
				return nil, err
			}
			return NewBackendFromProgram(store, gtopdb.ViewsProgram)
		}},
	}
	for _, mode := range modes {
		b.Run(mode.name, func(b *testing.B) {
			c, err := mode.build()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.Reset(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
