package eval_test

// Mid-enumeration cancellation across both execution strategies of Plan.Each
// (sequential descent, scatter-gather) and the scatter's worker and attempt
// configurations.
// External test package: the scatter strategies need internal/shard, which
// imports eval.

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"citare/internal/cq"
	"citare/internal/eval"
	"citare/internal/fault"
	"citare/internal/shard"
	"citare/internal/storage"
	"citare/internal/workload"
)

// strategy is one way Plan.Each can run a query: the view decides between
// the sequential descent and scatter-gather, the options between one worker
// and a pool of them and between the one-attempt and the resilient policy,
// the query's first atom between reading every shard and a pruned one.
type strategy struct {
	name string
	base *storage.DB // the unpartitioned data, for a sequential reference
	view eval.DBView
	q    *cq.Query
	opts eval.Options
}

// strategies enumerates the execution configurations of Plan.Each over the
// chain-join workload: sequential descent; a pool of 4 workers draining 8
// shards; a selective first atom (~37 candidates) pruned to one of 16
// shards, whose join expands through the union view; one worker per shard
// of 4; and the resilient policy over a fault-free injector.
func strategies(t *testing.T) []strategy {
	t.Helper()
	db := workload.ChainDB(3, 600, 64, 7)
	split := func(db *storage.DB, n int) eval.Partitioned {
		sdb, err := shard.FromDB(db, n)
		if err != nil {
			t.Fatal(err)
		}
		return sdb
	}
	sharded := split(db, 4)
	q := workload.ChainQuery(3)
	dense := workload.ChainDB(3, 2400, 64, 7)
	selective := workload.ChainQuery(3).Apply(cq.Subst{"X0": cq.Const("n0_0")})
	return []strategy{
		{"sequential", db, eval.DBViewOf(db), q, eval.Options{Parallel: 1}},
		{"pool-4", db, split(db, 8), q, eval.Options{Parallel: 4}},
		{"expanded-16", dense, split(dense, 16), selective, eval.Options{Parallel: 16}},
		{"scatter-4", db, sharded, q, eval.Options{Parallel: 4}},
		{"resilient-4", db, eval.Resilient(fault.NewInjector().Wrap(sharded), fastResilience()), q, eval.Options{Parallel: 4}},
	}
}

// TestCancelMidEnumeration cancels the context from inside the binding
// callback after the first delivery and requires (1) the enumeration to
// abort with context.Canceled instead of running dry, (2) only a bounded
// number of further deliveries (each worker re-checks the context at least
// every 256 candidate tuples), and (3) no leaked worker goroutines.
func TestCancelMidEnumeration(t *testing.T) {
	for _, st := range strategies(t) {
		t.Run(st.name, func(t *testing.T) {
			plan, err := eval.Compile(st.view, st.q)
			if err != nil {
				t.Fatal(err)
			}
			// Reference: the full binding count, to prove the cancel run
			// stopped early rather than finishing.
			total := 0
			if err := plan.Each(context.Background(), st.opts, func([]string) error {
				total++
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if total < 4096 {
				t.Fatalf("workload too small to observe mid-enumeration cancel: %d bindings", total)
			}

			before := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			delivered := 0
			err = plan.Each(ctx, st.opts, func([]string) error {
				delivered++
				if delivered == 1 {
					cancel()
				}
				return nil
			})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled (delivered %d of %d)", err, delivered, total)
			}
			// Each worker may feed up to 256 more candidates (one check
			// interval) before noticing; anything near the full count
			// means cancellation did not propagate.
			if delivered > total/2 {
				t.Fatalf("delivered %d of %d bindings after cancel", delivered, total)
			}
			waitForGoroutines(t, before)
		})
	}
}

// TestCancelBeforeEnumeration: an already-canceled context returns without
// delivering anything, in every configuration.
func TestCancelBeforeEnumeration(t *testing.T) {
	for _, st := range strategies(t) {
		t.Run(st.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			plan, err := eval.Compile(st.view, st.q)
			if err != nil {
				t.Fatal(err)
			}
			delivered := 0
			err = plan.Each(ctx, st.opts, func([]string) error {
				delivered++
				return nil
			})
			if !errors.Is(err, context.Canceled) || delivered != 0 {
				t.Fatalf("err = %v, delivered = %d; want immediate context.Canceled", err, delivered)
			}
			if _, err := plan.EvalCtx(ctx, st.opts); !errors.Is(err, context.Canceled) {
				t.Fatalf("EvalCtx err = %v, want context.Canceled", err)
			}
		})
	}
}

// TestDeadlineExceededSurfaces: a deadline that expires mid-enumeration
// surfaces context.DeadlineExceeded (not a bare Canceled), so callers can
// map timeouts and client-gone separately.
func TestDeadlineExceededSurfaces(t *testing.T) {
	db := workload.ChainDB(3, 600, 64, 7)
	q := workload.ChainQuery(3)
	plan, err := eval.Compile(eval.DBViewOf(db), q)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	<-ctx.Done() // deadline definitely passed
	err = plan.Each(ctx, eval.Options{Parallel: 1}, func([]string) error {
		return nil
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// waitForGoroutines waits for the goroutine count to settle back to (or
// below) the pre-test level, failing after a generous grace period.
func waitForGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if runtime.NumGoroutine() <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
}
