package citare

// Facade-level cancellation property tests on the gtopdb join workload:
// prompt ErrCanceled in both execution strategies (sequential descent,
// scatter-gather with and without resilience), no goroutine leaks,
// race-clean under GOMAXPROCS 1 and 4 (CI runs both).

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"citare/internal/gtopdb"
	"citare/internal/shard"
)

const gtopdbJoinQuery = `Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), Ty = "type-01"`

// cancelCiters builds one Citer per execution strategy over a generated
// gtopdb instance large enough that the join runs long — and the scatter's
// plans large enough for Auto to run a shard pool where cores allow.
func cancelCiters(t testing.TB) map[string]*Citer {
	t.Helper()
	cfg := gtopdb.DefaultConfig()
	cfg.Families = 2000
	db := gtopdb.Generate(cfg)
	sdb, err := shard.FromDB(db, 4)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]*Citer, 3)
	if out["sequential"], err = NewFromProgram(db, gtopdb.ViewsProgram); err != nil {
		t.Fatal(err)
	}
	if out["resilient-4"], err = NewShardedFromProgram(sdb, gtopdb.ViewsProgram, WithResilience(ResilienceConfig{Seed: 1})); err != nil {
		t.Fatal(err)
	}
	if out["scatter-4"], err = NewShardedFromProgram(sdb, gtopdb.ViewsProgram); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestCiteCancelDuringStream cancels deterministically mid-pipeline: the
// CiteEach callback cancels the context after the first tuple, and the
// stream must abort with ErrCanceled instead of delivering the rest.
func TestCiteCancelDuringStream(t *testing.T) {
	for name, citer := range cancelCiters(t) {
		t.Run(name, func(t *testing.T) {
			// The workload yields many tuples; count them once.
			full, err := citer.Cite(context.Background(), Request{Datalog: gtopdbJoinQuery})
			if err != nil {
				t.Fatal(err)
			}
			if full.NumTuples() < 20 {
				t.Fatalf("workload too small: %d tuples", full.NumTuples())
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			streamed := 0
			err = citer.CiteEach(ctx, Request{Datalog: gtopdbJoinQuery}, func(Tuple) error {
				streamed++
				if streamed == 1 {
					cancel()
				}
				return nil
			})
			if !errors.Is(err, ErrCanceled) {
				t.Fatalf("err = %v, want ErrCanceled (streamed %d of %d)", err, streamed, full.NumTuples())
			}
			if streamed >= full.NumTuples() {
				t.Fatalf("stream ran to completion (%d tuples) despite cancel", streamed)
			}
		})
	}
}

// TestCiteCancelPromptly races a cancel against the evaluation with
// shrinking delays until a cancellation lands (the final attempt cancels
// up front, so the loop always terminates), then requires the call to have
// returned ErrCanceled promptly after the cancel and the goroutine count
// to settle — a dead client must not keep cores busy.
func TestCiteCancelPromptly(t *testing.T) {
	for name, citer := range cancelCiters(t) {
		t.Run(name, func(t *testing.T) {
			// Materialize views once so the cancel races the join itself.
			if _, err := citer.Cite(context.Background(), Request{Datalog: gtopdbJoinQuery}); err != nil {
				t.Fatal(err)
			}
			before := runtime.NumGoroutine()
			delays := []time.Duration{time.Millisecond, 200 * time.Microsecond, 0}
			canceled := false
			for _, d := range delays {
				ctx, cancel := context.WithCancel(context.Background())
				cancelAt := make(chan time.Time, 1)
				if d == 0 {
					cancelAt <- time.Now()
					cancel() // guaranteed: canceled before the call starts
				} else {
					go func(d time.Duration) {
						time.Sleep(d)
						cancelAt <- time.Now()
						cancel()
					}(d)
				}
				_, err := citer.Cite(ctx, Request{Datalog: gtopdbJoinQuery})
				returned := time.Now()
				if err == nil {
					cancel()
					continue // evaluation beat the cancel; try a shorter delay
				}
				if !errors.Is(err, ErrCanceled) {
					t.Fatalf("err = %v, want ErrCanceled", err)
				}
				if lag := returned.Sub(<-cancelAt); lag > time.Second {
					t.Fatalf("cancel-to-return took %v", lag)
				}
				canceled = true
				cancel()
				break
			}
			if !canceled {
				t.Fatal("no attempt observed ErrCanceled (unreachable: the last attempt pre-cancels)")
			}
			waitGoroutines(t, before)
		})
	}
}

func waitGoroutines(t *testing.T, before int) {
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
