// Package fault provides a deterministic, schedulable fault injector for
// the sharded evaluation backend — the chaos-testing harness of the
// shard-scan attempt policy (eval.Resilient).
//
// An Injector wraps an eval.Partitioned (in practice *shard.DB or one of
// its snapshots) and imposes configured faults at the ShardScan seam: added
// latency, stalls that hold the scan until the attempt's context cancels,
// transient errors that clear after a scheduled number of operations, and
// permanent failures. Faults are per shard and consume deterministically —
// the i-th ShardScan call against a shard always sees the same fate, so a
// chaos test's outcome is reproducible regardless of goroutine
// interleaving within that shard.
//
// The injector models request failures to a shard backend: the fault fires
// before any tuple is produced, matching an RPC that fails or times out
// before a response streams back. Every scatter-gather evaluation reads its
// first join atom through the seam, so an injected fault is seen by every
// engine over the wrapped view — and retried by an attempt policy wrapped
// over the injector; deeper join atoms reading through the union view are
// not injected.
package fault

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"citare/internal/eval"
	"citare/internal/storage"
)

// Err is the root of every injected error; errors.Is(err, fault.Err)
// identifies injector-born failures in tests.
var Err = errors.New("fault: injected")

// injectedError is an injected failure carrying its retryability.
type injectedError struct {
	shard     int
	transient bool
}

func (e *injectedError) Error() string {
	kind := "permanent"
	if e.transient {
		kind = "transient"
	}
	return fmt.Sprintf("fault: injected %s failure on shard %d", kind, e.shard)
}

func (e *injectedError) Unwrap() error { return Err }

// Transient implements eval.Transienter.
func (e *injectedError) Transient() bool { return e.transient }

// ShardFault schedules one shard's behavior. Fault kinds compose in the
// order latency → stall → error: a latency fault delays the scan, a stall
// holds it until the context cancels, and the error kinds fail it.
type ShardFault struct {
	// Latency delays each affected ShardScan call before any tuple flows.
	Latency time.Duration
	// SlowOps limits the latency to the first SlowOps calls on the shard
	// (0 = every call). Lets hedging benchmarks model a one-off straggler:
	// the hedged duplicate call lands after the slow budget and runs fast.
	SlowOps int

	// Stall, when true, blocks affected calls until ctx cancels and then
	// returns ctx.Err() — the pathological straggler.
	Stall bool

	// FailOps fails the first FailOps calls with a transient error, then
	// lets subsequent calls through — the retry-proving fault.
	FailOps int

	// Permanent fails every affected call with a non-retryable error.
	Permanent bool
}

// Injector wraps an eval.Partitioned with scheduled faults. Wrap the live
// or snapshot shard view once and flip faults per shard with SetFault; the
// zero schedule passes everything through untouched.
type Injector struct {
	mu     sync.Mutex
	faults map[int]*shardSchedule
}

type shardSchedule struct {
	fault ShardFault
	ops   int // ShardScan calls consumed against this schedule
}

// NewInjector creates an injector with no faults. Scheduling is
// counter-based: deterministic per shard, independent of interleaving.
func NewInjector() *Injector {
	return &Injector{faults: make(map[int]*shardSchedule)}
}

// SetFault installs (or replaces) shard si's fault schedule, resetting its
// operation counter. A zero ShardFault clears the shard.
func (in *Injector) SetFault(si int, f ShardFault) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if (f == ShardFault{}) {
		delete(in.faults, si)
		return
	}
	in.faults[si] = &shardSchedule{fault: f}
}

// Clear removes every fault.
func (in *Injector) Clear() {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.faults = make(map[int]*shardSchedule)
}

// Wrap returns p with the injector's faults imposed at the ShardScan seam.
// Everything else — the union view, shard pruning — passes through.
// Re-wrap after an engine Reset swaps snapshots: the fault table and its
// counters live on the Injector and survive re-wrapping.
func (in *Injector) Wrap(p eval.Partitioned) eval.Partitioned {
	return &faultyDB{Partitioned: p, in: in}
}

// faultyDB is the injected view: eval.Partitioned calls delegate, ShardScan
// consults the fault schedule first.
type faultyDB struct {
	eval.Partitioned
	in *Injector
}

// ShardScan imposes shard si's scheduled fault, then delegates.
func (f *faultyDB) ShardScan(ctx context.Context, si int, rel string, cols []int, vals []string, fn func(t storage.Tuple) bool) error {
	if err := f.in.inject(ctx, si); err != nil {
		return err
	}
	return f.Partitioned.ShardScan(ctx, si, rel, cols, vals, fn)
}

// inject applies shard si's fault for one operation. It returns nil when
// the operation should proceed to the real backend.
func (in *Injector) inject(ctx context.Context, si int) error {
	in.mu.Lock()
	sched := in.faults[si]
	var (
		op int
		f  ShardFault
	)
	if sched != nil {
		op = sched.ops
		sched.ops++
		f = sched.fault
	}
	in.mu.Unlock()
	if sched == nil {
		return nil
	}

	if f.Latency > 0 && (f.SlowOps == 0 || op < f.SlowOps) {
		t := time.NewTimer(f.Latency)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		}
	}
	if f.Stall {
		<-ctx.Done()
		return ctx.Err()
	}
	if f.Permanent {
		return &injectedError{shard: si, transient: false}
	}
	if op < f.FailOps {
		return &injectedError{shard: si, transient: true}
	}
	return nil
}
