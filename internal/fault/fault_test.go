package fault_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"citare/internal/eval"
	"citare/internal/fault"
	"citare/internal/gtopdb"
	"citare/internal/shard"
	"citare/internal/storage"
)

// injected wraps the paper instance, split over two shards, in a fresh
// injector.
func injected(t *testing.T) (*fault.Injector, eval.Partitioned) {
	t.Helper()
	sdb, err := shard.FromDB(gtopdb.PaperInstance(), 2)
	if err != nil {
		t.Fatal(err)
	}
	in := fault.NewInjector()
	return in, in.Wrap(sdb)
}

// scan reads every Family tuple of shard si through p and returns how many
// it saw.
func scan(ctx context.Context, p eval.Partitioned, si int) (int, error) {
	n := 0
	err := p.ShardScan(ctx, si, "Family", nil, nil, func(storage.Tuple) bool {
		n++
		return true
	})
	return n, err
}

func transient(err error) bool {
	var tr eval.Transienter
	return errors.As(err, &tr) && tr.Transient()
}

// TestInjectorPassesThrough: without a fault a wrapped scan delivers what
// the shard holds, and a fault on one shard leaves the other alone.
func TestInjectorPassesThrough(t *testing.T) {
	in, p := injected(t)
	ctx := context.Background()
	total := 0
	for si := 0; si < p.NumShards(); si++ {
		n, err := scan(ctx, p, si)
		if err != nil {
			t.Fatal(err)
		}
		total += n
	}
	if want := gtopdb.PaperInstance().Relation("Family").Len(); total != want {
		t.Fatalf("wrapped scans saw %d Family tuples, want %d", total, want)
	}
	in.SetFault(0, fault.ShardFault{Permanent: true})
	if _, err := scan(ctx, p, 1); err != nil {
		t.Fatalf("shard 1 failed under a fault on shard 0: %v", err)
	}
}

// TestInjectorFailOps: FailOps fails the first scans with a transient error
// rooted in fault.Err, then lets scans through; SetFault starts the count
// over.
func TestInjectorFailOps(t *testing.T) {
	in, p := injected(t)
	ctx := context.Background()
	for round := 0; round < 2; round++ {
		in.SetFault(0, fault.ShardFault{FailOps: 2})
		for i := 0; i < 3; i++ {
			_, err := scan(ctx, p, 0)
			if i < 2 {
				if !errors.Is(err, fault.Err) || !transient(err) {
					t.Fatalf("round %d, scan %d: err = %v, want a transient fault.Err", round, i, err)
				}
			} else if err != nil {
				t.Fatalf("round %d, scan %d: err = %v past the fail budget", round, i, err)
			}
		}
	}
}

// TestInjectorPermanent: a permanent fault fails every scan, and its error
// is not transient.
func TestInjectorPermanent(t *testing.T) {
	in, p := injected(t)
	in.SetFault(1, fault.ShardFault{Permanent: true})
	for i := 0; i < 3; i++ {
		_, err := scan(context.Background(), p, 1)
		if !errors.Is(err, fault.Err) || transient(err) {
			t.Fatalf("scan %d: err = %v, want a permanent fault.Err", i, err)
		}
	}
}

// TestInjectorStall: a stalled scan returns the context's error once it is
// canceled or expires, and nothing before.
func TestInjectorStall(t *testing.T) {
	in, p := injected(t)
	in.SetFault(0, fault.ShardFault{Stall: true})
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(10*time.Millisecond, cancel)
	if _, err := scan(ctx, p, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled stall: err = %v, want context.Canceled", err)
	}
	ctx, cancel = context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := scan(ctx, p, 0); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired stall: err = %v, want context.DeadlineExceeded", err)
	}
}

// TestInjectorZeroFaultClears: a zero ShardFault clears the shard's
// schedule, and Clear clears every shard's.
func TestInjectorZeroFaultClears(t *testing.T) {
	in, p := injected(t)
	ctx := context.Background()
	in.SetFault(0, fault.ShardFault{Permanent: true})
	in.SetFault(0, fault.ShardFault{})
	if _, err := scan(ctx, p, 0); err != nil {
		t.Fatalf("after a zero fault: %v", err)
	}
	in.SetFault(0, fault.ShardFault{Permanent: true})
	in.SetFault(1, fault.ShardFault{Permanent: true})
	in.Clear()
	for si := 0; si < 2; si++ {
		if _, err := scan(ctx, p, si); err != nil {
			t.Fatalf("shard %d after Clear: %v", si, err)
		}
	}
}
