package cache

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

func TestGetPut(t *testing.T) {
	c := NewSharded[int](4, 64)
	if _, ok := c.Get("a"); ok {
		t.Fatal("empty cache hit")
	}
	c.Put("a", 1)
	c.Put("b", 2)
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("a: %v %v", v, ok)
	}
	c.Put("a", 3)
	if v, _ := c.Get("a"); v != 3 {
		t.Fatalf("overwrite lost: %v", v)
	}
	if c.Len() != 2 {
		t.Fatalf("len %d", c.Len())
	}
}

func TestEvictsLRUOrder(t *testing.T) {
	// One shard with capacity 2 makes eviction order observable.
	c := NewSharded[string](1, 2)
	c.Put("a", "A")
	c.Put("b", "B")
	c.Get("a") // refresh a: b is now LRU
	c.Put("c", "C")
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("%s evicted unexpectedly", k)
		}
	}
	if s := c.Stats(); s.Evictions != 1 {
		t.Fatalf("evictions %d", s.Evictions)
	}
}

// Peek neither refreshes an entry nor counts: the peeked entry is still
// the least recently used one and is evicted next.
func TestPeekLeavesOrderAndCounters(t *testing.T) {
	c := NewSharded[string](1, 2)
	c.Put("a", "A")
	c.Put("b", "B")
	if v, ok := c.Peek("a"); !ok || v != "A" {
		t.Fatalf("peek a: %q %v", v, ok)
	}
	if _, ok := c.Peek("z"); ok {
		t.Fatal("peek of an absent key hit")
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("peeks counted: %+v", st)
	}
	c.Put("c", "C")
	if _, ok := c.Peek("a"); ok {
		t.Fatal("a was peeked, not used: it should have been evicted")
	}
}

func TestGetOrComputeSingleflight(t *testing.T) {
	c := NewSharded[int](4, 64)
	var computes atomic.Int32
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			v, _, err := c.GetOrCompute("k", func() (int, error) {
				computes.Add(1)
				return 42, nil
			})
			if err != nil || v != 42 {
				t.Errorf("got %v, %v", v, err)
			}
		}()
	}
	close(start)
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Fatalf("compute ran %d times, want 1", n)
	}
	s := c.Stats()
	if s.Hits+s.Misses != 16 || s.Misses != 1 {
		t.Fatalf("stats %+v", s)
	}
}

func TestGetOrComputeErrorNotCached(t *testing.T) {
	c := NewSharded[int](1, 4)
	boom := errors.New("boom")
	if _, _, err := c.GetOrCompute("k", func() (int, error) { return 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("err %v", err)
	}
	if c.Len() != 0 {
		t.Fatal("error cached")
	}
	v, _, err := c.GetOrCompute("k", func() (int, error) { return 7, nil })
	if err != nil || v != 7 {
		t.Fatalf("retry: %v %v", v, err)
	}
}

// TestGetOrComputeWaitersNotPoisoned: a waiter joining a flight whose
// leader fails (e.g. the leader's request was canceled, or it hit a
// transient shard fault) must never inherit the leader's error — it
// retries with its own compute and succeeds.
func TestGetOrComputeWaitersNotPoisoned(t *testing.T) {
	c := NewSharded[int](1, 4)
	boom := errors.New("transient: leader-private failure")
	leaderIn := make(chan struct{})
	leaderGo := make(chan struct{})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, err := c.GetOrCompute("k", func() (int, error) {
			close(leaderIn)
			<-leaderGo
			return 0, boom
		})
		if !errors.Is(err, boom) {
			t.Errorf("leader err = %v, want its own failure", err)
		}
	}()
	<-leaderIn

	// 8 waiters pile onto the in-flight computation before it fails.
	var waiterComputes atomic.Int32
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, _, err := c.GetOrCompute("k", func() (int, error) {
				waiterComputes.Add(1)
				return 42, nil
			})
			if err != nil {
				t.Errorf("waiter inherited error %v", err)
			}
			if v != 42 {
				t.Errorf("waiter got %d, want 42", v)
			}
		}()
	}
	// Give the waiters a chance to join the flight, then fail it.
	for {
		if c.Stats().Waits > 0 {
			break
		}
	}
	close(leaderGo)
	wg.Wait()

	if n := waiterComputes.Load(); n < 1 {
		t.Fatal("no waiter recomputed after the leader's failure")
	}
	if v, ok := c.Get("k"); !ok || v != 42 {
		t.Fatalf("cache holds %v/%v, want the waiters' 42", v, ok)
	}
}

func TestPurgePreservesCounters(t *testing.T) {
	c := NewSharded[int](2, 8)
	c.Put("a", 1)
	c.Get("a")
	c.Get("zzz")
	before := c.Stats()
	c.Purge()
	if c.Len() != 0 {
		t.Fatal("purge left entries")
	}
	if after := c.Stats(); after != before {
		t.Fatalf("purge reset counters: %+v vs %+v", after, before)
	}
	c.Put("a", 2)
	if v, ok := c.Get("a"); !ok || v != 2 {
		t.Fatal("cache unusable after purge")
	}
}

// TestConcurrentHitEvictStress hammers a small cache from many goroutines
// with overlapping key ranges so hits, misses, evictions and singleflight
// joins all interleave; run under -race.
func TestConcurrentHitEvictStress(t *testing.T) {
	c := NewSharded[int](4, 32) // far smaller than the key space: constant eviction
	const goroutines = 16
	const opsPer = 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < opsPer; i++ {
				k := fmt.Sprintf("k%d", (g*7+i)%100)
				switch i % 3 {
				case 0:
					c.Put(k, i)
				case 1:
					c.Get(k)
				case 2:
					if v, _, err := c.GetOrCompute(k, func() (int, error) { return i, nil }); err != nil || v < 0 {
						t.Errorf("GetOrCompute: %v %v", v, err)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 32 {
		t.Fatalf("capacity exceeded: %d", c.Len())
	}
	s := c.Stats()
	if s.Hits+s.Misses == 0 {
		t.Fatal("no traffic recorded")
	}
}
