// Package cache provides a sharded, fixed-capacity LRU cache safe for
// concurrent use. String keys are hashed onto independently locked shards,
// so readers on different shards never contend; each shard evicts in
// least-recently-used order. GetOrCompute collapses concurrent misses on
// the same key into one computation (singleflight), which keeps expensive
// fills — rendered citation tokens, whole citation results — from being
// duplicated under load.
package cache

import (
	"errors"
	"sync"
)

// Sharded is a concurrency-safe LRU cache split across 2^k shards.
type Sharded[V any] struct {
	shards []*shard[V]
	mask   uint32
}

// Stats aggregates cache counters across shards. Counters accumulate for
// the cache's lifetime; Purge does not reset them.
type Stats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	// Waits counts GetOrCompute callers that joined another caller's
	// in-flight computation (singleflight). A wait on a flight that
	// succeeds also counts as a hit, so with error-free computes
	// Waits <= Hits; a high ratio means heavy duplicate-key contention.
	Waits uint64
}

type entry[V any] struct {
	key        string
	val        V
	prev, next *entry[V]
}

// call is one in-flight computation; its waiters wait on done, which the
// leader marks once val and err are set.
type call[V any] struct {
	done sync.WaitGroup
	val  V
	err  error
}

type shard[V any] struct {
	mu       sync.Mutex
	capacity int
	m        map[string]*entry[V]
	inflight map[string]*call[V]
	// Intrusive doubly-linked list, most recent at head.
	head, tail *entry[V]
	stats      Stats
}

// NewSharded creates a cache with the given shard count (rounded up to a
// power of two, minimum 1) and total capacity split evenly across shards
// (minimum 1 entry per shard).
func NewSharded[V any](shards, capacity int) *Sharded[V] {
	n := 1
	for n < shards {
		n <<= 1
	}
	per := capacity / n
	if per < 1 {
		per = 1
	}
	c := &Sharded[V]{shards: make([]*shard[V], n), mask: uint32(n - 1)}
	for i := range c.shards {
		c.shards[i] = &shard[V]{
			capacity: per,
			m:        make(map[string]*entry[V]),
			inflight: make(map[string]*call[V]),
		}
	}
	return c
}

// shardHash hashes the key for shard selection: FNV-1a, then a finalizer
// that folds its high bits into the low ones the shard mask keeps. A
// multiply carries only upward, so FNV-1a's own low k bits depend on nothing
// but the low k bits of each key byte; keys that differ in trailing ASCII
// digits — one text per family id — would bunch on a few shards.
func shardHash(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	h ^= h >> 16 // murmur3's fmix32
	h *= 0x85ebca6b
	h ^= h >> 13
	h *= 0xc2b2ae35
	h ^= h >> 16
	return h
}

func (c *Sharded[V]) shard(key string) *shard[V] {
	return c.shards[shardHash(key)&c.mask]
}

// Get returns the cached value for key, marking it most recently used.
func (c *Sharded[V]) Get(key string) (V, bool) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.m[key]; ok {
		s.moveToFront(e)
		s.stats.Hits++
		return e.val, true
	}
	s.stats.Misses++
	var zero V
	return zero, false
}

// Peek returns the cached value for key without marking it used or counting
// a hit or a miss: for a reader passing through once, whose reads should
// neither reorder the cache nor show in its traffic.
func (c *Sharded[V]) Peek(key string) (V, bool) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.m[key]
	if !ok {
		var zero V
		return zero, false
	}
	return e.val, true
}

// Put stores the value for key, evicting the least recently used entry of
// the key's shard when over capacity.
func (c *Sharded[V]) Put(key string, v V) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.put(key, v)
}

// GetOrCompute returns the cached value for key, computing and caching it
// on a miss. Concurrent callers missing on the same key share a single
// computation: one runs compute, the rest block until it finishes. Errors
// are never cached, and they are never inherited either: a leader's failure
// may be private to its own request (context cancellation, a transient
// shard fault), so each waiter of a failed flight loops back and computes
// for itself instead of surfacing someone else's error. Waiters that join
// a flight count as Waits; joining a flight that succeeds additionally
// counts as a hit (the caller did not pay for a compute). The returned
// bool reports whether the value was served without running compute in
// this call (cache hit or joined successful flight).
func (c *Sharded[V]) GetOrCompute(key string, compute func() (V, error)) (V, bool, error) {
	return c.GetOrRefresh(key, key, nil, func(V, bool) (V, error) { return compute() }, nil)
}

// GetOrRefresh is GetOrCompute for values that go stale. The value cached
// under key serves only when fresh accepts it (nil fresh accepts any);
// otherwise refresh computes a replacement, given the stale value (ok false
// when key holds none). The replacement is stored unless keep(cached,
// replacement) says the value cached by then must stay — another caller's,
// newer than this one (nil keep replaces it). Callers missing with the same
// flight key share one refresh, as GetOrCompute's callers missing on one key
// do; callers with different flight keys — whose fresh values differ —
// refresh independently. A cache should be used through one of the two
// methods, not both.
func (c *Sharded[V]) GetOrRefresh(key, flight string, fresh func(V) bool, refresh func(stale V, ok bool) (V, error), keep func(cached, v V) bool) (V, bool, error) {
	s := c.shard(key)
	s.mu.Lock()
	for {
		if e, ok := s.m[key]; ok && (fresh == nil || fresh(e.val)) {
			s.moveToFront(e)
			s.stats.Hits++
			v := e.val
			s.mu.Unlock()
			return v, true, nil
		}
		cl, ok := s.inflight[flight]
		if !ok {
			break
		}
		s.stats.Waits++
		s.mu.Unlock()
		cl.done.Wait()
		if cl.err == nil {
			s.mu.Lock()
			s.stats.Hits++
			s.mu.Unlock()
			return cl.val, true, nil
		}
		// The flight failed. Its error belongs to the leader's request, not
		// ours — retry: the key may have been filled meanwhile, another
		// flight may be up, or we become the new leader.
		s.mu.Lock()
	}
	var stale V
	e, had := s.m[key]
	if had {
		stale = e.val
	}
	cl := &call[V]{}
	cl.done.Add(1)
	s.inflight[flight] = cl
	s.stats.Misses++
	s.mu.Unlock()

	// Unregister and release waiters even if refresh panics: otherwise the
	// flight would be wedged forever with every waiter blocked on done.
	finished := false
	defer func() {
		s.mu.Lock()
		delete(s.inflight, flight)
		if finished && cl.err == nil {
			if e, ok := s.m[key]; !ok || keep == nil || !keep(e.val, cl.val) {
				s.put(key, cl.val)
			}
		} else if !finished {
			cl.err = errComputePanicked
		}
		s.mu.Unlock()
		cl.done.Done()
	}()
	cl.val, cl.err = refresh(stale, had)
	finished = true
	return cl.val, false, cl.err
}

// errComputePanicked is handed to waiters whose leader's compute panicked;
// the panic itself propagates on the leader's goroutine.
var errComputePanicked = errors.New("cache: compute panicked")

// Len returns the number of cached entries.
func (c *Sharded[V]) Len() int {
	n := 0
	for _, s := range c.shards {
		s.mu.Lock()
		n += len(s.m)
		s.mu.Unlock()
	}
	return n
}

// Purge drops every cached entry. Counters are preserved and in-flight
// computations complete normally (their results land in the purged cache).
func (c *Sharded[V]) Purge() {
	for _, s := range c.shards {
		s.mu.Lock()
		s.m = make(map[string]*entry[V])
		s.head, s.tail = nil, nil
		s.mu.Unlock()
	}
}

// PerShard returns every shard's counters in shard order, for callers that
// surface the cache's load distribution (e.g. the citesrv /stats endpoint).
func (c *Sharded[V]) PerShard() []Stats {
	out := make([]Stats, len(c.shards))
	for i, s := range c.shards {
		s.mu.Lock()
		out[i] = s.stats
		s.mu.Unlock()
	}
	return out
}

// Stats sums counters across shards.
func (c *Sharded[V]) Stats() Stats {
	var out Stats
	for _, s := range c.shards {
		s.mu.Lock()
		out.Hits += s.stats.Hits
		out.Misses += s.stats.Misses
		out.Evictions += s.stats.Evictions
		out.Waits += s.stats.Waits
		s.mu.Unlock()
	}
	return out
}

// put inserts or refreshes an entry. Caller holds s.mu.
func (s *shard[V]) put(key string, v V) {
	if e, ok := s.m[key]; ok {
		e.val = v
		s.moveToFront(e)
		return
	}
	e := &entry[V]{key: key, val: v}
	s.m[key] = e
	s.pushFront(e)
	if len(s.m) > s.capacity {
		lru := s.tail
		s.unlink(lru)
		delete(s.m, lru.key)
		s.stats.Evictions++
	}
}

func (s *shard[V]) pushFront(e *entry[V]) {
	e.prev = nil
	e.next = s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}

func (s *shard[V]) unlink(e *entry[V]) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (s *shard[V]) moveToFront(e *entry[V]) {
	if s.head == e {
		return
	}
	s.unlink(e)
	s.pushFront(e)
}
