package eval

import (
	"sync"
	"time"
)

// BreakerState names a circuit breaker's position.
type BreakerState string

const (
	// BreakerClosed: the shard is healthy; attempts flow through.
	BreakerClosed BreakerState = "closed"
	// BreakerOpen: the shard failed repeatedly; attempts are rejected until
	// the cooldown elapses.
	BreakerOpen BreakerState = "open"
	// BreakerHalfOpen: the cooldown elapsed; one probe attempt is in flight
	// and its outcome decides between closed and open.
	BreakerHalfOpen BreakerState = "half-open"
)

const (
	defaultBreakerThreshold = 3
	defaultBreakerCooldown  = 5 * time.Second
)

// Breakers is a set of per-shard circuit breakers shared across resilient
// enumerations (and typically across requests): `threshold` consecutive
// failures open a shard's breaker, rejecting further attempts instantly so
// a down shard costs nothing per request; after `cooldown` the breaker goes
// half-open and admits a single probe, whose outcome closes or re-opens it.
// All methods are safe for concurrent use and nil-safe (a nil *Breakers
// admits everything and records nothing).
type Breakers struct {
	threshold int
	cooldown  time.Duration

	mu     sync.Mutex
	shards []breakerShard
}

type breakerShard struct {
	state    BreakerState
	failures int
	openedAt time.Time
	probing  bool
}

// NewBreakers creates breakers for n shards. threshold <= 0 and cooldown
// <= 0 pick defaults.
func NewBreakers(n, threshold int, cooldown time.Duration) *Breakers {
	if threshold <= 0 {
		threshold = defaultBreakerThreshold
	}
	if cooldown <= 0 {
		cooldown = defaultBreakerCooldown
	}
	b := &Breakers{threshold: threshold, cooldown: cooldown, shards: make([]breakerShard, n)}
	for i := range b.shards {
		b.shards[i].state = BreakerClosed
	}
	return b
}

// Allow reports whether an attempt on shard si may proceed: always in
// closed state, never while open within the cooldown, and exactly one probe
// at a time once the cooldown elapsed (half-open).
func (b *Breakers) Allow(si int) bool {
	if b == nil || si >= len(b.shards) {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	s := &b.shards[si]
	switch s.state {
	case BreakerOpen:
		if time.Since(s.openedAt) < b.cooldown {
			return false
		}
		s.state = BreakerHalfOpen
		s.probing = true
		return true
	case BreakerHalfOpen:
		if s.probing {
			return false
		}
		s.probing = true
		return true
	}
	return true
}

// Success records a completed scan on shard si, closing its breaker.
func (b *Breakers) Success(si int) {
	if b == nil || si >= len(b.shards) {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	s := &b.shards[si]
	s.state = BreakerClosed
	s.failures = 0
	s.probing = false
}

// Release ends an attempt on shard si that its caller cut short — the
// request was canceled, or its consumer stopped the scan — without a
// verdict on the shard: a half-open probe is released, so the next attempt
// probes again instead of finding the breaker wedged half-open.
func (b *Breakers) Release(si int) {
	if b == nil || si >= len(b.shards) {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.shards[si].probing = false
}

// Failure records a failed attempt on shard si and reports whether this
// failure opened (or re-opened) the breaker. A failed half-open probe
// re-opens immediately; in closed state the breaker opens at the
// consecutive-failure threshold.
func (b *Breakers) Failure(si int) bool {
	if b == nil || si >= len(b.shards) {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	s := &b.shards[si]
	s.failures++
	if s.state == BreakerHalfOpen || (s.state != BreakerOpen && s.failures >= b.threshold) {
		s.state = BreakerOpen
		s.openedAt = time.Now()
		s.probing = false
		return true
	}
	return false
}

// State returns shard si's current breaker state.
func (b *Breakers) State(si int) BreakerState {
	if b == nil || si >= len(b.shards) {
		return BreakerClosed
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.shards[si].state
}

// BreakerInfo is one shard's breaker state in a States snapshot.
type BreakerInfo struct {
	Shard    int    `json:"shard"`
	State    string `json:"state"`
	Failures int    `json:"failures"`
}

// States snapshots every shard's breaker for health endpoints.
func (b *Breakers) States() []BreakerInfo {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]BreakerInfo, len(b.shards))
	for i := range b.shards {
		out[i] = BreakerInfo{Shard: i, State: string(b.shards[i].state), Failures: b.shards[i].failures}
	}
	return out
}
