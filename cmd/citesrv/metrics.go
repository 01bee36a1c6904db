package main

import (
	"log"
	"net/http"
	"strconv"
	"time"

	"citare/internal/core"
	"citare/internal/obs"
)

// initObservability builds the server's metrics registry, attaches the
// engine's pipeline metrics (cite latency and per-stage histograms, tuple
// and error counters), and exports the counters that already live
// elsewhere — result/token caches, both plan-cache tiers, per-shard scan
// and lookup counts — as scrape-time sampled series.
func (s *server) initObservability() {
	s.start = time.Now()
	s.reg = obs.NewRegistry()
	s.routes = newRouteMetrics()
	eng := s.citer.Citer().Engine()
	eng.SetMetrics(obs.NewPipelineMetrics(s.reg))

	// Result (citation) cache, including singleflight joins.
	s.reg.CounterFunc("citare_result_cache_hits_total",
		"Citation cache hits (singleflight joiners count as hits).",
		func() uint64 { return s.citer.CacheStats().Hits })
	s.reg.CounterFunc("citare_result_cache_misses_total",
		"Citation cache misses.",
		func() uint64 { return s.citer.CacheStats().Misses })
	s.reg.CounterFunc("citare_result_cache_evictions_total",
		"Citation cache LRU evictions.",
		func() uint64 { return s.citer.CacheStats().Evictions })
	s.reg.CounterFunc("citare_result_cache_waits_total",
		"Callers that joined an in-flight citation computation.",
		func() uint64 { return s.citer.CacheStats().Waits })

	// The two memos around the citation cache: request text → resolved
	// request, cached citation → response bytes.
	s.reg.CounterFunc("citare_resolve_memo_hits_total",
		"Requests whose query text had been parsed, prepared and keyed before.",
		func() uint64 { return s.citer.Citer().ResolveStats().Hits })
	s.reg.CounterFunc("citare_resolve_memo_misses_total",
		"Requests whose query text was parsed, prepared and keyed.",
		func() uint64 { return s.citer.Citer().ResolveStats().Misses })
	s.reg.CounterFunc("citare_resolve_memo_evictions_total",
		"Resolved request texts dropped for newer ones (LRU).",
		func() uint64 { return s.citer.Citer().ResolveStats().Evictions })
	s.reg.CounterFunc("citare_wire_memo_builds_total",
		"Cached citations whose response bytes were built and kept after a cache hit.",
		func() uint64 { b, _ := s.citer.WireStats(); return b })
	s.reg.CounterFunc("citare_wire_memo_built_bytes_total",
		"Response bytes built and kept on cached citations (cumulative: evictions do not reduce it).",
		func() uint64 { _, n := s.citer.WireStats(); return n })
	s.reg.CounterFunc("citare_stream_cache_hits_total",
		"Streams replayed from the citation the cache holds for the request.",
		s.streamHits.Load)
	s.reg.CounterFunc("citare_stream_cache_misses_total",
		"Streams the citation cache did not answer: evaluated, or failed.",
		s.streamMisses.Load)

	// Token render cache (inside the engine; over a persistent store its
	// entries outlive Reset and are brought forward to newer snapshots).
	s.reg.CounterFunc("citare_token_cache_hits_total",
		"Rendered-token cache hits, tokens brought forward to a newer snapshot included.",
		func() uint64 { return eng.TokenCacheStats().Hits })
	s.reg.CounterFunc("citare_token_cache_misses_total",
		"Tokens rendered from scratch.",
		func() uint64 { return eng.TokenCacheStats().Misses })
	s.reg.CounterFunc("citare_token_cache_revalidated_total",
		"Cached tokens brought forward to a newer snapshot instead of rendered again.",
		func() uint64 { return eng.TokenCacheStats().Revalidated })
	s.reg.CounterFunc("citare_token_cache_delta_applied_total",
		"Tokens brought forward whose rows the delta rule extended, re-rendered from the merged rows.",
		func() uint64 { return eng.TokenCacheStats().DeltaApplied })

	// Plan caches: the engine-lifetime logical tier (rewriting enumeration)
	// and the per-epoch physical tier (compiled eval plans), both per query
	// shape — a hit includes "compiled for another constant".
	s.reg.CounterFunc("citare_plan_cache_hits_total",
		"Plan cache hits, by tier (logical = rewritten query, physical = compiled plan).",
		func() uint64 { h, _ := eng.LogicalPlanStats(); return h },
		obs.Label{Key: "tier", Value: "logical"})
	s.reg.CounterFunc("citare_plan_cache_misses_total",
		"Plan cache misses, by tier.",
		func() uint64 { _, m := eng.LogicalPlanStats(); return m },
		obs.Label{Key: "tier", Value: "logical"})
	s.reg.CounterFunc("citare_plan_cache_hits_total",
		"Plan cache hits, by tier (logical = rewritten query, physical = compiled plan).",
		func() uint64 { h, _ := eng.PhysicalPlanStats(); return h },
		obs.Label{Key: "tier", Value: "physical"})
	s.reg.CounterFunc("citare_plan_cache_misses_total",
		"Plan cache misses, by tier.",
		func() uint64 { _, m := eng.PhysicalPlanStats(); return m },
		obs.Label{Key: "tier", Value: "physical"})

	// Sharded deployments: scatter-gather op counts, total and per shard.
	if src, ok := eng.Source().(core.ShardSource); ok {
		sdb := src.DB
		s.reg.CounterFunc("citare_shard_pruned_lookups_total",
			"Point lookups routed to a single shard by key pruning.",
			func() uint64 { return sdb.OpStats().PrunedLookups })
		s.reg.CounterFunc("citare_shard_fanout_lookups_total",
			"Lookups fanned out to every shard (no pruning possible).",
			func() uint64 { return sdb.OpStats().FanoutLookups })
		for i := range sdb.OpStats().PerShard {
			shard := strconv.Itoa(i)
			s.reg.CounterFunc("citare_shard_scans_total",
				"Relation scans served, by shard.",
				func() uint64 { return sdb.OpStats().PerShard[i].Scans },
				obs.Label{Key: "shard", Value: shard})
			s.reg.CounterFunc("citare_shard_lookups_total",
				"Indexed lookups served, by shard.",
				func() uint64 { return sdb.OpStats().PerShard[i].Lookups },
				obs.Label{Key: "shard", Value: shard})
		}
	}

	// Persistent deployments (-data-dir): LSM store internals. Levels are
	// fixed (0 = fresh flushes, 1 = compacted), so per-level series are
	// registered statically.
	if st := s.lsm; st != nil {
		s.reg.GaugeFunc("citare_lsm_version",
			"Current (uncommitted) version of the persistent store.",
			func() float64 { return float64(st.Version()) })
		s.reg.GaugeFunc("citare_lsm_memtable_bytes",
			"Approximate bytes held in the LSM memtable.",
			func() float64 { return float64(st.Stats().MemtableBytes) })
		s.reg.GaugeFunc("citare_lsm_wal_bytes",
			"Bytes appended to the write-ahead log since the last flush.",
			func() float64 { return float64(st.Stats().WALBytes) })
		s.reg.CounterFunc("citare_lsm_flushes_total",
			"Memtable flushes to SSTable since open.",
			func() uint64 { return st.Stats().Flushes })
		s.reg.CounterFunc("citare_lsm_compactions_total",
			"Background compactions completed since open.",
			func() uint64 { return st.Stats().Compactions })
		s.reg.CounterFunc("citare_lsm_block_cache_hits_total",
			"SSTable data blocks served from the block cache.",
			func() uint64 { return st.Stats().BlockCache.Hits })
		s.reg.CounterFunc("citare_lsm_block_cache_misses_total",
			"SSTable data blocks read from disk, CRC-checked and parsed into the block cache.",
			func() uint64 { return st.Stats().BlockCache.Misses })
		s.reg.CounterFunc("citare_lsm_block_cache_evictions_total",
			"SSTable data blocks evicted from the block cache.",
			func() uint64 { return st.Stats().BlockCache.Evictions })
		for lvl := 0; lvl < 2; lvl++ {
			lvl := lvl
			label := obs.Label{Key: "level", Value: strconv.Itoa(lvl)}
			s.reg.GaugeFunc("citare_lsm_sstables",
				"SSTables per LSM level.",
				func() float64 {
					if ls := st.Stats().Levels; lvl < len(ls) {
						return float64(ls[lvl].Tables)
					}
					return 0
				}, label)
			s.reg.GaugeFunc("citare_lsm_sstable_bytes",
				"SSTable bytes per LSM level.",
				func() float64 {
					if ls := st.Stats().Levels; lvl < len(ls) {
						return float64(ls[lvl].Bytes)
					}
					return 0
				}, label)
		}
	}

	s.reg.GaugeFunc("citare_uptime_seconds",
		"Seconds since the server started.",
		func() float64 { return time.Since(s.start).Seconds() })
	s.reg.GaugeFunc("citare_engine_shards",
		"Engine shard count (1 = unsharded).",
		func() float64 { return float64(s.shards) })
}

// handleMetrics serves GET /metrics in the Prometheus text exposition
// format. Output ordering is deterministic (families and series sorted).
func (s *server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	if s.reg == nil {
		http.Error(w, "metrics not initialized", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.reg.WritePrometheus(w); err != nil {
		log.Printf("citesrv: write metrics: %v", err)
	}
}
