// Package shard hash-partitions the storage engine so citation evaluation
// scales past one lock domain.
//
// # Shard layout
//
// A shard.DB over schema S with n shards holds n independent storage.DB
// instances ("parts"), all over S. Every relation declares a shard-key
// column (RelSchema.ShardKey, defaulting to the first column — the primary
// identifier in every GtoPdb-style schema), and a tuple lives in exactly
// one part:
//
//	part(t) = FNV-1a(t[shardKeyCol]) mod n
//
// Each part is a full storage.DB: it has its own per-relation RW locks,
// its own lazily built hash indexes, and its own copy-on-write snapshots.
// Nothing is shared between parts, so index builds and writer/reader
// contention divide by n, and Snapshot() costs O(n × relations) pointer
// copies — never O(tuples).
//
// # Routing
//
// Writes (Insert/Delete) hash the tuple's shard-key value and go to one
// part. Reads go through the eval.Partitioned interface:
//
//   - Relation(name) returns the union view across all parts (eval.RelView).
//     Its Lookup inspects the bound columns: a lookup binding the shard-key
//     column routes to exactly one part's hash index; any other lookup fans
//     out across parts.
//   - CandidateShards implements the same pruning rule for the evaluator's
//     scatter phase: when a query atom binds the shard key with a constant,
//     all other shards are skipped entirely (shard pruning), turning point
//     lookups into single-shard work regardless of n.
//   - ShardScan reads one part's tuples of a relation, matching a lookup or
//     in full: the evaluator's one per-shard read, and the seam where the
//     fault injector (internal/fault) imposes failures and the attempt
//     policy (eval.Resilient) retries them.
//
// # Scatter-gather evaluation and merge semantics
//
// eval.Compile detects a Partitioned view over more than one shard and
// compiles a scatter-gather plan: the first step of the physical join order
// is partitioned by shard — each candidate shard enumerates its slice of
// the first atom through ShardScan, on up to eval.Options.Parallel workers —
// and the descent through deeper steps runs against the union-view handles
// resolved once at compile time (pruning per lookup). Because the parts
// partition every relation, the union of the per-shard enumerations is
// exactly the sequential binding multiset, so
//
//   - binding callbacks see the same multiset in unspecified order (they are
//     serialized, never concurrent), and
//   - set-semantics results are gathered, deduplicated and sorted by tuple
//     key — byte-identical to unsharded evaluation for every shard count
//     and worker cap (property-tested against the unsharded engine on the
//     gtopdb and advisor workloads).
//
// core.Engine composes this with its epoch machinery: a sharded engine
// snapshots all parts per epoch and evaluates everything against that one
// partitioned snapshot scatter-gather — the query, each rewriting through
// its expansion over base relations (citation views are unfolded, never
// stored), and the citation queries — so a rewriting's lookups prune by the
// base relations' own shard keys.
//
// # Caveats
//
// Primary-key uniqueness is enforced inside each part. The check is global
// exactly when the primary key includes the shard-key column (true for the
// whole GtoPdb schema); otherwise a duplicate key can land on two different
// shards undetected. Foreign keys are not checked across parts: a part's
// CheckForeignKeys misses a referenced tuple that hashed to another part,
// so a caller that wants them checked runs it on an unsharded database.
// citesrv never checked them on -data, so loading its CSV files straight
// into the parts drops no check it made before.
package shard

import "citare/internal/eval"

// The partitioned database is the evaluator's scatter-gather surface.
var _ eval.Partitioned = (*DB)(nil)
