// Package shard implements the sharded query tier: a stateless router that
// fronts N independent udfserverd processes and presents the same HTTP API
// (session, /query, /exec, /stream) over a hash-partitioned cluster.
//
// Placement is declared in DDL: a table created WITH `SHARD KEY (col)` is
// hash-partitioned across the shards by that column (FNV-1a over the
// sqltypes key encoding, modulo the shard count); a table created without
// one is replicated — its DDL and every INSERT are broadcast to all shards,
// so reference tables are complete everywhere. The router keeps its own
// catalog, rebuilt from the DDL that flows through it, and owns no data.
//
// Statements route by the planner's shard-feasibility pass
// (plan.ClassifyShard over the normalized logical plan):
//
//   - single-shard: relay verbatim to one shard (hash of the pinned shard
//     key equality, or round-robin when only replicated tables are read).
//   - scatter-concat: fan out over every shard's /stream cursor and
//     concatenate the result streams (disjoint partitions, so the
//     concatenation is the single-node multiset).
//   - scatter-merge: fan out the MergeSpec's partial-aggregate statement,
//     which every shard runs as ordinary SQL (it cannot tell a scatter leg
//     from any other SELECT), then merge per-group partials through the
//     engine's own HashAgg and Project, which also re-apply the query's
//     projection from the MergeSpec.
//   - rejected: fail with a typed UNSHARDABLE wire error naming the
//     unsupported shape; a wrong merged answer is worse than no answer.
//
// Shard failures surface as typed wire errors too: SHARD_UNAVAILABLE when a
// shard cannot be reached, PARTIAL_FAILURE when a scatter dies after some
// shards contributed. The router never returns a partial result set.
package shard

import (
	"hash/fnv"

	"udfdecorr/internal/sqltypes"
)

// Hash maps a shard-key value to a shard ordinal in [0, n). It is the one
// placement function: INSERT routing and shard-key-equality query pinning
// must agree, so both call this. The sqltypes key encoding already
// canonicalizes numerics (1 and 1.0 hash alike, matching CmpEQ semantics).
func Hash(v sqltypes.Value, n int) int {
	h := fnv.New64a()
	h.Write(sqltypes.EncodeKey(nil, v))
	return int(h.Sum64() % uint64(n))
}
