#ifndef ADS_ENGINE_VEC_OPS_H_
#define ADS_ENGINE_VEC_OPS_H_

#include <cstdint>
#include <vector>

#include "common/aligned.h"
#include "common/thread_pool.h"
#include "engine/column.h"
#include "engine/expr.h"

namespace ads::engine {

/// Vectorized operator kernels: selection vectors, gathers, a seeded
/// hash-join table and a grouped-aggregation index. All kernels are
/// deterministic and thread-count invariant: parallel sections use fixed
/// grains on ThreadPool::ParallelFor (whose chunk boundaries never depend
/// on the worker count), and every floating-point reduction happens
/// sequentially in input row order. The differential harness exploits
/// this: vectorized output must equal the row-at-a-time reference
/// executor bit for bit.

/// Fixed chunk grains (rows). kSelectGrain is a multiple of 64 so no two
/// chunks ever touch the same word of the filter's result bitmap.
inline constexpr size_t kSelectGrain = 8192;
inline constexpr size_t kGatherGrain = 8192;
inline constexpr size_t kProbeGrain = 4096;

/// Seeded murmur3 fmix64 finalizer: two multiplies, full avalanche on the
/// low bits (bucket indices are low-bit masks). The hash only places
/// entries in the join and group tables, so it never affects any output.
inline uint64_t HashJoinKey(int64_t key, uint64_t seed) {
  uint64_t h = static_cast<uint64_t>(key) ^ seed;
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ull;
  h ^= h >> 33;
  return h;
}

/// One resolved filter conjunct, true for row r when
/// `static_cast<double>(column[r]) <op> value`.
struct ColumnPredicate {
  const Column* column = nullptr;
  CompareOp op = CompareOp::kEqual;
  double value = 0.0;
};

/// Fills `sel` with the ascending indices of the rows in [0, rows) that
/// satisfy every predicate (all columns have `rows` rows) and returns
/// their count. Per fixed-grain chunk, the first predicate scans every
/// row and each later one tests only the rows still selected; chunk
/// counts then prefix into disjoint output ranges. No predicates select
/// every row.
size_t SelectRows(const std::vector<ColumnPredicate>& preds, size_t rows,
                  common::ThreadPool& pool,
                  common::AlignedBuffer<uint32_t>* sel);

/// out[i] = src[sel[i]] for i in [0, n). `out` keeps src's name and type.
void GatherColumn(const Column& src, const uint32_t* sel, size_t n,
                  common::ThreadPool& pool, Column* out);

/// Hash-join build/probe over i64 keys, bucket-chained. Matches for one
/// probe row come out in ascending build-row order (the chains are built
/// back to front), which pins the operator's output order to the
/// nested-loop order the reference executor produces.
///
/// The table borrows the build key column: it must outlive the table and
/// stay unmodified while the table is probed.
class JoinHashTable {
 public:
  /// Builds over the build side's key column (i64). `seed` selects the
  /// hash stream — the executor's hashing seed policy is one fixed seed
  /// per plan execution, so rebuilding the same plan is bit-identical.
  void Build(const Column& keys, uint64_t seed);

  size_t build_rows() const { return build_rows_; }
  size_t bucket_count() const { return mask_ + 1; }

  /// Probes with `probe_keys` in row order and appends every match as a
  /// (probe_row, build_row) pair, probe-major, build ascending within a
  /// probe row. Deterministic two-pass parallel: pass 1 hashes each probe
  /// key once, counts matches per chunk and records each row's first
  /// match; an exclusive prefix gives each chunk a disjoint output range;
  /// pass 2 resumes every chain at its recorded first match.
  void Probe(const Column& probe_keys, common::ThreadPool& pool,
             common::AlignedBuffer<uint32_t>* probe_idx,
             common::AlignedBuffer<uint32_t>* build_idx) const;

 private:
  uint64_t seed_ = 0;
  size_t mask_ = 0;
  size_t build_rows_ = 0;
  const int64_t* keys_ = nullptr;  // borrowed build key column
  common::AlignedBuffer<int32_t> heads_;  // bucket -> first build row or -1
  common::AlignedBuffer<int32_t> next_;   // build row -> next in chain or -1
};

/// Grouped-aggregation index over i64 group-key columns: assigns each row
/// a dense group id in first-seen order. Sequential by design — group
/// discovery order is part of the operator's defined semantics (output
/// groups appear in first-seen input order). The open-addressing table
/// starts small and doubles at half load, so its size follows the number
/// of groups rather than the number of rows.
class GroupIndex {
 public:
  /// `keys` may be empty: every row lands in group 0 (global aggregate).
  void Build(const std::vector<const Column*>& keys, size_t rows,
             uint64_t seed);

  size_t num_groups() const { return representative_row_.size(); }
  /// Dense group id per input row.
  const common::AlignedBuffer<uint32_t>& group_of_row() const {
    return group_of_row_;
  }
  /// First input row of each group, indexed by group id.
  const common::AlignedBuffer<uint32_t>& representative_row() const {
    return representative_row_;
  }

 private:
  common::AlignedBuffer<uint32_t> group_of_row_;
  common::AlignedBuffer<uint32_t> representative_row_;
};

}  // namespace ads::engine

#endif  // ADS_ENGINE_VEC_OPS_H_
