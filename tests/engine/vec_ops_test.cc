// Kernel-level tests for the vectorized primitives: filter selection
// across chunk boundaries and IEEE edge values, gathers, join hash table
// chain order and bucket collisions, and group-index first-seen
// numbering — each checked on both the Serial (inline) and the Global
// pool, since serial/parallel bit-identity is the property everything
// above relies on.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/aligned.h"
#include "common/thread_pool.h"
#include "engine/vec_ops.h"

namespace ads::engine {
namespace {

Column I64Column(const std::string& name, std::vector<int64_t> values) {
  Column c = Column::I64(name);
  for (int64_t v : values) c.AppendI64(v);
  return c;
}

bool Holds(double v, CompareOp op, double literal) {
  switch (op) {
    case CompareOp::kLess:
      return v < literal;
    case CompareOp::kLessEqual:
      return v <= literal;
    case CompareOp::kEqual:
      return v == literal;
    case CompareOp::kGreater:
      return v > literal;
    case CompareOp::kGreaterEqual:
      return v >= literal;
  }
  return false;
}

constexpr CompareOp kAllOps[] = {CompareOp::kLess, CompareOp::kLessEqual,
                                 CompareOp::kEqual, CompareOp::kGreater,
                                 CompareOp::kGreaterEqual};

/// Row-at-a-time oracle: rows where every predicate holds on the value
/// converted to double, ascending.
std::vector<uint32_t> SelectOracle(const std::vector<ColumnPredicate>& preds,
                                   size_t rows) {
  std::vector<uint32_t> want;
  for (size_t r = 0; r < rows; ++r) {
    bool keep = true;
    for (const ColumnPredicate& p : preds) {
      const double v = p.column->type() == ColumnType::kI64
                           ? static_cast<double>(p.column->I64At(r))
                           : p.column->F64At(r);
      keep = keep && Holds(v, p.op, p.value);
    }
    if (keep) want.push_back(static_cast<uint32_t>(r));
  }
  return want;
}

/// Runs SelectRows on the serial and the global pool and checks both
/// against the oracle, element for element.
void ExpectSelection(const std::vector<ColumnPredicate>& preds, size_t rows,
                     const std::string& what) {
  const std::vector<uint32_t> want = SelectOracle(preds, rows);
  for (common::ThreadPool* pool :
       {&common::ThreadPool::Serial(), &common::ThreadPool::Global()}) {
    common::AlignedBuffer<uint32_t> sel;
    const size_t n = SelectRows(preds, rows, *pool, &sel);
    ASSERT_EQ(n, want.size()) << what;
    ASSERT_EQ(sel.size(), want.size()) << what;
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(sel[i], want[i]) << what << " entry " << i;
    }
  }
}

TEST(VecOpsTest, SelectRowsAcrossChunksMatchesOracleOnBothPools) {
  // Three full grains plus a ragged tail, so chunk offsets and the last
  // chunk's partial bitmap word are both exercised.
  const size_t rows = 3 * kSelectGrain + 77;
  Column a = Column::I64("a");
  Column b = Column::F64("b");
  for (size_t r = 0; r < rows; ++r) {
    a.AppendI64(static_cast<int64_t>((r * 7919) % 101) - 50);
    b.AppendF64(static_cast<double>((r * 104729) % 997) / 10.0);
  }
  for (CompareOp op_a : kAllOps) {
    for (CompareOp op_b : kAllOps) {
      ExpectSelection({{&a, op_a, 3.0}, {&b, op_b, 49.9}}, rows,
                      std::string(CompareOpName(op_a)) + "/" +
                          CompareOpName(op_b));
    }
  }
  // A later predicate refines only what the earlier ones kept: three
  // conjuncts narrowing to a band.
  ExpectSelection({{&a, CompareOp::kGreaterEqual, -10.0},
                   {&b, CompareOp::kLess, 80.0},
                   {&a, CompareOp::kLess, 10.5}},
                  rows, "band");
}

TEST(VecOpsTest, SelectRowsNaNAndSignedZeroInF64) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> specials = {0.0, -0.0, nan, -nan, 1.0,
                                        -1.0, inf, -inf};
  const size_t rows = kSelectGrain + 5;
  Column x = Column::F64("x");
  for (size_t r = 0; r < rows; ++r) x.AppendF64(specials[r % specials.size()]);
  for (CompareOp op : kAllOps) {
    for (double literal : {0.0, -0.0, nan, 1.0}) {
      ExpectSelection({{&x, op, literal}}, rows,
                      std::string(CompareOpName(op)) + " " +
                          std::to_string(literal));
    }
  }
  // -0.0 == 0.0, and NaN compares false under every op.
  common::AlignedBuffer<uint32_t> sel;
  const size_t zeros = SelectRows({{&x, CompareOp::kEqual, 0.0}}, rows,
                                  common::ThreadPool::Serial(), &sel);
  EXPECT_EQ(zeros, 2 * SelectOracle({{&x, CompareOp::kEqual, 1.0}}, rows)
                           .size());
  for (CompareOp op : kAllOps) {
    EXPECT_EQ(SelectRows({{&x, op, nan}}, rows, common::ThreadPool::Serial(),
                         &sel),
              0u);
  }
}

TEST(VecOpsTest, SelectRowsComparesI64AsDouble) {
  // 2^53 + 1 converts to 2^53: the defined semantics compare the value
  // converted to double, so it equals the literal 2^53.
  const int64_t big = (int64_t{1} << 53) + 1;
  Column v = I64Column("v", {big, big + 2, -big, 0});
  const double literal = static_cast<double>(int64_t{1} << 53);
  common::AlignedBuffer<uint32_t> sel;
  ASSERT_EQ(SelectRows({{&v, CompareOp::kEqual, literal}}, v.size(),
                       common::ThreadPool::Serial(), &sel),
            1u);
  EXPECT_EQ(sel[0], 0u);
  for (CompareOp op : kAllOps) {
    ExpectSelection({{&v, op, literal}}, v.size(), CompareOpName(op));
  }
}

TEST(VecOpsTest, SelectRowsFirstPredicateSelectsNothingOrEverything) {
  const size_t rows = 2 * kSelectGrain + 9;
  Column a = Column::I64("a");
  Column b = Column::F64("b");
  for (size_t r = 0; r < rows; ++r) {
    a.AppendI64(static_cast<int64_t>(r));
    b.AppendF64(static_cast<double>(r % 13));
  }
  common::AlignedBuffer<uint32_t> sel;
  for (common::ThreadPool* pool :
       {&common::ThreadPool::Serial(), &common::ThreadPool::Global()}) {
    EXPECT_EQ(SelectRows({{&a, CompareOp::kLess, 0.0},
                          {&b, CompareOp::kGreaterEqual, 0.0}},
                         rows, *pool, &sel),
              0u);
    EXPECT_EQ(sel.size(), 0u);

    ASSERT_EQ(SelectRows({{&a, CompareOp::kGreaterEqual, 0.0}}, rows, *pool,
                         &sel),
              rows);
    for (size_t r = 0; r < rows; ++r) ASSERT_EQ(sel[r], r);

    ASSERT_EQ(SelectRows({}, rows, *pool, &sel), rows);
    for (size_t r = 0; r < rows; ++r) ASSERT_EQ(sel[r], r);
  }
  // Everything, then a refinement.
  ExpectSelection({{&a, CompareOp::kGreaterEqual, 0.0},
                   {&b, CompareOp::kEqual, 4.0}},
                  rows, "all then b == 4");
  // Zero rows.
  Column empty = Column::I64("e");
  EXPECT_EQ(SelectRows({{&empty, CompareOp::kEqual, 0.0}}, 0,
                       common::ThreadPool::Global(), &sel),
            0u);
}

TEST(VecOpsTest, GatherColumnBothTypes) {
  Column ints = I64Column("k", {10, 20, 30, 40});
  Column reals = Column::F64("x");
  for (double v : {0.1, 0.2, 0.3, 0.4}) reals.AppendF64(v);
  common::AlignedBuffer<uint32_t> sel;
  sel.push_back(3);
  sel.push_back(1);
  Column out_i;
  GatherColumn(ints, sel.data(), sel.size(), common::ThreadPool::Global(),
               &out_i);
  ASSERT_EQ(out_i.size(), 2u);
  EXPECT_EQ(out_i.name(), "k");
  EXPECT_EQ(out_i.I64At(0), 40);
  EXPECT_EQ(out_i.I64At(1), 20);
  Column out_f;
  GatherColumn(reals, sel.data(), sel.size(), common::ThreadPool::Serial(),
               &out_f);
  ASSERT_EQ(out_f.size(), 2u);
  EXPECT_EQ(out_f.F64At(0), 0.4);
  EXPECT_EQ(out_f.F64At(1), 0.2);
}

TEST(VecOpsTest, JoinHashTableMatchesAscendingAndSeedStable) {
  // Duplicate build keys: 7 appears at build rows 0, 2, 4.
  Column build = I64Column("b", {7, 1, 7, 3, 7});
  Column probe = I64Column("p", {7, 5, 3, 7});
  JoinHashTable ht;
  ht.Build(build, 0x1234);
  common::AlignedBuffer<uint32_t> probe_idx;
  common::AlignedBuffer<uint32_t> build_idx;
  ht.Probe(probe, common::ThreadPool::Global(), &probe_idx, &build_idx);

  const std::vector<uint32_t> want_probe = {0, 0, 0, 2, 3, 3, 3};
  const std::vector<uint32_t> want_build = {0, 2, 4, 3, 0, 2, 4};
  ASSERT_EQ(probe_idx.size(), want_probe.size());
  for (size_t i = 0; i < want_probe.size(); ++i) {
    EXPECT_EQ(probe_idx[i], want_probe[i]) << "match " << i;
    EXPECT_EQ(build_idx[i], want_build[i]) << "match " << i;
  }

  // A different seed permutes buckets but not the output order.
  JoinHashTable ht2;
  ht2.Build(build, 0x9999);
  common::AlignedBuffer<uint32_t> probe_idx2;
  common::AlignedBuffer<uint32_t> build_idx2;
  ht2.Probe(probe, common::ThreadPool::Serial(), &probe_idx2, &build_idx2);
  ASSERT_EQ(probe_idx2.size(), want_probe.size());
  for (size_t i = 0; i < want_probe.size(); ++i) {
    EXPECT_EQ(probe_idx2[i], want_probe[i]);
    EXPECT_EQ(build_idx2[i], want_build[i]);
  }
}

TEST(VecOpsTest, JoinHashTableEmptySides) {
  Column empty = Column::I64("b");
  Column probe = I64Column("p", {1, 2});
  JoinHashTable ht;
  ht.Build(empty, 1);
  common::AlignedBuffer<uint32_t> probe_idx;
  common::AlignedBuffer<uint32_t> build_idx;
  ht.Probe(probe, common::ThreadPool::Global(), &probe_idx, &build_idx);
  EXPECT_EQ(probe_idx.size(), 0u);
  EXPECT_EQ(build_idx.size(), 0u);

  JoinHashTable ht2;
  ht2.Build(probe, 1);
  Column no_probe = Column::I64("p2");
  ht2.Probe(no_probe, common::ThreadPool::Global(), &probe_idx, &build_idx);
  EXPECT_EQ(probe_idx.size(), 0u);
}

TEST(VecOpsTest, JoinProbeWithBucketCollisionsMatchesNestedLoop) {
  // Build side: hot keys 0..199 with multiplicity key % 4 (0 = absent).
  // Each present key gets two colliders: keys of the same bucket but not
  // equal to it, one at a lower build row than the key's first copy (so
  // the chain's first entry is not a match) and one after its last copy.
  // The bucket count is fixed by the build size, so it is known before
  // the colliders are searched for.
  const uint64_t seed = 0x5eedull;
  const int64_t hot_keys = 200;
  size_t build_rows = 0;
  for (int64_t k = 0; k < hot_keys; ++k) {
    if (k % 4 != 0) build_rows += static_cast<size_t>(k % 4) + 2;
  }
  size_t buckets = 16;
  while (buckets < 2 * build_rows) buckets <<= 1;
  const uint64_t mask = buckets - 1;

  int64_t next_candidate = 1'000'000;
  auto collider = [&](int64_t key) {
    const uint64_t bucket = HashJoinKey(key, seed) & mask;
    for (;; ++next_candidate) {
      if ((HashJoinKey(next_candidate, seed) & mask) == bucket) {
        return next_candidate++;
      }
    }
  };
  std::vector<int64_t> build_keys;
  for (int64_t k = 0; k < hot_keys; ++k) {
    if (k % 4 == 0) continue;
    build_keys.push_back(collider(k));
    for (int64_t copy = 0; copy < k % 4; ++copy) build_keys.push_back(k);
    build_keys.push_back(collider(k));
  }
  ASSERT_EQ(build_keys.size(), build_rows);
  Column build = I64Column("b", build_keys);
  JoinHashTable ht;
  ht.Build(build, seed);
  ASSERT_EQ(ht.bucket_count(), buckets);

  // Probe side: several kProbeGrain chunks plus a ragged tail, mixing hot
  // keys, absent keys and colliders.
  const size_t probe_rows = 3 * kProbeGrain + 321;
  std::vector<int64_t> probe_keys;
  uint64_t state = 88172645463325252ull;
  for (size_t i = 0; i < probe_rows; ++i) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    if (state % 10 == 0) {
      probe_keys.push_back(build_keys[state / 10 % build_keys.size()]);
    } else {
      probe_keys.push_back(static_cast<int64_t>(state % (hot_keys + 20)));
    }
  }
  Column probe = I64Column("p", probe_keys);

  std::vector<uint32_t> want_probe;
  std::vector<uint32_t> want_build;
  for (size_t i = 0; i < probe_rows; ++i) {
    for (size_t j = 0; j < build_rows; ++j) {
      if (probe_keys[i] == build_keys[j]) {
        want_probe.push_back(static_cast<uint32_t>(i));
        want_build.push_back(static_cast<uint32_t>(j));
      }
    }
  }
  ASSERT_GT(want_probe.size(), probe_rows / 2);

  for (common::ThreadPool* pool :
       {&common::ThreadPool::Serial(), &common::ThreadPool::Global()}) {
    common::AlignedBuffer<uint32_t> probe_idx;
    common::AlignedBuffer<uint32_t> build_idx;
    ht.Probe(probe, *pool, &probe_idx, &build_idx);
    ASSERT_EQ(probe_idx.size(), want_probe.size());
    ASSERT_EQ(build_idx.size(), want_build.size());
    for (size_t m = 0; m < want_probe.size(); ++m) {
      ASSERT_EQ(probe_idx[m], want_probe[m]) << "match " << m;
      ASSERT_EQ(build_idx[m], want_build[m]) << "match " << m;
    }
  }
}

TEST(VecOpsTest, GroupIndexFirstSeenOrder) {
  Column k1 = I64Column("a", {5, 5, 9, 5, 9, 2});
  Column k2 = I64Column("b", {1, 1, 1, 2, 1, 1});
  GroupIndex gi;
  gi.Build({&k1, &k2}, k1.size(), 0xabcdef);
  // Groups in first-seen order: (5,1)=0, (9,1)=1, (5,2)=2, (2,1)=3.
  EXPECT_EQ(gi.num_groups(), 4u);
  const auto& g = gi.group_of_row();
  const std::vector<uint32_t> want = {0, 0, 1, 2, 1, 3};
  for (size_t r = 0; r < want.size(); ++r) {
    EXPECT_EQ(g[r], want[r]) << "row " << r;
  }
  EXPECT_EQ(gi.representative_row()[0], 0u);
  EXPECT_EQ(gi.representative_row()[1], 2u);
  EXPECT_EQ(gi.representative_row()[2], 3u);
  EXPECT_EQ(gi.representative_row()[3], 5u);
}

TEST(VecOpsTest, GroupIndexNoKeysIsOneGroup) {
  GroupIndex gi;
  gi.Build({}, 10, 1);
  EXPECT_EQ(gi.num_groups(), 1u);
  for (size_t r = 0; r < 10; ++r) EXPECT_EQ(gi.group_of_row()[r], 0u);

  GroupIndex empty;
  empty.Build({}, 0, 1);
  EXPECT_EQ(empty.num_groups(), 0u);
}

}  // namespace
}  // namespace ads::engine
