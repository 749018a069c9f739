#include "engine/vec_ops.h"

#include <algorithm>
#include <functional>

#include "common/logging.h"

namespace ads::engine {

namespace {

/// Calls `fn(values, cmp)` with the predicate column's typed data and a
/// comparator for its op, so each kernel loop is compiled per (type, op).
template <typename Fn>
void VisitPredicate(const ColumnPredicate& pred, Fn&& fn) {
  auto with_op = [&](const auto* values) {
    switch (pred.op) {
      case CompareOp::kLess:
        return fn(values, std::less<double>());
      case CompareOp::kLessEqual:
        return fn(values, std::less_equal<double>());
      case CompareOp::kEqual:
        return fn(values, std::equal_to<double>());
      case CompareOp::kGreater:
        return fn(values, std::greater<double>());
      case CompareOp::kGreaterEqual:
        return fn(values, std::greater_equal<double>());
    }
  };
  if (pred.column->type() == ColumnType::kI64) {
    with_op(pred.column->i64_data());
  } else {
    with_op(pred.column->f64_data());
  }
}

/// Writes the rows in [lo, hi) where `pred` holds to `sel`, ascending;
/// returns how many. Branch-free: every row is written, only kept rows
/// advance the cursor.
size_t SelectRange(const ColumnPredicate& pred, size_t lo, size_t hi,
                   uint32_t* sel) {
  size_t kept = 0;
  VisitPredicate(pred, [&](const auto* values, auto cmp) {
    for (size_t r = lo; r < hi; ++r) {
      sel[kept] = static_cast<uint32_t>(r);
      kept += cmp(static_cast<double>(values[r]), pred.value);
    }
  });
  return kept;
}

/// Keeps the entries of sel[0, n) whose rows satisfy `pred`, in place and
/// in order; returns how many remain.
size_t RefineRange(const ColumnPredicate& pred, uint32_t* sel, size_t n) {
  size_t kept = 0;
  VisitPredicate(pred, [&](const auto* values, auto cmp) {
    for (size_t i = 0; i < n; ++i) {
      const uint32_t r = sel[i];
      sel[kept] = r;
      kept += cmp(static_cast<double>(values[r]), pred.value);
    }
  });
  return kept;
}

/// Rows per L1-resident selection block inside a SelectRows chunk.
constexpr size_t kSelectBlock = 2048;

/// Runs every predicate over the rows in [lo, hi) — the first scans them
/// all, each later one only the survivors, in `sel` — then writes the
/// survivors as bits of bits[lo / 64, ceil(hi / 64)). `lo` is a multiple
/// of 64. Returns the survivor count.
size_t SelectBlock(const std::vector<ColumnPredicate>& preds, size_t lo,
                   size_t hi, uint32_t* sel, uint64_t* bits) {
  size_t n = SelectRange(preds[0], lo, hi, sel);
  for (size_t p = 1; p < preds.size() && n > 0; ++p) {
    n = RefineRange(preds[p], sel, n);
  }
  std::fill(bits + lo / 64, bits + (hi + 63) / 64, uint64_t{0});
  for (size_t i = 0; i < n;) {
    // Survivors are ascending: build each word in a register.
    const size_t w = sel[i] / 64;
    uint64_t word = 0;
    for (; i < n && sel[i] / 64 == w; ++i) {
      word |= uint64_t{1} << (sel[i] % 64);
    }
    bits[w] = word;
  }
  return n;
}

size_t NextPow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

size_t SelectRows(const std::vector<ColumnPredicate>& preds, size_t rows,
                  common::ThreadPool& pool,
                  common::AlignedBuffer<uint32_t>* sel) {
  for (const ColumnPredicate& pred : preds) {
    ADS_CHECK(pred.column->size() == rows)
        << "predicate column size mismatch: " << pred.column->name();
  }
  if (preds.empty()) {
    sel->ResizeForOverwrite(rows);
    for (size_t r = 0; r < rows; ++r) (*sel)[r] = static_cast<uint32_t>(r);
    return rows;
  }
  // Pass 1: each chunk runs the predicates block by block over an
  // L1-resident selection and leaves the survivors as bits in its words.
  const size_t num_chunks = (rows + kSelectGrain - 1) / kSelectGrain;
  std::vector<size_t> chunk_offset(num_chunks + 1, 0);
  common::AlignedBuffer<uint64_t> bits;
  bits.ResizeForOverwrite((rows + 63) / 64);
  common::parallel_for(
      pool, 0, rows, kSelectGrain, [&](size_t lo, size_t hi) {
        uint32_t local[kSelectBlock];
        size_t kept = 0;
        for (size_t b = lo; b < hi; b += kSelectBlock) {
          kept += SelectBlock(preds, b, std::min(hi, b + kSelectBlock), local,
                              bits.data());
        }
        chunk_offset[lo / kSelectGrain + 1] = kept;
      });

  // Exclusive prefix over chunks gives each chunk a disjoint output range.
  for (size_t c = 0; c < num_chunks; ++c) {
    chunk_offset[c + 1] += chunk_offset[c];
  }
  const size_t total = chunk_offset[num_chunks];
  sel->ResizeForOverwrite(total);
  uint32_t* out = sel->data();

  // Pass 2: expand each chunk's bits into its output range.
  common::parallel_for(
      pool, 0, rows, kSelectGrain, [&](size_t lo, size_t hi) {
        size_t at = chunk_offset[lo / kSelectGrain];
        for (size_t w = lo / 64; w < (hi + 63) / 64; ++w) {
          for (uint64_t word = bits[w]; word != 0; word &= word - 1) {
            out[at++] = static_cast<uint32_t>(
                w * 64 + static_cast<size_t>(__builtin_ctzll(word)));
          }
        }
      });
  return total;
}

void GatherColumn(const Column& src, const uint32_t* sel, size_t n,
                  common::ThreadPool& pool, Column* out) {
  *out = Column(src.name(), src.type());
  out->ResizeForOverwrite(n);
  if (src.type() == ColumnType::kI64) {
    const int64_t* in = src.i64_data();
    int64_t* dst = out->i64_data();
    common::parallel_for(pool, 0, n, kGatherGrain,
                         [&](size_t lo, size_t hi) {
                           for (size_t i = lo; i < hi; ++i) {
                             dst[i] = in[sel[i]];
                           }
                         });
  } else {
    const double* in = src.f64_data();
    double* dst = out->f64_data();
    common::parallel_for(pool, 0, n, kGatherGrain,
                         [&](size_t lo, size_t hi) {
                           for (size_t i = lo; i < hi; ++i) {
                             dst[i] = in[sel[i]];
                           }
                         });
  }
}

void JoinHashTable::Build(const Column& keys, uint64_t seed) {
  ADS_CHECK(keys.type() == ColumnType::kI64)
      << "join keys must be i64: " << keys.name();
  seed_ = seed;
  const size_t n = keys.size();
  build_rows_ = n;
  keys_ = keys.i64_data();
  const size_t buckets = NextPow2(std::max<size_t>(16, 2 * n));
  mask_ = buckets - 1;
  heads_.ResizeForOverwrite(buckets);
  for (size_t b = 0; b < buckets; ++b) heads_[b] = -1;
  next_.ResizeForOverwrite(n);
  // Insert back to front with push-front chaining, so every chain lists
  // build rows in ascending order — the probe then emits matches in the
  // same order a front-to-back nested loop would.
  for (size_t i = n; i-- > 0;) {
    const size_t bucket = HashJoinKey(keys_[i], seed_) & mask_;
    next_[i] = heads_[bucket];
    heads_[bucket] = static_cast<int32_t>(i);
  }
}

void JoinHashTable::Probe(const Column& probe_keys, common::ThreadPool& pool,
                          common::AlignedBuffer<uint32_t>* probe_idx,
                          common::AlignedBuffer<uint32_t>* build_idx) const {
  ADS_CHECK(probe_keys.type() == ColumnType::kI64)
      << "join keys must be i64: " << probe_keys.name();
  const size_t n = probe_keys.size();
  const int64_t* probe = probe_keys.i64_data();
  probe_idx->clear();
  build_idx->clear();
  if (n == 0 || build_rows_ == 0) return;

  // Pass 1: hash each probe key once, count matches per fixed-grain chunk
  // and record the row's first match (-1 for none).
  const size_t num_chunks = (n + kProbeGrain - 1) / kProbeGrain;
  std::vector<uint64_t> chunk_offset(num_chunks + 1, 0);
  common::AlignedBuffer<int32_t> first_match;
  first_match.ResizeForOverwrite(n);
  common::parallel_for(
      pool, 0, n, kProbeGrain, [&](size_t lo, size_t hi) {
        uint64_t count = 0;
        for (size_t i = lo; i < hi; ++i) {
          const int64_t key = probe[i];
          int32_t first = -1;
          for (int32_t e = heads_[HashJoinKey(key, seed_) & mask_]; e >= 0;
               e = next_[static_cast<size_t>(e)]) {
            if (keys_[static_cast<size_t>(e)] == key) {
              if (first < 0) first = e;
              ++count;
            }
          }
          first_match[i] = first;
        }
        chunk_offset[lo / kProbeGrain + 1] = count;
      });

  // Exclusive prefix over chunks gives each chunk a disjoint output range.
  for (size_t c = 0; c < num_chunks; ++c) {
    chunk_offset[c + 1] += chunk_offset[c];
  }
  const size_t total = static_cast<size_t>(chunk_offset[num_chunks]);
  probe_idx->ResizeForOverwrite(total);
  build_idx->ResizeForOverwrite(total);
  uint32_t* out_probe = probe_idx->data();
  uint32_t* out_build = build_idx->data();

  // Pass 2: fill, resuming each chain at the row's first match. Later
  // entries of the chain may hold other keys of the same bucket.
  common::parallel_for(
      pool, 0, n, kProbeGrain, [&](size_t lo, size_t hi) {
        size_t at = static_cast<size_t>(chunk_offset[lo / kProbeGrain]);
        for (size_t i = lo; i < hi; ++i) {
          const int64_t key = probe[i];
          for (int32_t e = first_match[i]; e >= 0;
               e = next_[static_cast<size_t>(e)]) {
            if (keys_[static_cast<size_t>(e)] == key) {
              out_probe[at] = static_cast<uint32_t>(i);
              out_build[at] = static_cast<uint32_t>(e);
              ++at;
            }
          }
        }
      });
}

void GroupIndex::Build(const std::vector<const Column*>& keys, size_t rows,
                       uint64_t seed) {
  group_of_row_.ResizeForOverwrite(rows);
  representative_row_.clear();
  if (keys.empty()) {
    for (size_t r = 0; r < rows; ++r) group_of_row_[r] = 0;
    if (rows > 0) representative_row_.push_back(0);
    return;
  }
  std::vector<const int64_t*> key_data;
  key_data.reserve(keys.size());
  for (const Column* k : keys) {
    ADS_CHECK(k->type() == ColumnType::kI64)
        << "group keys must be i64: " << k->name();
    ADS_CHECK(k->size() == rows) << "group key size mismatch";
    key_data.push_back(k->i64_data());
  }
  auto row_hash = [&](size_t r) {
    uint64_t h = seed;
    for (const int64_t* k : key_data) h = HashJoinKey(k[r], h);
    return h;
  };
  auto rows_equal = [&](size_t a, size_t b) {
    for (const int64_t* k : key_data) {
      if (k[a] != k[b]) return false;
    }
    return true;
  };
  // Open-addressing table of group ids, linear probing, doubled at half
  // load. Each group keeps its hash, so growing never rehashes keys and a
  // probe compares key columns only on a full-hash match.
  std::vector<int32_t> slot_group(16, -1);
  size_t mask = slot_group.size() - 1;
  std::vector<uint64_t> group_hash;
  auto find_slot = [&](uint64_t h) {
    size_t slot = h & mask;
    while (slot_group[slot] >= 0) slot = (slot + 1) & mask;
    return slot;
  };
  for (size_t r = 0; r < rows; ++r) {
    const uint64_t h = row_hash(r);
    size_t slot = h & mask;
    for (;;) {
      const int32_t g = slot_group[slot];
      if (g < 0) {
        const auto group = static_cast<uint32_t>(representative_row_.size());
        slot_group[slot] = static_cast<int32_t>(group);
        representative_row_.push_back(static_cast<uint32_t>(r));
        group_hash.push_back(h);
        group_of_row_[r] = group;
        if (2 * group_hash.size() > slot_group.size()) {
          slot_group.assign(2 * slot_group.size(), -1);
          mask = slot_group.size() - 1;
          for (size_t id = 0; id < group_hash.size(); ++id) {
            slot_group[find_slot(group_hash[id])] = static_cast<int32_t>(id);
          }
        }
        break;
      }
      if (group_hash[static_cast<size_t>(g)] == h &&
          rows_equal(r, representative_row_[static_cast<size_t>(g)])) {
        group_of_row_[r] = static_cast<uint32_t>(g);
        break;
      }
      slot = (slot + 1) & mask;
    }
  }
}

}  // namespace ads::engine
