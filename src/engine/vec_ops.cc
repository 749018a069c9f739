#include "engine/vec_ops.h"

#include <algorithm>

#include "common/logging.h"

namespace ads::engine {

namespace {

template <typename T, typename Cmp>
void FillBitmapTyped(const T* values, size_t rows, double literal, Cmp cmp,
                     common::ThreadPool& pool, uint64_t* bits) {
  const size_t words = BitmapWords(rows);
  common::parallel_for(
      pool, 0, words, kBitmapGrain / 64, [&](size_t w0, size_t w1) {
        for (size_t w = w0; w < w1; ++w) {
          const size_t row0 = w * 64;
          const size_t row1 = std::min(rows, row0 + 64);
          uint64_t word = 0;
          for (size_t r = row0; r < row1; ++r) {
            word |= static_cast<uint64_t>(
                        cmp(static_cast<double>(values[r]), literal))
                    << (r - row0);
          }
          bits[w] = word;
        }
      });
}

template <typename T>
void FillBitmap(const T* values, size_t rows, CompareOp op, double literal,
                common::ThreadPool& pool, uint64_t* bits) {
  switch (op) {
    case CompareOp::kLess:
      FillBitmapTyped(values, rows, literal,
                      [](double a, double b) { return a < b; }, pool, bits);
      return;
    case CompareOp::kLessEqual:
      FillBitmapTyped(values, rows, literal,
                      [](double a, double b) { return a <= b; }, pool, bits);
      return;
    case CompareOp::kEqual:
      FillBitmapTyped(values, rows, literal,
                      [](double a, double b) { return a == b; }, pool, bits);
      return;
    case CompareOp::kGreater:
      FillBitmapTyped(values, rows, literal,
                      [](double a, double b) { return a > b; }, pool, bits);
      return;
    case CompareOp::kGreaterEqual:
      FillBitmapTyped(values, rows, literal,
                      [](double a, double b) { return a >= b; }, pool, bits);
      return;
  }
}

size_t NextPow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

void PredicateBitmap(const Column& col, CompareOp op, double value,
                     common::ThreadPool& pool, uint64_t* bits) {
  const size_t rows = col.size();
  if (col.type() == ColumnType::kI64) {
    FillBitmap(col.i64_data(), rows, op, value, pool, bits);
  } else {
    FillBitmap(col.f64_data(), rows, op, value, pool, bits);
  }
}

void BitmapAndInPlace(uint64_t* acc, const uint64_t* other, size_t words) {
  for (size_t w = 0; w < words; ++w) acc[w] &= other[w];
}

size_t BitmapToSelection(const uint64_t* bits, size_t rows,
                         common::AlignedBuffer<uint32_t>* sel) {
  sel->clear();
  const size_t words = BitmapWords(rows);
  for (size_t w = 0; w < words; ++w) {
    uint64_t word = bits[w];
    // Mask padding bits in the tail word: rows beyond `rows` never exist,
    // whatever a caller's AND/OR left in the high bits.
    if (w == words - 1 && (rows % 64) != 0) {
      word &= (uint64_t{1} << (rows % 64)) - 1;
    }
    while (word != 0) {
      const int bit = __builtin_ctzll(word);
      sel->push_back(static_cast<uint32_t>(w * 64 + static_cast<size_t>(bit)));
      word &= word - 1;
    }
  }
  return sel->size();
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
  keys_.ResizeForOverwrite(n);
  for (size_t i = 0; i < n; ++i) keys_[i] = keys.I64At(i);
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
  if (n == 0 || keys_.empty()) return;

  // Pass 1: matches per fixed-grain chunk.
  const size_t num_chunks = (n + kProbeGrain - 1) / kProbeGrain;
  std::vector<uint64_t> chunk_matches(num_chunks, 0);
  common::parallel_for(
      pool, 0, n, kProbeGrain, [&](size_t lo, size_t hi) {
        uint64_t count = 0;
        for (size_t i = lo; i < hi; ++i) {
          const int64_t key = probe[i];
          for (int32_t e = heads_[HashJoinKey(key, seed_) & mask_]; e >= 0;
               e = next_[static_cast<size_t>(e)]) {
            count += keys_[static_cast<size_t>(e)] == key;
          }
        }
        chunk_matches[lo / kProbeGrain] = count;
      });

  // Exclusive prefix over chunks gives each chunk a disjoint output range.
  std::vector<uint64_t> chunk_offset(num_chunks + 1, 0);
  for (size_t c = 0; c < num_chunks; ++c) {
    chunk_offset[c + 1] = chunk_offset[c] + chunk_matches[c];
  }
  const size_t total = static_cast<size_t>(chunk_offset[num_chunks]);
  probe_idx->ResizeForOverwrite(total);
  build_idx->ResizeForOverwrite(total);
  uint32_t* out_probe = probe_idx->data();
  uint32_t* out_build = build_idx->data();

  // Pass 2: fill.
  common::parallel_for(
      pool, 0, n, kProbeGrain, [&](size_t lo, size_t hi) {
        size_t at = static_cast<size_t>(chunk_offset[lo / kProbeGrain]);
        for (size_t i = lo; i < hi; ++i) {
          const int64_t key = probe[i];
          for (int32_t e = heads_[HashJoinKey(key, seed_) & mask_]; e >= 0;
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
  for (const Column* k : keys) {
    ADS_CHECK(k->type() == ColumnType::kI64)
        << "group keys must be i64: " << k->name();
    ADS_CHECK(k->size() == rows) << "group key size mismatch";
  }
  // Open-addressing table of group representatives, linear probing.
  const size_t buckets = NextPow2(std::max<size_t>(16, 2 * rows));
  const size_t mask = buckets - 1;
  std::vector<int32_t> slot_group(buckets, -1);
  auto row_hash = [&](size_t r) {
    uint64_t h = seed;
    for (const Column* k : keys) {
      h = HashJoinKey(k->I64At(r), h);
    }
    return h;
  };
  auto rows_equal = [&](size_t a, size_t b) {
    for (const Column* k : keys) {
      if (k->I64At(a) != k->I64At(b)) return false;
    }
    return true;
  };
  for (size_t r = 0; r < rows; ++r) {
    size_t slot = row_hash(r) & mask;
    for (;;) {
      const int32_t g = slot_group[slot];
      if (g < 0) {
        const auto group = static_cast<uint32_t>(representative_row_.size());
        slot_group[slot] = static_cast<int32_t>(group);
        representative_row_.push_back(static_cast<uint32_t>(r));
        group_of_row_[r] = group;
        break;
      }
      if (rows_equal(r, representative_row_[static_cast<size_t>(g)])) {
        group_of_row_[r] = static_cast<uint32_t>(g);
        break;
      }
      slot = (slot + 1) & mask;
    }
  }
}

}  // namespace ads::engine
