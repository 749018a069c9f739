#ifndef ADS_ENGINE_COLUMN_H_
#define ADS_ENGINE_COLUMN_H_

#include <cstdint>
#include <string>

#include "common/aligned.h"
#include "common/logging.h"

namespace ads::engine {

/// Physical column types. Integers cover keys, dates (days), flags and
/// fixed-point money (cents): integer arithmetic is exact, so aggregates
/// over them are bit-identical regardless of evaluation strategy — which
/// is what lets the differential harness demand exact equality between
/// the vectorized and the reference executor. F64 columns exist for
/// ratios and averages; their sums are *defined* to accumulate in input
/// row order (see AggFn in plan.h).
enum class ColumnType { kI64, kF64 };

const char* ColumnTypeName(ColumnType type);

/// One typed column vector in a 64-byte-aligned arena (common/aligned.h),
/// so vectorized kernels can stream it without split cache-line loads.
class Column {
 public:
  Column() = default;
  Column(std::string name, ColumnType type)
      : name_(std::move(name)), type_(type) {}

  static Column I64(std::string name) {
    return Column(std::move(name), ColumnType::kI64);
  }
  static Column F64(std::string name) {
    return Column(std::move(name), ColumnType::kF64);
  }

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }
  ColumnType type() const { return type_; }
  size_t size() const {
    return type_ == ColumnType::kI64 ? i64_.size() : f64_.size();
  }

  void Reserve(size_t n) {
    if (type_ == ColumnType::kI64) {
      i64_.reserve(n);
    } else {
      f64_.reserve(n);
    }
  }
  void Resize(size_t n) {
    if (type_ == ColumnType::kI64) {
      i64_.resize(n);
    } else {
      f64_.resize(n);
    }
  }

  /// Resize without initializing new values, for a kernel that is about
  /// to write every row (see AlignedBuffer::ResizeForOverwrite).
  void ResizeForOverwrite(size_t n) {
    if (type_ == ColumnType::kI64) {
      i64_.ResizeForOverwrite(n);
    } else {
      f64_.ResizeForOverwrite(n);
    }
  }

  void AppendI64(int64_t v) {
    ADS_CHECK(type_ == ColumnType::kI64) << name_ << " is not i64";
    i64_.push_back(v);
  }
  void AppendF64(double v) {
    ADS_CHECK(type_ == ColumnType::kF64) << name_ << " is not f64";
    f64_.push_back(v);
  }
  /// Appends row `row` of `src` (same type required).
  void AppendFrom(const Column& src, size_t row) {
    ADS_CHECK(type_ == src.type_) << "type mismatch appending to " << name_;
    if (type_ == ColumnType::kI64) {
      i64_.push_back(src.i64_[row]);
    } else {
      f64_.push_back(src.f64_[row]);
    }
  }

  int64_t I64At(size_t i) const { return i64_[i]; }
  double F64At(size_t i) const { return f64_[i]; }
  int64_t& I64At(size_t i) { return i64_[i]; }
  double& F64At(size_t i) { return f64_[i]; }

  /// Value widened to double — predicate literals are doubles. Generated
  /// integer values stay below 2^53, so the widening is exact.
  double AsDouble(size_t i) const {
    return type_ == ColumnType::kI64 ? static_cast<double>(i64_[i])
                                     : f64_[i];
  }

  const int64_t* i64_data() const { return i64_.data(); }
  const double* f64_data() const { return f64_.data(); }
  int64_t* i64_data() { return i64_.data(); }
  double* f64_data() { return f64_.data(); }

  /// Exact comparison: same name, type, size, and bit pattern of every
  /// value (doubles compared as bits, not numerically).
  bool BitwiseEquals(const Column& other) const;

 private:
  std::string name_;
  ColumnType type_ = ColumnType::kI64;
  common::AlignedBuffer<int64_t> i64_;
  common::AlignedBuffer<double> f64_;
};

}  // namespace ads::engine

#endif  // ADS_ENGINE_COLUMN_H_
