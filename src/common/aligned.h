#ifndef ADS_COMMON_ALIGNED_H_
#define ADS_COMMON_ALIGNED_H_

#include <cstddef>
#include <new>
#include <utility>

namespace ads::common {

/// Minimal growable array whose storage is always 64-byte aligned — one
/// cache line, and enough for any SSE/AVX2 load the inference kernels
/// issue. std::vector gives alignof(T) only, so a 24-byte flat-tree node
/// arena or a double scratch tile can start mid-line and every 32-byte
/// lane load risks splitting across two lines. Not a std::vector
/// replacement: trivially-copyable T only (elements are moved with plain
/// copies and never destroyed individually), which the kernels' PODs are.
template <typename T>
class AlignedBuffer {
 public:
  static constexpr size_t kAlignment = 64;

  AlignedBuffer() = default;
  explicit AlignedBuffer(size_t n) { resize(n); }
  ~AlignedBuffer() { Release(); }

  AlignedBuffer(const AlignedBuffer& other) { CopyFrom(other); }
  AlignedBuffer& operator=(const AlignedBuffer& other) {
    if (this != &other) {
      Release();
      CopyFrom(other);
    }
    return *this;
  }
  AlignedBuffer(AlignedBuffer&& other) noexcept
      : data_(other.data_), size_(other.size_), capacity_(other.capacity_) {
    other.data_ = nullptr;
    other.size_ = other.capacity_ = 0;
  }
  AlignedBuffer& operator=(AlignedBuffer&& other) noexcept {
    if (this != &other) {
      Release();
      data_ = other.data_;
      size_ = other.size_;
      capacity_ = other.capacity_;
      other.data_ = nullptr;
      other.size_ = other.capacity_ = 0;
    }
    return *this;
  }

  T* data() { return data_; }
  const T* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t capacity() const { return capacity_; }

  T& operator[](size_t i) { return data_[i]; }
  const T& operator[](size_t i) const { return data_[i]; }
  T* begin() { return data_; }
  T* end() { return data_ + size_; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }

  void reserve(size_t n) {
    if (n <= capacity_) return;
    T* grown = Allocate(n);
    for (size_t i = 0; i < size_; ++i) grown[i] = data_[i];
    ::operator delete[](data_, std::align_val_t(kAlignment));
    data_ = grown;
    capacity_ = n;
  }

  /// Grows or shrinks to n elements; new elements are value-initialized.
  void resize(size_t n) {
    if (n > capacity_) reserve(n < 2 * capacity_ ? 2 * capacity_ : n);
    for (size_t i = size_; i < n; ++i) data_[i] = T();
    size_ = n;
  }

  /// Ensures capacity for at least n elements without touching contents —
  /// the steady-state scratch pattern: first call allocates, later calls
  /// with the same bound are allocation-free.
  void EnsureCapacity(size_t n) {
    if (size_ < n) ResizeForOverwrite(n);
  }

  /// Sets the size to n without initializing new elements — for a buffer
  /// the caller is about to overwrite in full, where resize() would write
  /// every element twice. Grows to exactly n; shrinking keeps the storage.
  void ResizeForOverwrite(size_t n) {
    reserve(n);
    size_ = n;
  }

  void push_back(const T& value) {
    if (size_ == capacity_) reserve(capacity_ == 0 ? 16 : 2 * capacity_);
    data_[size_++] = value;
  }

  void clear() { size_ = 0; }

 private:
  T* Allocate(size_t n) {
    return static_cast<T*>(
        ::operator new[](n * sizeof(T), std::align_val_t(kAlignment)));
  }
  void CopyFrom(const AlignedBuffer& other) {
    data_ = other.size_ == 0 ? nullptr : Allocate(other.size_);
    size_ = capacity_ = other.size_;
    for (size_t i = 0; i < size_; ++i) data_[i] = other.data_[i];
  }
  void Release() {
    ::operator delete[](data_, std::align_val_t(kAlignment));
    data_ = nullptr;
    size_ = capacity_ = 0;
  }

  T* data_ = nullptr;
  size_t size_ = 0;
  size_t capacity_ = 0;
};

}  // namespace ads::common

#endif  // ADS_COMMON_ALIGNED_H_
