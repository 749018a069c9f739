#include "common/aligned.h"

#include <cstdint>
#include <utility>

#include <gtest/gtest.h>

namespace ads::common {
namespace {

template <typename T>
bool IsAligned(const T* p) {
  return reinterpret_cast<uintptr_t>(p) % AlignedBuffer<T>::kAlignment == 0;
}

struct Node {  // same shape class as the flat-tree arena node
  double scalar;
  int32_t feature, left, right;
};

TEST(AlignedBuffer, FreshAllocationIsCacheLineAligned) {
  AlignedBuffer<double> buf(7);
  EXPECT_EQ(buf.size(), 7u);
  EXPECT_TRUE(IsAligned(buf.data()));

  AlignedBuffer<Node> nodes(3);
  EXPECT_TRUE(IsAligned(nodes.data()));
}

TEST(AlignedBuffer, StaysAlignedAcrossGrowth) {
  AlignedBuffer<double> buf;
  for (int i = 0; i < 1000; ++i) {
    buf.push_back(static_cast<double>(i));
    ASSERT_TRUE(IsAligned(buf.data())) << "misaligned at size " << buf.size();
  }
  EXPECT_EQ(buf.size(), 1000u);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(buf[i], static_cast<double>(i));
}

TEST(AlignedBuffer, ResizeValueInitializesNewElements) {
  AlignedBuffer<double> buf(2);
  buf[0] = 1.0;
  buf[1] = 2.0;
  buf.resize(5);
  EXPECT_TRUE(IsAligned(buf.data()));
  EXPECT_EQ(buf[0], 1.0);
  EXPECT_EQ(buf[1], 2.0);
  EXPECT_EQ(buf[2], 0.0);
  EXPECT_EQ(buf[4], 0.0);
}

TEST(AlignedBuffer, CopyIsAlignedAndIndependent) {
  AlignedBuffer<double> a(4);
  for (size_t i = 0; i < a.size(); ++i) a[i] = static_cast<double>(i + 1);
  AlignedBuffer<double> b = a;
  EXPECT_TRUE(IsAligned(b.data()));
  EXPECT_NE(a.data(), b.data());
  b[0] = 99.0;
  EXPECT_EQ(a[0], 1.0);

  AlignedBuffer<double> c;
  c = a;
  EXPECT_TRUE(IsAligned(c.data()));
  EXPECT_EQ(c.size(), 4u);
  EXPECT_EQ(c[3], 4.0);
}

TEST(AlignedBuffer, MoveTransfersStorage) {
  AlignedBuffer<double> a(4);
  const double* p = a.data();
  AlignedBuffer<double> b = std::move(a);
  EXPECT_EQ(b.data(), p);
  EXPECT_TRUE(IsAligned(b.data()));
  EXPECT_EQ(a.data(), nullptr);  // NOLINT: moved-from inspection on purpose
  EXPECT_EQ(a.size(), 0u);
}

TEST(AlignedBuffer, EnsureCapacityIsAllocationFreeInSteadyState) {
  AlignedBuffer<double> buf;
  buf.EnsureCapacity(256);
  const double* p = buf.data();
  EXPECT_TRUE(IsAligned(p));
  // Repeat calls with the same or smaller bound must not reallocate —
  // the thread-local scratch pattern the kernels rely on.
  for (int i = 0; i < 10; ++i) {
    buf.EnsureCapacity(256);
    EXPECT_EQ(buf.data(), p);
    buf.EnsureCapacity(100);
    EXPECT_EQ(buf.data(), p);
  }
}

TEST(AlignedBuffer, ResizeForOverwriteKeepsPrefixAndGrowsExactly) {
  AlignedBuffer<int64_t> buf;
  buf.push_back(7);
  buf.push_back(9);
  buf.ResizeForOverwrite(1000);
  EXPECT_TRUE(IsAligned(buf.data()));
  EXPECT_EQ(buf.size(), 1000u);
  EXPECT_EQ(buf.capacity(), 1000u);  // no doubling slack
  EXPECT_EQ(buf[0], 7);
  EXPECT_EQ(buf[1], 9);
  // Shrinking only moves the size; the storage stays.
  const int64_t* p = buf.data();
  buf.ResizeForOverwrite(3);
  EXPECT_EQ(buf.size(), 3u);
  EXPECT_EQ(buf.data(), p);
  EXPECT_EQ(buf[1], 9);
}

}  // namespace
}  // namespace ads::common
