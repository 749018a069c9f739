// Late materialization in RealExecutor: scans borrow the store's columns
// and a top-down demand pass lets Filter/Join/Sort gather only what the
// operators above still read. These tests pin what that must not change:
// row counts of relations with no demanded column, joins whose keys are
// dropped above them, the full schema of every operator type at the root,
// and the Status of a plan naming a missing column nothing reads or
// unioning mismatched inputs. A counting global allocator shows the
// copying is really gone.

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "engine/exec_real.h"
#include "engine/optimizer.h"
#include "engine/plan.h"
#include "engine/reference_exec.h"
#include "engine/rules.h"
#include "engine/table.h"
#include "workload/tpch_gen.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<size_t> g_bytes{0};

void Count(size_t n) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_bytes.fetch_add(n, std::memory_order_relaxed);
  }
}

}  // namespace

// Every replaceable form, so each allocation is counted and each pointer
// is freed by the allocator that made it: containers and AlignedBuffer use
// the throwing forms, std::stable_sort's temporary buffer the nothrow one.
//
// GCC flags free() on new'ed pointers without seeing that these
// replacements allocate via malloc/aligned_alloc, so free IS the matching
// deallocator here.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(size_t n) {
  Count(n);
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](size_t n) { return ::operator new(n); }
void* operator new(size_t n, std::align_val_t align) {
  Count(n);
  void* p = std::aligned_alloc(static_cast<size_t>(align),
                               (n + static_cast<size_t>(align) - 1) /
                                   static_cast<size_t>(align) *
                                   static_cast<size_t>(align));
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](size_t n, std::align_val_t align) {
  return ::operator new(n, align);
}
void* operator new(size_t n, const std::nothrow_t&) noexcept {
  Count(n);
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](size_t n, const std::nothrow_t&) noexcept {
  return ::operator new(n, std::nothrow);
}
void* operator new(size_t n, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  try {
    return ::operator new(n, align);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](size_t n, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return ::operator new(n, align, std::nothrow);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace ads::engine {
namespace {

TableSpec SpecFor(const TableStore& store, const std::string& name) {
  const ColumnTable* t = store.FindTable(name);
  TableSpec spec;
  spec.name = name;
  spec.rows = static_cast<double>(t->num_rows());
  for (const Column& c : t->columns()) {
    ColumnSpec cs;
    cs.name = c.name();
    spec.columns.push_back(cs);
  }
  return spec;
}

// fact(f_key, f_a, f_b, f_x) x dim(d_key, d_c): duplicate join keys on
// both sides, a float column, and a fact key with no dim match.
TableStore MakeStore() {
  TableStore store;
  Column fk = Column::I64("f_key");
  Column fa = Column::I64("f_a");
  Column fb = Column::I64("f_b");
  Column fx = Column::F64("f_x");
  for (int64_t r = 0; r < 40; ++r) {
    fk.AppendI64(r % 7);
    fa.AppendI64((r * 13) % 17);
    fb.AppendI64(r % 3);
    fx.AppendF64(0.25 * static_cast<double>(r) - 3.0);
  }
  ColumnTable fact("fact");
  fact.AddColumn(std::move(fk));
  fact.AddColumn(std::move(fa));
  fact.AddColumn(std::move(fb));
  fact.AddColumn(std::move(fx));
  store.AddTable(std::move(fact));

  Column dk = Column::I64("d_key");
  Column dc = Column::I64("d_c");
  for (int64_t r = 0; r < 9; ++r) {
    dk.AppendI64(r % 6);
    dc.AppendI64(100 + r);
  }
  ColumnTable dim("dim");
  dim.AddColumn(std::move(dk));
  dim.AddColumn(std::move(dc));
  store.AddTable(std::move(dim));
  return store;
}

std::unique_ptr<PlanNode> Scan(const TableStore& store,
                               const std::string& table) {
  return MakeScan(SpecFor(store, table));
}

std::unique_ptr<PlanNode> FactJoinDim(const TableStore& store) {
  JoinSpec join;
  join.left_key = "f_key";
  join.right_key = "d_key";
  return MakeJoin(Scan(store, "fact"), Scan(store, "dim"), join);
}

std::vector<std::string> ColumnNames(const ColumnTable& table) {
  std::vector<std::string> names;
  for (const Column& c : table.columns()) names.push_back(c.name());
  return names;
}

/// Runs `plan` on both executors, expects bit-equal answers, and returns
/// the vectorized result.
ExecResult RunBoth(const TableStore& store, const PlanNode& plan) {
  ReferenceExecutor reference(&store);
  auto oracle = reference.Execute(plan);
  EXPECT_TRUE(oracle.ok()) << oracle.status();
  RealExecOptions opts;
  opts.pool = &common::ThreadPool::Serial();
  RealExecutor exec(&store, opts);
  auto got = exec.Execute(plan);
  EXPECT_TRUE(got.ok()) << got.status();
  if (!oracle.ok() || !got.ok()) return ExecResult();
  EXPECT_TRUE(got->table.BitwiseEquals(oracle.value()))
      << "reference:\n"
      << oracle->Serialize() << "vectorized:\n"
      << got->table.Serialize();
  return std::move(got).value();
}

TEST(ExecPruningTest, Q6AllocatesLessThanOneLineitemColumn) {
  workload::TpchGenOptions gen_opts;
  gen_opts.scale_factor = 0.2;
  gen_opts.seed = 42;
  workload::TpchGenerator gen(gen_opts);
  Optimizer optimizer(&gen.catalog());
  auto logical = gen.MakeQuery("q6_forecast_revenue");
  ASSERT_TRUE(logical.ok()) << logical.status();
  auto plan = optimizer.Optimize(*logical.value(), RuleConfig::Default());
  ASSERT_NE(plan, nullptr);

  RealExecOptions opts;
  opts.pool = &common::ThreadPool::Serial();
  RealExecutor exec(&gen.store(), opts);
  ASSERT_TRUE(exec.Execute(*plan).ok());  // warm-up

  g_bytes.store(0);
  g_counting.store(true);
  auto result = exec.Execute(*plan);
  g_counting.store(false);
  ASSERT_TRUE(result.ok()) << result.status();

  // A scan that copies the table allocates every lineitem column before
  // the filter runs (about eight columns' worth here); a borrowed scan
  // plus a demand-pruned gather of the few selected rows stays below one.
  const size_t column_bytes =
      gen.store().FindTable("lineitem")->num_rows() * sizeof(int64_t);
  EXPECT_LT(g_bytes.load(), column_bytes)
      << "Execute(q6) allocated " << g_bytes.load()
      << " bytes; one lineitem column is " << column_bytes;

  ReferenceExecutor reference(&gen.store());
  auto oracle = reference.Execute(*plan);
  ASSERT_TRUE(oracle.ok()) << oracle.status();
  EXPECT_TRUE(result->table.BitwiseEquals(oracle.value()));
}

TEST(ExecPruningTest, CountStarOverUnreferencedFilterKeepsRowCount) {
  const TableStore store = MakeStore();
  Predicate pred;
  pred.column = "f_a";
  pred.op = CompareOp::kLess;
  pred.value = 9.0;
  // COUNT(*) reads no column, so the filter's output carries none.
  auto plan = MakeAggregate(MakeFilter(Scan(store, "fact"), {pred}),
                            AggSpec());
  const ExecResult result = RunBoth(store, *plan);

  int64_t expected = 0;
  const Column* fa = store.FindTable("fact")->FindColumn("f_a");
  for (size_t r = 0; r < fa->size(); ++r) expected += fa->I64At(r) < 9;
  ASSERT_GT(expected, 0);
  ASSERT_EQ(result.table.num_rows(), 1u);
  EXPECT_EQ(result.table.ColumnAt(0).I64At(0), expected);
  ASSERT_EQ(result.operators.size(), 3u);
  EXPECT_EQ(result.operators[1].op, OpType::kFilter);
  EXPECT_EQ(result.operators[1].rows_out, static_cast<uint64_t>(expected));
  EXPECT_EQ(result.operators[2].rows_in, static_cast<uint64_t>(expected));
}

TEST(ExecPruningTest, JoinKeysUnreferencedAboveTheJoin) {
  const TableStore store = MakeStore();
  AggSpec agg;
  agg.group_keys = {"f_b"};
  agg.aggs = {AggExpr{AggFn::kSum, "d_c"}, AggExpr{AggFn::kAvg, "f_x"},
              AggExpr{AggFn::kCount, ""}};
  const ExecResult grouped =
      RunBoth(store, *MakeAggregate(FactJoinDim(store), agg));
  EXPECT_GT(grouped.table.num_rows(), 0u);

  // A project over the join that drops both keys; then a COUNT(*) over a
  // join nothing reads a column of.
  const ExecResult projected =
      RunBoth(store, *MakeProject(FactJoinDim(store), {"d_c", "f_a"}, 16.0));
  EXPECT_EQ(ColumnNames(projected.table),
            (std::vector<std::string>{"d_c", "f_a"}));
  const ExecResult counted =
      RunBoth(store, *MakeAggregate(FactJoinDim(store), AggSpec()));
  ASSERT_EQ(counted.table.num_rows(), 1u);
  EXPECT_EQ(static_cast<size_t>(counted.table.ColumnAt(0).I64At(0)),
            projected.table.num_rows());
}

TEST(ExecPruningTest, EveryOperatorAtTheRootKeepsItsFullSchema) {
  const TableStore store = MakeStore();
  const std::vector<std::string> fact_cols = {"f_key", "f_a", "f_b", "f_x"};
  std::vector<std::string> joined = fact_cols;
  joined.push_back("d_key");
  joined.push_back("d_c");

  Predicate pred;
  pred.column = "f_x";
  pred.op = CompareOp::kGreaterEqual;
  pred.value = 0.0;
  AggSpec agg;
  agg.group_keys = {"f_key", "f_b"};
  agg.aggs = {AggExpr{AggFn::kMin, "f_x"}, AggExpr{AggFn::kMax, "f_a"}};

  struct Case {
    std::string what;
    std::unique_ptr<PlanNode> plan;
    std::vector<std::string> schema;
  };
  std::vector<Case> cases;
  cases.push_back({"scan", Scan(store, "fact"), fact_cols});
  cases.push_back(
      {"filter", MakeFilter(Scan(store, "fact"), {pred}), fact_cols});
  cases.push_back({"project",
                   MakeProject(Scan(store, "fact"), {"f_x", "f_key"}, 16.0),
                   {"f_x", "f_key"}});
  cases.push_back({"join", FactJoinDim(store), joined});
  cases.push_back({"aggregate", MakeAggregate(Scan(store, "fact"), agg),
                   {"f_key", "f_b", "min_f_x", "max_f_a"}});
  cases.push_back(
      {"sort", MakeSort(FactJoinDim(store), {"d_c", "f_a"}), joined});
  cases.push_back(
      {"union",
       MakeUnion(MakeFilter(Scan(store, "fact"), {pred}), Scan(store, "fact")),
       fact_cols});
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    const ExecResult result = RunBoth(store, *c.plan);
    EXPECT_EQ(ColumnNames(result.table), c.schema);
    EXPECT_GT(result.table.num_rows(), 0u);
  }
}

TEST(ExecPruningTest, MissingColumnsNothingReadsStillFail) {
  const TableStore store = MakeStore();
  // A project and a narrowed scan each name a column the table lacks;
  // the COUNT(*) above reads neither.
  auto project = MakeAggregate(
      MakeProject(Scan(store, "fact"), {"f_a", "f_missing"}, 16.0),
      AggSpec());
  auto scan = Scan(store, "fact");
  scan->columns = {"f_key", "f_missing"};
  auto narrowed = MakeAggregate(std::move(scan), AggSpec());

  ReferenceExecutor reference(&store);
  RealExecutor exec(&store);
  for (const PlanNode* plan : {project.get(), narrowed.get()}) {
    auto want = reference.Execute(*plan);
    auto got = exec.Execute(*plan);
    ASSERT_FALSE(want.ok());
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.status().code(), common::StatusCode::kNotFound);
    EXPECT_EQ(got.status().code(), want.status().code());
    EXPECT_EQ(got.status().message(), want.status().message());
  }
}

TEST(ExecPruningTest, UnionSchemaMismatchFailsWhateverIsReadAbove) {
  const TableStore store = MakeStore();
  // The two sides differ only in a column the SUM above never reads; if
  // union passed that narrower demand down, the filters would gather
  // equal schemas and the mismatch would go unnoticed.
  Predicate pred;
  pred.column = "f_key";
  pred.op = CompareOp::kGreater;
  pred.value = 1.0;
  auto left = Scan(store, "fact");
  left->columns = {"f_key", "f_a"};
  auto right = Scan(store, "fact");
  right->columns = {"f_key", "f_b"};
  AggSpec agg;
  agg.aggs = {AggExpr{AggFn::kSum, "f_key"}};
  auto plan = MakeAggregate(MakeUnion(MakeFilter(std::move(left), {pred}),
                                      MakeFilter(std::move(right), {pred})),
                            agg);

  ReferenceExecutor reference(&store);
  RealExecutor exec(&store);
  auto want = reference.Execute(*plan);
  auto got = exec.Execute(*plan);
  ASSERT_FALSE(want.ok());
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), common::StatusCode::kInvalidArgument);
  EXPECT_EQ(got.status().message(), want.status().message());
}

}  // namespace
}  // namespace ads::engine
