#include "workload/tpch_gen.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>
#include <utility>

#include "common/logging.h"
#include "common/rng.h"

namespace ads::workload {

namespace engine = ads::engine;

namespace {

// The dbgen date domain spans ~6.5 years; we use epoch days [0, 2405].
constexpr int64_t kMaxDate = 2405;

bool EvalCmp(double lhs, engine::CompareOp op, double rhs) {
  switch (op) {
    case engine::CompareOp::kLess:
      return lhs < rhs;
    case engine::CompareOp::kLessEqual:
      return lhs <= rhs;
    case engine::CompareOp::kEqual:
      return lhs == rhs;
    case engine::CompareOp::kGreater:
      return lhs > rhs;
    case engine::CompareOp::kGreaterEqual:
      return lhs >= rhs;
  }
  return false;
}

double ColumnValueAsDouble(const engine::Column& col, size_t row) {
  return col.type() == engine::ColumnType::kI64
             ? static_cast<double>(col.I64At(row))
             : col.F64At(row);
}

/// Output-groups ratio for an aggregate whose input subtree is `child`:
/// distinct group values over the child's true cardinality.
double DistinctRatio(size_t distinct, engine::PlanNode& child) {
  engine::AnnotateTrueCardinality(child);
  const double in = std::max(1.0, child.true_card);
  return std::min(1.0, static_cast<double>(distinct) / in);
}

}  // namespace

TpchGenerator::TpchGenerator(TpchGenOptions options)
    : options_(options) {
  ADS_CHECK(options_.scale_factor > 0.0) << "scale_factor must be positive";
  Generate();
  MeasureCatalog();
  BuildQueries();
}

void TpchGenerator::Generate() {
  const double sf = options_.scale_factor;
  const auto num_customers =
      static_cast<size_t>(std::max(1.0, std::llround(sf * 1500.0) * 1.0));
  const auto num_orders =
      static_cast<size_t>(std::max(1.0, std::llround(sf * 15000.0) * 1.0));
  const auto num_parts =
      static_cast<size_t>(std::max(20.0, std::llround(sf * 2000.0) * 1.0));

  // One cumulative-weight table per skewed foreign key, built once: a
  // draw is a binary search instead of a pass over the whole support.
  const common::ZipfTable nation_zipf(25, 0.8);
  const common::ZipfTable customer_zipf(
      static_cast<int64_t>(num_customers), 0.5);
  const common::ZipfTable part_zipf(static_cast<int64_t>(num_parts), 0.6);

  common::Rng root(options_.seed);
  common::Rng cust_rng = root.Fork();
  common::Rng order_rng = root.Fork();
  common::Rng line_rng = root.Fork();

  // customer -------------------------------------------------------------
  {
    engine::Column custkey = engine::Column::I64("c_custkey");
    engine::Column nationkey = engine::Column::I64("c_nationkey");
    engine::Column mktsegment = engine::Column::I64("c_mktsegment");
    engine::Column acctbal = engine::Column::I64("c_acctbal");
    for (size_t r = 0; r < num_customers; ++r) {
      custkey.AppendI64(static_cast<int64_t>(r) + 1);
      nationkey.AppendI64(nation_zipf.Sample(cust_rng));
      mktsegment.AppendI64(cust_rng.UniformInt(0, 4));
      acctbal.AppendI64(cust_rng.UniformInt(-99999, 999999));  // cents
    }
    engine::ColumnTable customer("customer");
    customer.AddColumn(std::move(custkey));
    customer.AddColumn(std::move(nationkey));
    customer.AddColumn(std::move(mktsegment));
    customer.AddColumn(std::move(acctbal));
    store_.AddTable(std::move(customer));
  }

  // orders ---------------------------------------------------------------
  std::vector<int64_t> order_dates(num_orders);
  {
    engine::Column orderkey = engine::Column::I64("o_orderkey");
    engine::Column custkey = engine::Column::I64("o_custkey");
    engine::Column orderdate = engine::Column::I64("o_orderdate");
    engine::Column priority = engine::Column::I64("o_orderpriority");
    engine::Column totalprice = engine::Column::I64("o_totalprice");
    for (size_t r = 0; r < num_orders; ++r) {
      orderkey.AppendI64(static_cast<int64_t>(r) + 1);
      // Zipf-skewed FK: a few customers place many orders, which is where
      // the uniformity-based join estimate goes wrong.
      custkey.AppendI64(1 + customer_zipf.Sample(order_rng));
      order_dates[r] = order_rng.UniformInt(0, kMaxDate - 121);
      orderdate.AppendI64(order_dates[r]);
      priority.AppendI64(order_rng.UniformInt(0, 4));
      totalprice.AppendI64(order_rng.UniformInt(100000, 50000000));  // cents
    }
    engine::ColumnTable orders("orders");
    orders.AddColumn(std::move(orderkey));
    orders.AddColumn(std::move(custkey));
    orders.AddColumn(std::move(orderdate));
    orders.AddColumn(std::move(priority));
    orders.AddColumn(std::move(totalprice));
    store_.AddTable(std::move(orders));
  }

  // lineitem -------------------------------------------------------------
  {
    engine::Column orderkey = engine::Column::I64("l_orderkey");
    engine::Column partkey = engine::Column::I64("l_partkey");
    engine::Column quantity = engine::Column::I64("l_quantity");
    engine::Column extendedprice = engine::Column::I64("l_extendedprice");
    engine::Column discount = engine::Column::I64("l_discount");
    engine::Column returnflag = engine::Column::I64("l_returnflag");
    engine::Column shipdate = engine::Column::I64("l_shipdate");
    engine::Column tax = engine::Column::F64("l_tax");
    for (size_t o = 0; o < num_orders; ++o) {
      const int64_t lines = line_rng.UniformInt(1, 7);
      for (int64_t l = 0; l < lines; ++l) {
        orderkey.AppendI64(static_cast<int64_t>(o) + 1);
        partkey.AppendI64(1 + part_zipf.Sample(line_rng));
        quantity.AppendI64(line_rng.UniformInt(1, 50));
        extendedprice.AppendI64(line_rng.UniformInt(90000, 10500000));
        discount.AppendI64(line_rng.UniformInt(0, 10));  // percent
        returnflag.AppendI64(line_rng.UniformInt(0, 2));
        shipdate.AppendI64(order_dates[o] + line_rng.UniformInt(1, 121));
        tax.AppendF64(line_rng.Uniform(0.0, 0.08));
      }
    }
    engine::ColumnTable lineitem("lineitem");
    lineitem.AddColumn(std::move(orderkey));
    lineitem.AddColumn(std::move(partkey));
    lineitem.AddColumn(std::move(quantity));
    lineitem.AddColumn(std::move(extendedprice));
    lineitem.AddColumn(std::move(discount));
    lineitem.AddColumn(std::move(returnflag));
    lineitem.AddColumn(std::move(shipdate));
    lineitem.AddColumn(std::move(tax));
    store_.AddTable(std::move(lineitem));
  }
}

void TpchGenerator::MeasureCatalog() {
  // Generation-time Zipf exponents — ground truth the estimator never
  // sees (it assumes uniform); everything else below is measured exactly.
  auto generation_skew = [](const std::string& column) {
    if (column == "c_nationkey") return 0.8;
    if (column == "o_custkey") return 0.5;
    if (column == "l_partkey") return 0.6;
    return 0.0;
  };
  for (const std::string& table_name : store_.TableNames()) {
    const engine::ColumnTable* table = store_.FindTable(table_name);
    engine::TableSpec spec;
    spec.name = table_name;
    spec.rows = static_cast<double>(table->num_rows());
    for (const engine::Column& col : table->columns()) {
      engine::ColumnSpec cs;
      cs.name = col.name();
      cs.skew = generation_skew(col.name());
      double lo = 0.0;
      double hi = 0.0;
      if (col.size() > 0) {
        lo = ColumnValueAsDouble(col, 0);
        hi = lo;
        for (size_t r = 1; r < col.size(); ++r) {
          const double v = ColumnValueAsDouble(col, r);
          lo = std::min(lo, v);
          hi = std::max(hi, v);
        }
      }
      cs.min_value = lo;
      cs.max_value = hi;
      if (col.type() == engine::ColumnType::kI64) {
        std::unordered_set<int64_t> seen;
        for (size_t r = 0; r < col.size(); ++r) seen.insert(col.I64At(r));
        cs.distinct_values = std::max<size_t>(1, seen.size());
      } else {
        cs.distinct_values = std::max<size_t>(1, col.size());
      }
      spec.columns.push_back(std::move(cs));
    }
    catalog_.AddTable(std::move(spec));
  }
}

double TpchGenerator::MeasuredSelectivity(const std::string& table,
                                          const std::string& column,
                                          engine::CompareOp op,
                                          double value) const {
  const engine::ColumnTable* t = store_.FindTable(table);
  ADS_CHECK(t != nullptr) << "unknown table " << table;
  const engine::Column* col = t->FindColumn(column);
  ADS_CHECK(col != nullptr) << "unknown column " << column;
  if (col->size() == 0) return 0.0;
  size_t hits = 0;
  for (size_t r = 0; r < col->size(); ++r) {
    hits += EvalCmp(ColumnValueAsDouble(*col, r), op, value);
  }
  return static_cast<double>(hits) / static_cast<double>(col->size());
}

engine::Predicate TpchGenerator::MeasuredPredicate(const std::string& table,
                                                   const std::string& column,
                                                   engine::CompareOp op,
                                                   double value) const {
  engine::Predicate pred;
  pred.column = column;
  pred.op = op;
  pred.value = value;
  pred.true_selectivity = MeasuredSelectivity(table, column, op, value);
  return pred;
}

size_t TpchGenerator::DistinctCount(const std::string& table,
                                    const std::string& column) const {
  const engine::ColumnTable* t = store_.FindTable(table);
  ADS_CHECK(t != nullptr) << "unknown table " << table;
  const engine::Column* col = t->FindColumn(column);
  ADS_CHECK(col != nullptr) << "unknown column " << column;
  ADS_CHECK(col->type() == engine::ColumnType::kI64)
      << "distinct counting is i64-only: " << column;
  std::unordered_set<int64_t> seen;
  for (size_t r = 0; r < col->size(); ++r) seen.insert(col->I64At(r));
  return std::max<size_t>(1, seen.size());
}

void TpchGenerator::BuildQueries() {
  using engine::AggExpr;
  using engine::AggFn;
  using engine::AggSpec;
  using engine::CompareOp;
  using engine::JoinSpec;
  using engine::MakeAggregate;
  using engine::MakeFilter;
  using engine::MakeJoin;
  using engine::MakeProject;
  using engine::MakeScan;
  using engine::MakeSort;
  using engine::PlanNode;

  const engine::TableSpec customer = catalog_.GetTable("customer").value();
  const engine::TableSpec orders = catalog_.GetTable("orders").value();
  const engine::TableSpec lineitem = catalog_.GetTable("lineitem").value();

  // Exact FK factors: every lineitem matches exactly one order, every
  // order exactly one customer.
  const double inv_orders = 1.0 / orders.rows;
  const double inv_customers = 1.0 / customer.rows;

  auto scan_lineitem = [&] { return MakeScan(lineitem); };
  auto scan_orders = [&] { return MakeScan(orders); };
  auto scan_customer = [&] { return MakeScan(customer); };

  // q1_pricing_summary: Q1-shaped. Scan lineitem, narrow, filter on
  // shipdate, group by returnflag with the full agg palette (f64 sum via
  // l_tax), sort by the flag.
  {
    auto project = MakeProject(
        scan_lineitem(),
        {"l_returnflag", "l_quantity", "l_extendedprice", "l_shipdate",
         "l_tax"},
        5 * 8.0);
    auto filtered = MakeFilter(
        std::move(project),
        {MeasuredPredicate("lineitem", "l_shipdate", CompareOp::kLessEqual,
                           2315.0)});
    AggSpec agg;
    agg.group_keys = {"l_returnflag"};
    agg.aggs = {AggExpr{AggFn::kSum, "l_quantity"},
                AggExpr{AggFn::kSum, "l_extendedprice"},
                AggExpr{AggFn::kAvg, "l_quantity"},
                AggExpr{AggFn::kAvg, "l_extendedprice"},
                AggExpr{AggFn::kSum, "l_tax"},
                AggExpr{AggFn::kCount, ""}};
    agg.true_distinct_ratio =
        DistinctRatio(DistinctCount("lineitem", "l_returnflag"), *filtered);
    auto plan =
        MakeSort(MakeAggregate(std::move(filtered), agg), {"l_returnflag"});
    queries_.push_back({"q1_pricing_summary", std::move(plan)});
  }

  // q3_shipping_priority: Q3-shaped. Segment customers x open orders x
  // shipped lineitems, revenue by order date.
  {
    auto cust = MakeFilter(scan_customer(),
                           {MeasuredPredicate("customer", "c_mktsegment",
                                              CompareOp::kEqual, 2.0)});
    auto ord = MakeFilter(scan_orders(),
                          {MeasuredPredicate("orders", "o_orderdate",
                                             CompareOp::kLess, 1100.0)});
    auto join1 = MakeJoin(std::move(ord), std::move(cust),
                          JoinSpec{"o_custkey", "c_custkey", inv_customers});
    auto line = MakeFilter(scan_lineitem(),
                           {MeasuredPredicate("lineitem", "l_shipdate",
                                              CompareOp::kGreater, 1100.0)});
    auto join2 = MakeJoin(std::move(line), std::move(join1),
                          JoinSpec{"l_orderkey", "o_orderkey", inv_orders});
    AggSpec agg;
    agg.group_keys = {"o_orderdate"};
    agg.aggs = {AggExpr{AggFn::kSum, "l_extendedprice"},
                AggExpr{AggFn::kCount, ""}};
    agg.true_distinct_ratio =
        DistinctRatio(DistinctCount("orders", "o_orderdate"), *join2);
    auto plan =
        MakeSort(MakeAggregate(std::move(join2), agg), {"o_orderdate"});
    queries_.push_back({"q3_shipping_priority", std::move(plan)});
  }

  // q4_order_priority: Q4-shaped (count by priority of orders in a date
  // window with a returned lineitem; no semi-join, so counts are per
  // matching line).
  {
    auto line = MakeFilter(scan_lineitem(),
                           {MeasuredPredicate("lineitem", "l_returnflag",
                                              CompareOp::kEqual, 1.0)});
    auto ord = MakeFilter(
        scan_orders(),
        {MeasuredPredicate("orders", "o_orderdate",
                           CompareOp::kGreaterEqual, 400.0),
         MeasuredPredicate("orders", "o_orderdate", CompareOp::kLess,
                           492.0)});
    auto join1 = MakeJoin(std::move(line), std::move(ord),
                          JoinSpec{"l_orderkey", "o_orderkey", inv_orders});
    AggSpec agg;
    agg.group_keys = {"o_orderpriority"};
    agg.aggs = {AggExpr{AggFn::kCount, ""}};
    agg.true_distinct_ratio =
        DistinctRatio(DistinctCount("orders", "o_orderpriority"), *join1);
    auto plan =
        MakeSort(MakeAggregate(std::move(join1), agg), {"o_orderpriority"});
    queries_.push_back({"q4_order_priority", std::move(plan)});
  }

  // q5_volume_by_nation: Q5-shaped. Revenue by customer nation over a
  // one-year order window.
  {
    auto ord = MakeFilter(
        scan_orders(),
        {MeasuredPredicate("orders", "o_orderdate",
                           CompareOp::kGreaterEqual, 0.0),
         MeasuredPredicate("orders", "o_orderdate", CompareOp::kLess,
                           365.0)});
    auto join1 = MakeJoin(std::move(ord), scan_customer(),
                          JoinSpec{"o_custkey", "c_custkey", inv_customers});
    auto join2 = MakeJoin(scan_lineitem(), std::move(join1),
                          JoinSpec{"l_orderkey", "o_orderkey", inv_orders});
    AggSpec agg;
    agg.group_keys = {"c_nationkey"};
    agg.aggs = {AggExpr{AggFn::kSum, "l_extendedprice"},
                AggExpr{AggFn::kCount, ""}};
    agg.true_distinct_ratio =
        DistinctRatio(DistinctCount("customer", "c_nationkey"), *join2);
    auto plan =
        MakeSort(MakeAggregate(std::move(join2), agg), {"c_nationkey"});
    queries_.push_back({"q5_volume_by_nation", std::move(plan)});
  }

  // q6_forecast_revenue: Q6-shaped. Pure scan-filter-aggregate with both
  // i64 and f64 predicates; the global aggregate has no group keys.
  {
    auto project = MakeProject(
        scan_lineitem(),
        {"l_shipdate", "l_discount", "l_quantity", "l_extendedprice",
         "l_tax"},
        5 * 8.0);
    auto filtered = MakeFilter(
        std::move(project),
        {MeasuredPredicate("lineitem", "l_shipdate",
                           CompareOp::kGreaterEqual, 365.0),
         MeasuredPredicate("lineitem", "l_shipdate", CompareOp::kLess,
                           730.0),
         MeasuredPredicate("lineitem", "l_discount",
                           CompareOp::kGreaterEqual, 2.0),
         MeasuredPredicate("lineitem", "l_discount", CompareOp::kLessEqual,
                           4.0),
         MeasuredPredicate("lineitem", "l_quantity", CompareOp::kLess,
                           24.0),
         MeasuredPredicate("lineitem", "l_tax", CompareOp::kLess, 0.05)});
    AggSpec agg;
    agg.aggs = {AggExpr{AggFn::kSum, "l_extendedprice"},
                AggExpr{AggFn::kMin, "l_extendedprice"},
                AggExpr{AggFn::kMax, "l_extendedprice"},
                AggExpr{AggFn::kCount, ""}};
    agg.true_distinct_ratio = DistinctRatio(1, *filtered);
    auto plan = MakeAggregate(std::move(filtered), agg);
    queries_.push_back({"q6_forecast_revenue", std::move(plan)});
  }

  // q10_returned_items: Q10-shaped. High-cardinality grouping (per
  // customer) with min/max in the palette.
  {
    auto ord = MakeFilter(
        scan_orders(),
        {MeasuredPredicate("orders", "o_orderdate",
                           CompareOp::kGreaterEqual, 700.0),
         MeasuredPredicate("orders", "o_orderdate", CompareOp::kLess,
                           800.0)});
    auto join1 = MakeJoin(std::move(ord), scan_customer(),
                          JoinSpec{"o_custkey", "c_custkey", inv_customers});
    auto line = MakeFilter(scan_lineitem(),
                           {MeasuredPredicate("lineitem", "l_returnflag",
                                              CompareOp::kEqual, 2.0)});
    auto join2 = MakeJoin(std::move(line), std::move(join1),
                          JoinSpec{"l_orderkey", "o_orderkey", inv_orders});
    AggSpec agg;
    agg.group_keys = {"c_custkey"};
    agg.aggs = {AggExpr{AggFn::kSum, "l_extendedprice"},
                AggExpr{AggFn::kMax, "l_extendedprice"},
                AggExpr{AggFn::kMin, "l_discount"},
                AggExpr{AggFn::kCount, ""}};
    agg.true_distinct_ratio =
        DistinctRatio(DistinctCount("customer", "c_custkey"), *join2);
    auto plan = MakeSort(MakeAggregate(std::move(join2), agg), {"c_custkey"});
    queries_.push_back({"q10_returned_items", std::move(plan)});
  }

  for (QueryTemplate& q : queries_) {
    engine::AnnotateTrueCardinality(*q.plan);
  }
}

std::vector<std::string> TpchGenerator::QueryNames() const {
  std::vector<std::string> names;
  names.reserve(queries_.size());
  for (const QueryTemplate& q : queries_) names.push_back(q.name);
  return names;
}

common::Result<std::unique_ptr<engine::PlanNode>> TpchGenerator::MakeQuery(
    const std::string& name) const {
  for (const QueryTemplate& q : queries_) {
    if (q.name == name) return q.plan->Clone();
  }
  return common::Status::NotFound("no query template named " + name);
}

}  // namespace ads::workload
