#include "engine/exec_real.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <numeric>
#include <sstream>

#include "engine/vec_ops.h"

namespace ads::engine {

namespace {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

common::Status MissingColumn(const std::string& column,
                             const std::string& where) {
  return common::Status::NotFound("column " + column + " not found in " +
                                  where);
}

/// Output type of an aggregate over an input column type.
ColumnType AggOutputType(AggFn fn, ColumnType input) {
  switch (fn) {
    case AggFn::kCount:
      return ColumnType::kI64;
    case AggFn::kAvg:
      return ColumnType::kF64;
    case AggFn::kSum:
    case AggFn::kMin:
    case AggFn::kMax:
      return input;
  }
  return ColumnType::kI64;
}

std::string NodeDetail(const PlanNode& node) {
  std::ostringstream os;
  switch (node.op) {
    case OpType::kScan:
      os << node.table;
      break;
    case OpType::kFilter:
      os << node.predicates.size() << " preds";
      break;
    case OpType::kProject:
      os << node.columns.size() << " cols";
      break;
    case OpType::kJoin:
      os << node.join.left_key << "=" << node.join.right_key;
      break;
    case OpType::kAggregate:
      os << node.agg.group_keys.size() << " keys, "
         << std::max<size_t>(1, node.agg.aggs.size()) << " aggs";
      break;
    case OpType::kSort:
      os << node.columns.size() << " cols";
      break;
    case OpType::kUnion:
      break;
  }
  return os.str();
}

}  // namespace

/// The columns a node's output must carry for the operators above it:
/// everything (`all`, the root's demand and union's) or a set of names.
struct RealExecutor::Demand {
  bool all = false;
  std::vector<std::string> names;

  bool Wants(const std::string& name) const {
    return all ||
           std::find(names.begin(), names.end(), name) != names.end();
  }
  void Add(const std::string& name) {
    if (!Wants(name)) names.push_back(name);
  }

  /// The demand `node` places on its children when this is the demand on
  /// `node`. Filter, Sort and Join add the columns they read; Project and
  /// Aggregate demand exactly the columns they name; Union demands
  /// everything because its schema check is positional.
  Demand OnChildrenOf(const PlanNode& node) const {
    Demand child;
    switch (node.op) {
      case OpType::kScan:
        break;
      case OpType::kFilter:
        child = *this;
        for (const Predicate& pred : node.predicates) child.Add(pred.column);
        break;
      case OpType::kSort:
        child = *this;
        for (const std::string& name : node.columns) child.Add(name);
        break;
      case OpType::kJoin:
        // Keys resolve against either side by schema, so both sides are
        // asked for both keys; each side has only the ones it contains.
        child = *this;
        child.Add(node.join.left_key);
        child.Add(node.join.right_key);
        break;
      case OpType::kProject:
        for (const std::string& name : node.columns) child.Add(name);
        break;
      case OpType::kAggregate:
        for (const std::string& key : node.agg.group_keys) child.Add(key);
        for (const AggExpr& agg : node.agg.aggs) {
          if (!agg.column.empty()) child.Add(agg.column);
        }
        break;
      case OpType::kUnion:
        child.all = true;
        break;
    }
    return child;
  }
};

/// An intermediate result: column pointers plus an explicit row count, so
/// a relation none of whose columns is demanded still knows its size.
/// Each column is borrowed from the TableStore or owned by `owned`.
struct RealExecutor::Relation {
  std::string name;
  size_t rows = 0;
  std::vector<const Column*> columns;
  std::vector<std::unique_ptr<Column>> owned;

  const Column* Find(const std::string& column) const {
    for (const Column* c : columns) {
      if (c->name() == column) return c;
    }
    return nullptr;
  }
  void Own(Column column) {
    owned.push_back(std::make_unique<Column>(std::move(column)));
    columns.push_back(owned.back().get());
  }
  /// Appends the columns of `input` that `demand` wants, gathered at the
  /// `rows` row indices in `sel`.
  void GatherFrom(const Relation& input, const Demand& demand,
                  const uint32_t* sel, common::ThreadPool& pool) {
    for (const Column* c : input.columns) {
      if (!demand.Wants(c->name())) continue;
      Column gathered;
      GatherColumn(*c, sel, rows, pool, &gathered);
      Own(std::move(gathered));
    }
  }
  /// The root's answer as an owned table: moves the columns an operator
  /// computed, copies those still borrowed from the store (or named twice
  /// by a project).
  ColumnTable Materialize() && {
    ColumnTable table(name);
    for (size_t i = 0; i < columns.size(); ++i) {
      const Column* c = columns[i];
      auto owner = std::find_if(
          owned.begin(), owned.end(),
          [c](const std::unique_ptr<Column>& o) { return o.get() == c; });
      const bool named_again =
          std::find(columns.begin() + i + 1, columns.end(), c) !=
          columns.end();
      if (owner != owned.end() && !named_again) {
        table.AddColumn(std::move(**owner));
      } else {
        table.AddColumn(*c);
      }
    }
    return table;
  }
};

struct RealExecutor::ExecContext {
  telemetry::Tracer* tracer = nullptr;
  double start_time = 0.0;
  std::vector<OperatorStats>* operators = nullptr;
};

RealExecutor::RealExecutor(const TableStore* store, RealExecOptions options)
    : store_(store), options_(options) {}

common::ThreadPool& RealExecutor::pool() const {
  return options_.pool != nullptr ? *options_.pool
                                  : common::ThreadPool::Global();
}

common::Result<ExecResult> RealExecutor::Execute(
    const PlanNode& plan, telemetry::Tracer* tracer,
    telemetry::SpanId parent) const {
  ExecResult result;
  ExecContext ctx;
  ctx.tracer = tracer;
  ctx.start_time = Now();
  ctx.operators = &result.operators;
  Demand root;
  root.all = true;
  auto rel = Exec(plan, root, ctx, parent);
  if (!rel.ok()) return rel.status();
  result.table = std::move(rel.value()).Materialize();
  result.total_seconds = Now() - ctx.start_time;
  return result;
}

common::Result<RealExecutor::Relation> RealExecutor::Exec(
    const PlanNode& node, const Demand& demand, ExecContext& ctx,
    telemetry::SpanId parent) const {
  telemetry::SpanId span = telemetry::kNoSpan;
  if (ctx.tracer != nullptr) {
    span = ctx.tracer->StartSpan(
        "operator", std::string("exec.") + OpTypeName(node.op), parent,
        Now() - ctx.start_time);
    ctx.tracer->Annotate(span, "detail", NodeDetail(node));
  }

  uint64_t rows_in = 0;
  std::vector<Relation> inputs;
  inputs.reserve(node.children.size());
  const Demand child_demand = demand.OnChildrenOf(node);
  for (const auto& child : node.children) {
    auto in = Exec(*child, child_demand, ctx, span);
    if (!in.ok()) {
      if (ctx.tracer != nullptr) {
        ctx.tracer->Annotate(span, "outcome", "error");
        ctx.tracer->EndSpan(span, Now() - ctx.start_time);
      }
      return in.status();
    }
    rows_in += in->rows;
    inputs.push_back(std::move(in).value());
  }

  const double op_start = Now();
  common::Result<Relation> out = [&]() -> common::Result<Relation> {
    switch (node.op) {
      case OpType::kScan:
        return ExecScan(node);
      case OpType::kFilter:
        return ExecFilter(node, std::move(inputs[0]), demand);
      case OpType::kProject:
        return ExecProject(node, std::move(inputs[0]));
      case OpType::kJoin:
        return ExecJoin(node, std::move(inputs[0]), std::move(inputs[1]),
                        demand);
      case OpType::kAggregate:
        return ExecAggregate(node, std::move(inputs[0]));
      case OpType::kSort:
        return ExecSort(node, std::move(inputs[0]), demand);
      case OpType::kUnion:
        return ExecUnion(std::move(inputs[0]), std::move(inputs[1]));
    }
    return common::Status::Unimplemented("unknown operator");
  }();
  const double op_seconds = Now() - op_start;

  if (!out.ok()) {
    if (ctx.tracer != nullptr) {
      ctx.tracer->Annotate(span, "outcome", "error");
      ctx.tracer->EndSpan(span, Now() - ctx.start_time);
    }
    return out.status();
  }

  OperatorStats stats;
  stats.op = node.op;
  stats.detail = NodeDetail(node);
  stats.rows_in = rows_in;
  stats.rows_out = out->rows;
  stats.est_card = node.est_card;
  stats.true_card = node.true_card;
  stats.seconds = op_seconds;
  ctx.operators->push_back(stats);

  if (ctx.tracer != nullptr) {
    ctx.tracer->Annotate(span, "rows_in", std::to_string(rows_in));
    ctx.tracer->Annotate(span, "rows_out", std::to_string(out->rows));
    ctx.tracer->EndSpan(span, Now() - ctx.start_time);
  }
  return out;
}

common::Result<RealExecutor::Relation> RealExecutor::ExecScan(
    const PlanNode& node) const {
  const ColumnTable* table = store_->FindTable(node.table);
  if (table == nullptr) {
    return common::Status::NotFound("no stored table named " + node.table +
                                    " (is this a simulated-only plan?)");
  }
  Relation out;
  out.name = table->name();
  out.rows = table->num_rows();
  if (node.columns.empty()) {
    for (const Column& c : table->columns()) out.columns.push_back(&c);
    return out;
  }
  // ProjectIntoScan narrowing: emit only the surviving columns.
  for (const std::string& name : node.columns) {
    const Column* c = table->FindColumn(name);
    if (c == nullptr) return MissingColumn(name, "scan of " + node.table);
    out.columns.push_back(c);
  }
  return out;
}

common::Result<RealExecutor::Relation> RealExecutor::ExecFilter(
    const PlanNode& node, Relation input, const Demand& demand) const {
  if (node.predicates.empty()) return input;
  std::vector<ColumnPredicate> preds;
  preds.reserve(node.predicates.size());
  for (const Predicate& pred : node.predicates) {
    const Column* col = input.Find(pred.column);
    if (col == nullptr) return MissingColumn(pred.column, "filter input");
    preds.push_back({col, pred.op, pred.value});
  }
  common::AlignedBuffer<uint32_t> sel;
  Relation out;
  out.name = input.name;
  out.rows = SelectRows(preds, input.rows, pool(), &sel);
  out.GatherFrom(input, demand, sel.data(), pool());
  return out;
}

common::Result<RealExecutor::Relation> RealExecutor::ExecProject(
    const PlanNode& node, Relation input) const {
  Relation out;
  out.name = input.name;
  out.rows = input.rows;
  for (const std::string& name : node.columns) {
    const Column* c = input.Find(name);
    if (c == nullptr) return MissingColumn(name, "project input");
    out.columns.push_back(c);
  }
  out.owned = std::move(input.owned);
  return out;
}

common::Result<RealExecutor::Relation> RealExecutor::ExecJoin(
    const PlanNode& node, Relation left, Relation right,
    const Demand& demand) const {
  // Resolve which side owns which key by schema, not by position: the
  // commute/associativity rules move keys freely.
  const Column* lkey = left.Find(node.join.left_key);
  const Column* rkey = right.Find(node.join.right_key);
  if (lkey == nullptr || rkey == nullptr) {
    lkey = left.Find(node.join.right_key);
    rkey = right.Find(node.join.left_key);
  }
  if (lkey == nullptr || rkey == nullptr) {
    return common::Status::NotFound("join keys " + node.join.left_key +
                                    "/" + node.join.right_key +
                                    " not resolvable against inputs");
  }
  if (lkey->type() != ColumnType::kI64 || rkey->type() != ColumnType::kI64) {
    return common::Status::Unimplemented("join keys must be i64 columns");
  }

  // Build over the right input, probe with the left in row order: output
  // row order is (left row asc, right matches asc) — the defined order.
  JoinHashTable table;
  table.Build(*rkey, options_.hash_seed);
  common::AlignedBuffer<uint32_t> probe_idx;
  common::AlignedBuffer<uint32_t> build_idx;
  table.Probe(*lkey, pool(), &probe_idx, &build_idx);

  Relation out;
  out.name = left.name + "_x_" + right.name;
  out.rows = probe_idx.size();
  out.GatherFrom(left, demand, probe_idx.data(), pool());
  out.GatherFrom(right, demand, build_idx.data(), pool());
  return out;
}

common::Result<RealExecutor::Relation> RealExecutor::ExecAggregate(
    const PlanNode& node, Relation input) const {
  const size_t rows = input.rows;

  std::vector<const Column*> key_cols;
  for (const std::string& key : node.agg.group_keys) {
    const Column* c = input.Find(key);
    if (c == nullptr) {
      return MissingColumn(key,
                           "aggregate input (eager-aggregation partials "
                           "are not executable)");
    }
    if (c->type() != ColumnType::kI64) {
      return common::Status::Unimplemented("group keys must be i64 columns");
    }
    key_cols.push_back(c);
  }

  std::vector<AggExpr> aggs = node.agg.aggs;
  if (aggs.empty()) aggs.push_back(AggExpr{AggFn::kCount, ""});
  std::vector<const Column*> agg_cols(aggs.size(), nullptr);
  for (size_t a = 0; a < aggs.size(); ++a) {
    if (aggs[a].column.empty()) {
      if (aggs[a].fn != AggFn::kCount) {
        return common::Status::InvalidArgument(
            "aggregate without input column must be COUNT(*)");
      }
      continue;
    }
    agg_cols[a] = input.Find(aggs[a].column);
    if (agg_cols[a] == nullptr) {
      return MissingColumn(aggs[a].column, "aggregate input");
    }
  }

  GroupIndex index;
  index.Build(key_cols, rows, options_.hash_seed);
  // A global aggregate (no keys) over zero rows still yields one row of
  // identities: count 0, sum 0, avg 0, min/max 0. This engine has no
  // NULLs; both executors implement exactly this convention.
  const bool global_empty = key_cols.empty() && rows == 0;
  const size_t groups = global_empty ? 1 : index.num_groups();
  const auto& group_of_row = index.group_of_row();

  Relation out;
  out.name = "agg_" + input.name;
  out.rows = groups;
  for (size_t k = 0; k < key_cols.size(); ++k) {
    Column keys = Column::I64(key_cols[k]->name());
    keys.Reserve(groups);
    for (size_t g = 0; g < groups; ++g) {
      keys.AppendI64(key_cols[k]->I64At(index.representative_row()[g]));
    }
    out.Own(std::move(keys));
  }

  // Per-group counts, shared by count/avg.
  std::vector<int64_t> counts(groups, 0);
  for (size_t r = 0; r < rows; ++r) ++counts[group_of_row[r]];

  for (size_t a = 0; a < aggs.size(); ++a) {
    const AggExpr& spec = aggs[a];
    const Column* in = agg_cols[a];
    const ColumnType in_type =
        in == nullptr ? ColumnType::kI64 : in->type();
    Column result(spec.OutputName(), AggOutputType(spec.fn, in_type));
    result.ResizeForOverwrite(groups);
    switch (spec.fn) {
      case AggFn::kCount: {
        for (size_t g = 0; g < groups; ++g) result.I64At(g) = counts[g];
        break;
      }
      case AggFn::kSum: {
        if (in_type == ColumnType::kI64) {
          // Unsigned accumulation: overflow-adjacent data wraps mod 2^64
          // (defined, and congruent to the signed sum) instead of UB.
          std::vector<uint64_t> sums(groups, 0);
          const int64_t* v = in->i64_data();
          for (size_t r = 0; r < rows; ++r) {
            sums[group_of_row[r]] += static_cast<uint64_t>(v[r]);
          }
          for (size_t g = 0; g < groups; ++g) {
            result.I64At(g) = static_cast<int64_t>(sums[g]);
          }
        } else {
          // Row-order accumulation: the defined (and bit-reproducible)
          // semantics of SUM over doubles.
          std::vector<double> sums(groups, 0.0);
          const double* v = in->f64_data();
          for (size_t r = 0; r < rows; ++r) sums[group_of_row[r]] += v[r];
          for (size_t g = 0; g < groups; ++g) result.F64At(g) = sums[g];
        }
        break;
      }
      case AggFn::kAvg: {
        if (in_type == ColumnType::kI64) {
          std::vector<uint64_t> sums(groups, 0);
          const int64_t* v = in->i64_data();
          for (size_t r = 0; r < rows; ++r) {
            sums[group_of_row[r]] += static_cast<uint64_t>(v[r]);
          }
          for (size_t g = 0; g < groups; ++g) {
            result.F64At(g) =
                counts[g] == 0
                    ? 0.0
                    : static_cast<double>(static_cast<int64_t>(sums[g])) /
                          static_cast<double>(counts[g]);
          }
        } else {
          std::vector<double> sums(groups, 0.0);
          const double* v = in->f64_data();
          for (size_t r = 0; r < rows; ++r) sums[group_of_row[r]] += v[r];
          for (size_t g = 0; g < groups; ++g) {
            result.F64At(g) = counts[g] == 0
                                  ? 0.0
                                  : sums[g] / static_cast<double>(counts[g]);
          }
        }
        break;
      }
      case AggFn::kMin:
      case AggFn::kMax: {
        const bool is_min = spec.fn == AggFn::kMin;
        if (in_type == ColumnType::kI64) {
          std::vector<int64_t> best(groups, 0);
          std::vector<bool> seen(groups, false);
          const int64_t* v = in->i64_data();
          for (size_t r = 0; r < rows; ++r) {
            const uint32_t g = group_of_row[r];
            if (!seen[g] || (is_min ? v[r] < best[g] : v[r] > best[g])) {
              best[g] = v[r];
              seen[g] = true;
            }
          }
          for (size_t g = 0; g < groups; ++g) result.I64At(g) = best[g];
        } else {
          std::vector<double> best(groups, 0.0);
          std::vector<bool> seen(groups, false);
          const double* v = in->f64_data();
          for (size_t r = 0; r < rows; ++r) {
            const uint32_t g = group_of_row[r];
            if (!seen[g] || (is_min ? v[r] < best[g] : v[r] > best[g])) {
              best[g] = v[r];
              seen[g] = true;
            }
          }
          for (size_t g = 0; g < groups; ++g) result.F64At(g) = best[g];
        }
        break;
      }
    }
    out.Own(std::move(result));
  }
  return out;
}

common::Result<RealExecutor::Relation> RealExecutor::ExecSort(
    const PlanNode& node, Relation input, const Demand& demand) const {
  std::vector<const Column*> sort_cols;
  for (const std::string& name : node.columns) {
    const Column* c = input.Find(name);
    if (c == nullptr) return MissingColumn(name, "sort input");
    sort_cols.push_back(c);
  }
  const size_t rows = input.rows;
  common::AlignedBuffer<uint32_t> order(rows);
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(),
                   [&](uint32_t a, uint32_t b) {
                     for (const Column* c : sort_cols) {
                       if (c->type() == ColumnType::kI64) {
                         if (c->I64At(a) != c->I64At(b)) {
                           return c->I64At(a) < c->I64At(b);
                         }
                       } else {
                         if (c->F64At(a) != c->F64At(b)) {
                           return c->F64At(a) < c->F64At(b);
                         }
                       }
                     }
                     return false;
                   });
  Relation out;
  out.name = input.name;
  out.rows = rows;
  out.GatherFrom(input, demand, order.data(), pool());
  return out;
}

common::Result<RealExecutor::Relation> RealExecutor::ExecUnion(
    Relation left, Relation right) const {
  if (left.columns.size() != right.columns.size()) {
    return common::Status::InvalidArgument("union schema mismatch");
  }
  for (size_t i = 0; i < left.columns.size(); ++i) {
    if (left.columns[i]->name() != right.columns[i]->name() ||
        left.columns[i]->type() != right.columns[i]->type()) {
      return common::Status::InvalidArgument("union schema mismatch");
    }
  }
  Relation out;
  out.name = left.name;
  out.rows = left.rows + right.rows;
  for (size_t i = 0; i < left.columns.size(); ++i) {
    Column c = *left.columns[i];
    const Column& rc = *right.columns[i];
    for (size_t r = 0; r < rc.size(); ++r) c.AppendFrom(rc, r);
    out.Own(std::move(c));
  }
  return out;
}

}  // namespace ads::engine
