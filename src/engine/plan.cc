#include "engine/plan.h"

#include <algorithm>
#include <sstream>

#include "common/logging.h"

namespace ads::engine {

const char* OpTypeName(OpType op) {
  switch (op) {
    case OpType::kScan:
      return "Scan";
    case OpType::kFilter:
      return "Filter";
    case OpType::kProject:
      return "Project";
    case OpType::kJoin:
      return "Join";
    case OpType::kAggregate:
      return "Aggregate";
    case OpType::kSort:
      return "Sort";
    case OpType::kUnion:
      return "Union";
  }
  return "?";
}

const char* AggFnName(AggFn fn) {
  switch (fn) {
    case AggFn::kSum:
      return "sum";
    case AggFn::kCount:
      return "count";
    case AggFn::kAvg:
      return "avg";
    case AggFn::kMin:
      return "min";
    case AggFn::kMax:
      return "max";
  }
  return "?";
}

std::string AggExpr::OutputName() const {
  if (column.empty()) return "count_rows";
  return std::string(AggFnName(fn)) + "_" + column;
}

std::unique_ptr<PlanNode> PlanNode::Clone() const {
  auto copy = std::make_unique<PlanNode>();
  copy->op = op;
  copy->table = table;
  copy->table_rows = table_rows;
  copy->predicates = predicates;
  copy->columns = columns;
  copy->row_width = row_width;
  copy->join = join;
  copy->agg = agg;
  copy->true_card = true_card;
  copy->est_card = est_card;
  for (const auto& child : children) {
    copy->children.push_back(child->Clone());
  }
  return copy;
}

namespace {

uint64_t SignatureOf(const PlanNode& node, bool strict) {
  uint64_t h = HashString(OpTypeName(node.op));
  switch (node.op) {
    case OpType::kScan:
      h = HashCombine(h, HashString(node.table));
      break;
    case OpType::kFilter: {
      // Order-insensitive combination so that logically equal predicate
      // sets hash equally.
      uint64_t acc = 0;
      for (const Predicate& p : node.predicates) {
        acc ^= strict ? p.StrictHash() : p.TemplateHash();
      }
      h = HashCombine(h, acc);
      break;
    }
    case OpType::kProject: {
      uint64_t acc = 0;
      for (const std::string& c : node.columns) acc ^= HashString(c);
      h = HashCombine(h, acc);
      break;
    }
    case OpType::kJoin:
      h = HashCombine(h, HashString(node.join.left_key));
      h = HashCombine(h, HashString(node.join.right_key));
      break;
    case OpType::kAggregate: {
      uint64_t acc = 0;
      for (const std::string& c : node.agg.group_keys) acc ^= HashString(c);
      // Aggregate functions fold into the same accumulator, so plans
      // without them (the pre-execution simulated path) hash as before.
      for (const AggExpr& a : node.agg.aggs) {
        acc ^= HashCombine(HashString(a.column),
                           static_cast<uint64_t>(a.fn) + 1);
      }
      h = HashCombine(h, acc);
      break;
    }
    case OpType::kSort: {
      uint64_t acc = 0;
      for (const std::string& c : node.columns) acc ^= HashString(c);
      h = HashCombine(h, acc);
      break;
    }
    case OpType::kUnion:
      break;
  }
  for (const auto& child : node.children) {
    h = HashCombine(h, SignatureOf(*child, strict));
  }
  return h;
}

}  // namespace

uint64_t PlanNode::StrictSignature() const { return SignatureOf(*this, true); }
uint64_t PlanNode::TemplateSignature() const {
  return SignatureOf(*this, false);
}

size_t PlanNode::NodeCount() const {
  size_t n = 1;
  for (const auto& child : children) n += child->NodeCount();
  return n;
}

int PlanNode::Depth() const {
  int d = 0;
  for (const auto& child : children) d = std::max(d, child->Depth());
  return d + 1;
}

void PlanNode::Visit(const std::function<void(const PlanNode&)>& fn) const {
  fn(*this);
  for (const auto& child : children) child->Visit(fn);
}

std::string PlanNode::ToString(int indent) const {
  std::ostringstream os;
  os << std::string(static_cast<size_t>(indent) * 2, ' ') << OpTypeName(op);
  switch (op) {
    case OpType::kScan:
      os << "(" << table << ")";
      break;
    case OpType::kFilter:
      os << "(";
      for (size_t i = 0; i < predicates.size(); ++i) {
        if (i > 0) os << " AND ";
        os << predicates[i].column << CompareOpName(predicates[i].op)
           << predicates[i].value;
      }
      os << ")";
      break;
    case OpType::kJoin:
      os << "(" << join.left_key << "=" << join.right_key << ", "
         << (join.strategy == JoinStrategy::kBroadcast ? "broadcast"
                                                       : "shuffle")
         << ")";
      break;
    case OpType::kAggregate:
      os << "(keys=" << agg.group_keys.size() << ")";
      break;
    default:
      break;
  }
  if (true_card > 0.0 || est_card > 0.0) {
    os << " [true=" << true_card << " est=" << est_card << "]";
  }
  os << "\n";
  for (const auto& child : children) {
    os << child->ToString(indent + 1);
  }
  return os.str();
}

std::unique_ptr<PlanNode> MakeScan(const TableSpec& table) {
  auto node = std::make_unique<PlanNode>();
  node->op = OpType::kScan;
  node->table = table.name;
  node->table_rows = table.rows;
  return node;
}

std::unique_ptr<PlanNode> MakeFilter(std::unique_ptr<PlanNode> child,
                                     std::vector<Predicate> predicates) {
  auto node = std::make_unique<PlanNode>();
  node->op = OpType::kFilter;
  node->predicates = std::move(predicates);
  node->row_width = child->row_width;
  node->children.push_back(std::move(child));
  return node;
}

std::unique_ptr<PlanNode> MakeProject(std::unique_ptr<PlanNode> child,
                                      std::vector<std::string> columns,
                                      double row_width) {
  auto node = std::make_unique<PlanNode>();
  node->op = OpType::kProject;
  node->columns = std::move(columns);
  node->row_width = row_width;
  node->children.push_back(std::move(child));
  return node;
}

std::unique_ptr<PlanNode> MakeJoin(std::unique_ptr<PlanNode> left,
                                   std::unique_ptr<PlanNode> right,
                                   JoinSpec join) {
  auto node = std::make_unique<PlanNode>();
  node->op = OpType::kJoin;
  node->join = std::move(join);
  node->row_width = left->row_width + right->row_width;
  node->children.push_back(std::move(left));
  node->children.push_back(std::move(right));
  return node;
}

std::unique_ptr<PlanNode> MakeAggregate(std::unique_ptr<PlanNode> child,
                                        AggSpec agg) {
  auto node = std::make_unique<PlanNode>();
  node->op = OpType::kAggregate;
  node->agg = std::move(agg);
  node->row_width = child->row_width * 0.5;
  node->children.push_back(std::move(child));
  return node;
}

std::unique_ptr<PlanNode> MakeUnion(std::unique_ptr<PlanNode> left,
                                    std::unique_ptr<PlanNode> right) {
  auto node = std::make_unique<PlanNode>();
  node->op = OpType::kUnion;
  node->row_width = std::max(left->row_width, right->row_width);
  node->children.push_back(std::move(left));
  node->children.push_back(std::move(right));
  return node;
}

std::unique_ptr<PlanNode> MakeSort(std::unique_ptr<PlanNode> child,
                                   std::vector<std::string> columns) {
  auto node = std::make_unique<PlanNode>();
  node->op = OpType::kSort;
  node->columns = std::move(columns);
  node->row_width = child->row_width;
  node->children.push_back(std::move(child));
  return node;
}

void AnnotateTrueCardinality(PlanNode& node) {
  for (auto& child : node.children) AnnotateTrueCardinality(*child);
  switch (node.op) {
    case OpType::kScan:
      node.true_card = node.table_rows;
      break;
    case OpType::kFilter: {
      double sel = 1.0;
      for (const Predicate& p : node.predicates) sel *= p.true_selectivity;
      node.true_card = node.children[0]->true_card * sel;
      break;
    }
    case OpType::kProject:
    case OpType::kSort:
      node.true_card = node.children[0]->true_card;
      break;
    case OpType::kJoin:
      node.true_card = node.children[0]->true_card *
                       node.children[1]->true_card *
                       node.join.true_selectivity_factor;
      break;
    case OpType::kAggregate:
      node.true_card = node.children[0]->true_card * node.agg.true_distinct_ratio;
      break;
    case OpType::kUnion:
      node.true_card =
          node.children[0]->true_card + node.children[1]->true_card;
      break;
  }
  if (node.true_card < 1.0) node.true_card = 1.0;
}

}  // namespace ads::engine
