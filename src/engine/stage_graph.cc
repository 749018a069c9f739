#include "engine/stage_graph.h"

#include <algorithm>

#include "common/logging.h"

namespace ads::engine {

double StageGraph::TotalWork() const {
  double w = 0.0;
  for (const Stage& s : stages) w += s.work;
  return w;
}

std::vector<std::vector<int>> StageGraph::Consumers() const {
  std::vector<std::vector<int>> consumers(stages.size());
  for (const Stage& s : stages) {
    for (int in : s.inputs) {
      consumers[static_cast<size_t>(in)].push_back(s.id);
    }
  }
  return consumers;
}

std::vector<bool> StageGraph::MustRerun(
    const std::set<int>& checkpointed) const {
  std::vector<bool> rerun(stages.size(), false);
  if (final_stage < 0) return rerun;
  // Process in reverse topological order; stage ids are already topological
  // (CompileToStages emits children before parents).
  auto consumers = Consumers();
  for (size_t ii = stages.size(); ii > 0; --ii) {
    int u = stages[ii - 1].id;
    if (checkpointed.count(u) > 0) continue;  // output persisted
    if (u == final_stage) {
      rerun[static_cast<size_t>(u)] = true;
      continue;
    }
    for (int c : consumers[static_cast<size_t>(u)]) {
      if (rerun[static_cast<size_t>(c)]) {
        rerun[static_cast<size_t>(u)] = true;
        break;
      }
    }
  }
  return rerun;
}

double StageGraph::RestartWork(const std::set<int>& checkpointed) const {
  std::vector<bool> rerun = MustRerun(checkpointed);
  double w = 0.0;
  for (const Stage& s : stages) {
    if (rerun[static_cast<size_t>(s.id)]) w += s.work;
  }
  return w;
}

std::vector<int> StageGraph::Depths() const {
  std::vector<int> depth(stages.size(), 0);
  for (const Stage& s : stages) {  // ids are topological
    for (int in : s.inputs) {
      depth[static_cast<size_t>(s.id)] = std::max(
          depth[static_cast<size_t>(s.id)], depth[static_cast<size_t>(in)] + 1);
    }
  }
  return depth;
}

int StageGraph::MaxDepth() const {
  std::vector<int> d = Depths();
  int mx = 0;
  for (int v : d) mx = std::max(mx, v);
  return mx;
}

std::set<int> StageGraph::LevelCut(int level) const {
  std::vector<int> depth = Depths();
  auto consumers = Consumers();
  std::set<int> cut;
  for (const Stage& s : stages) {
    if (depth[static_cast<size_t>(s.id)] > level) continue;
    if (s.id == final_stage) continue;
    bool crosses = false;
    for (int c : consumers[static_cast<size_t>(s.id)]) {
      if (depth[static_cast<size_t>(c)] > level) {
        crosses = true;
        break;
      }
    }
    if (crosses) cut.insert(s.id);
  }
  return cut;
}

namespace {

struct Compiler {
  const CostModel& cost_model;
  CardSource source;
  StageGraph graph;

  double CardOf(const PlanNode& node) const {
    return source == CardSource::kTrue ? node.true_card : node.est_card;
  }

  int NewStage(const std::string& label, std::vector<int> inputs) {
    Stage s;
    s.id = static_cast<int>(graph.stages.size());
    s.label = label;
    s.inputs = std::move(inputs);
    graph.stages.push_back(s);
    return s.id;
  }

  /// Compiles a subtree; returns the id of the stage whose pipeline
  /// currently ends at `node` (that stage's output is node's output).
  int Compile(const PlanNode& node) {
    switch (node.op) {
      case OpType::kScan: {
        int id = NewStage("scan:" + node.table, {});
        Accumulate(id, node);
        return id;
      }
      case OpType::kFilter:
      case OpType::kProject: {
        int id = Compile(*node.children[0]);
        graph.stages[static_cast<size_t>(id)].label += std::string("+") +
            (node.op == OpType::kFilter ? "filter" : "project");
        Accumulate(id, node);
        return id;
      }
      case OpType::kJoin: {
        // Build side first so stage ids stay topological even when the
        // probe pipeline continues through a broadcast join (the probe
        // stage then consumes the earlier build stage).
        int build = Compile(*node.children[1]);
        int probe = Compile(*node.children[0]);
        Seal(build, *node.children[1]);
        if (node.join.strategy == JoinStrategy::kBroadcast) {
          // The probe pipeline continues through a broadcast join.
          graph.stages[static_cast<size_t>(probe)].label += "+bjoin";
          graph.stages[static_cast<size_t>(probe)].inputs.push_back(build);
          Accumulate(probe, node);
          return probe;
        }
        Seal(probe, *node.children[0]);
        int id = NewStage("join", {probe, build});
        Accumulate(id, node);
        return id;
      }
      case OpType::kAggregate: {
        int child = Compile(*node.children[0]);
        Seal(child, *node.children[0]);
        int id = NewStage("agg", {child});
        Accumulate(id, node);
        return id;
      }
      case OpType::kSort: {
        int child = Compile(*node.children[0]);
        Seal(child, *node.children[0]);
        int id = NewStage("sort", {child});
        Accumulate(id, node);
        return id;
      }
      case OpType::kUnion: {
        int left = Compile(*node.children[0]);
        int right = Compile(*node.children[1]);
        Seal(left, *node.children[0]);
        Seal(right, *node.children[1]);
        int id = NewStage("union", {left, right});
        Accumulate(id, node);
        return id;
      }
    }
    ADS_CHECK(false) << "unreachable op";
    return -1;
  }

  /// Adds the node's operator cost to a stage.
  void Accumulate(int stage_id, const PlanNode& node) {
    graph.stages[static_cast<size_t>(stage_id)].work +=
        cost_model.NodeCost(node, source);
  }

  /// Marks the stage boundary below an exchange: the stage's output is the
  /// given node's output.
  void Seal(int stage_id, const PlanNode& node) {
    Stage& s = graph.stages[static_cast<size_t>(stage_id)];
    s.output_rows = CardOf(node);
    s.output_bytes = CardOf(node) * node.row_width;
  }
};

}  // namespace

StageGraph CompileToStages(const PlanNode& plan, const CostModel& cost_model,
                           CardSource source) {
  Compiler compiler{cost_model, source, {}};
  int final_id = compiler.Compile(plan);
  Compiler* c = &compiler;
  c->graph.final_stage = final_id;
  // The final stage's output is the job result.
  c->Seal(final_id, plan);
  return std::move(compiler.graph);
}

}  // namespace ads::engine
