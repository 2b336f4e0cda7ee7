#include "sim/dag.hpp"

#include <algorithm>
#include <sstream>

namespace dws::sim {

double TaskDag::total_work() const {
  double sum = 0.0;
  for (const auto& n : nodes_) sum += n.work_us;
  return sum;
}

std::vector<std::uint32_t> TaskDag::join_counts() const {
  std::vector<std::uint32_t> counts(nodes_.size(), 0);
  for (const auto& n : nodes_) {
    if (n.continuation != kNoNode) ++counts[n.continuation];
  }
  return counts;
}

std::vector<std::vector<NodeId>> TaskDag::predecessors() const {
  std::vector<std::vector<NodeId>> preds(nodes_.size());
  for (std::size_t u = 0; u < nodes_.size(); ++u) {
    const DagNode& n = nodes_[u];
    for (NodeId v : n.spawns) preds[v].push_back(static_cast<NodeId>(u));
    if (n.continuation != kNoNode) {
      preds[n.continuation].push_back(static_cast<NodeId>(u));
    }
  }
  return preds;
}

double TaskDag::critical_path() const {
  if (nodes_.empty() || root_ == kNoNode) return 0.0;
  // Longest path over edges (u -> spawn) and (u -> continuation), computed
  // with an iterative DFS + memo over the DAG.
  std::vector<double> memo(nodes_.size(), -1.0);
  std::vector<NodeId> stack{root_};
  while (!stack.empty()) {
    const NodeId u = stack.back();
    const DagNode& n = nodes_[u];
    bool ready = true;
    double best_succ = 0.0;
    auto visit = [&](NodeId v) {
      if (memo[v] < 0.0) {
        stack.push_back(v);
        ready = false;
      } else {
        best_succ = std::max(best_succ, memo[v]);
      }
    };
    for (NodeId v : n.spawns) visit(v);
    if (n.continuation != kNoNode) visit(n.continuation);
    if (ready) {
      memo[u] = n.work_us + best_succ;
      stack.pop_back();
    }
  }
  return memo[root_];
}

std::string TaskDag::validate() const {
  if (nodes_.empty()) return "empty DAG";
  if (root_ == kNoNode || root_ >= nodes_.size()) return "invalid root";

  const auto joins = join_counts();
  std::vector<std::uint32_t> spawn_in(nodes_.size(), 0);
  for (std::size_t u = 0; u < nodes_.size(); ++u) {
    const DagNode& n = nodes_[u];
    for (NodeId v : n.spawns) {
      if (v >= nodes_.size()) {
        std::ostringstream os;
        os << "node " << u << " spawns out-of-range node " << v;
        return os.str();
      }
      ++spawn_in[v];
    }
    if (n.continuation != kNoNode && n.continuation >= nodes_.size()) {
      std::ostringstream os;
      os << "node " << u << " has out-of-range continuation";
      return os.str();
    }
    if (n.work_us < 0.0) {
      std::ostringstream os;
      os << "node " << u << " has negative work";
      return os.str();
    }
  }

  // Enabling discipline: root enabled by the runtime; every other node is
  // enabled exactly once (spawned once XOR is a join target).
  for (std::size_t v = 0; v < nodes_.size(); ++v) {
    const bool is_root = (v == root_);
    const unsigned enables = spawn_in[v] + (joins[v] > 0 ? 1u : 0u);
    if (is_root && enables != 0) return "root must not be spawned or joined";
    if (!is_root && spawn_in[v] > 1) {
      std::ostringstream os;
      os << "node " << v << " spawned " << spawn_in[v] << " times";
      return os.str();
    }
    if (!is_root && enables != 1) {
      std::ostringstream os;
      os << "node " << v << " enabled " << enables
         << " times (must be exactly once)";
      return os.str();
    }
  }

  // Reachability + acyclicity in one colored DFS from the root along spawn
  // and continuation edges (a continuation is "unlocked" when all its join
  // predecessors executed; for reachability treat it as an ordinary edge).
  // The DFS visits every reachable node once even on a cycle; an
  // unreachable node is reported before a cycle.
  std::vector<char> color(nodes_.size(), 0);  // 0 white, 1 gray, 2 black
  std::vector<std::pair<NodeId, std::size_t>> stack{{root_, 0}};
  color[root_] = 1;
  std::size_t reached = 1;
  bool cycle = false;
  while (!stack.empty()) {
    auto& [u, idx] = stack.back();
    const DagNode& n = nodes_[u];
    const std::size_t out_degree =
        n.spawns.size() + (n.continuation != kNoNode ? 1 : 0);
    if (idx == out_degree) {
      color[u] = 2;
      stack.pop_back();
      continue;
    }
    const NodeId v =
        idx < n.spawns.size() ? n.spawns[idx] : n.continuation;
    ++idx;
    if (color[v] == 1) cycle = true;
    if (color[v] == 0) {
      color[v] = 1;
      ++reached;
      stack.emplace_back(v, 0);
    }
  }
  if (reached != nodes_.size()) {
    std::ostringstream os;
    os << (nodes_.size() - reached) << " nodes unreachable from root";
    return os.str();
  }
  if (cycle) return "cycle detected";
  return {};
}

}  // namespace dws::sim
