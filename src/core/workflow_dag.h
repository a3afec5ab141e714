// The compiled workflow DAG: intermediate results + cumulative signatures.
//
// The intermediate code generator (paper Section 2.2) translates DSL
// declarations into a DAG of operations/intermediate results. Compilation
// validates the workflow, fixes a topological order, and computes each
// node's *cumulative signature*: hash(operator signature, input cumulative
// signatures in argument order). Equal cumulative signatures mean "same
// operator applied to same inputs transitively" — the store keys on them,
// which gives exactly the invalidation semantics of the iterative change
// tracker (an upstream edit changes every downstream cumulative
// signature).
#ifndef HELIX_CORE_WORKFLOW_DAG_H_
#define HELIX_CORE_WORKFLOW_DAG_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "core/workflow.h"
#include "graph/dag.h"

namespace helix {
namespace core {

/// Compiled, immutable form of a Workflow.
class WorkflowDag {
 public:
  /// Constructs an empty DAG (0 nodes); useful only as a placeholder to be
  /// assigned a compiled DAG.
  WorkflowDag() = default;

  /// Validates and compiles `workflow`. Errors on duplicate names, missing
  /// outputs, or dangling input references.
  static Result<WorkflowDag> Compile(const Workflow& workflow);

  const std::string& name() const { return name_; }
  int num_nodes() const { return static_cast<int>(operators_.size()); }

  const Operator& op(int node) const {
    return *operators_[static_cast<size_t>(node)];
  }
  const std::shared_ptr<Operator>& op_ptr(int node) const {
    return operators_[static_cast<size_t>(node)];
  }

  /// The underlying topology (node ids equal workflow declaration indices).
  const graph::Dag& dag() const { return dag_; }

  /// Cumulative Merkle signature of a node.
  uint64_t cumulative_signature(int node) const {
    return cumulative_signatures_[static_cast<size_t>(node)];
  }

  /// Output node ids (deduplicated, declaration order).
  const std::vector<int>& outputs() const { return outputs_; }
  bool is_output(int node) const {
    return is_output_[static_cast<size_t>(node)];
  }

  /// Topological order fixed at compile time (= declaration order, which
  /// is always topological because inputs precede consumers).
  const std::vector<int>& topo_order() const { return topo_order_; }

  /// Node id by operator name, or -1.
  int FindNode(const std::string& name) const;

 private:
  std::string name_;
  std::vector<std::shared_ptr<Operator>> operators_;
  graph::Dag dag_;
  std::vector<uint64_t> cumulative_signatures_;
  std::vector<int> outputs_;
  std::vector<bool> is_output_;
  std::vector<int> topo_order_;
  std::unordered_map<std::string, int> by_name_;
};

}  // namespace core
}  // namespace helix

#endif  // HELIX_CORE_WORKFLOW_DAG_H_
