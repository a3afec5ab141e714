#include "core/workflow_dag.h"

#include "common/hash.h"
#include "common/strings.h"

namespace helix {
namespace core {

Result<WorkflowDag> WorkflowDag::Compile(const Workflow& workflow) {
  WorkflowDag compiled;
  compiled.name_ = workflow.name();

  const int n = workflow.num_nodes();
  if (n == 0) {
    return Status::InvalidArgument("workflow '" + workflow.name() +
                                   "' declares no operators");
  }
  if (workflow.outputs().empty()) {
    return Status::InvalidArgument("workflow '" + workflow.name() +
                                   "' declares no outputs");
  }

  compiled.operators_.reserve(static_cast<size_t>(n));
  compiled.dag_.AddNodes(n);
  for (int i = 0; i < n; ++i) {
    const Operator& op = workflow.op(i);
    if (compiled.by_name_.count(op.name()) > 0) {
      return Status::InvalidArgument("duplicate operator name: " + op.name());
    }
    compiled.by_name_.emplace(op.name(), i);
    compiled.operators_.push_back(workflow.operators_[static_cast<size_t>(i)]);
    for (int in : workflow.inputs_of(i)) {
      if (in < 0 || in >= i) {
        return Status::InvalidArgument(
            StrFormat("operator '%s' references input #%d out of range",
                      op.name().c_str(), in));
      }
      HELIX_RETURN_IF_ERROR(compiled.dag_.AddEdge(in, i));
    }
  }

  // Declaration order is topological: every input has a smaller index.
  compiled.topo_order_.resize(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    compiled.topo_order_[static_cast<size_t>(i)] = i;
  }

  // Cumulative Merkle signatures.
  compiled.cumulative_signatures_.resize(static_cast<size_t>(n), 0);
  for (int i = 0; i < n; ++i) {
    Hasher h;
    h.AddU64(compiled.op(i).Signature());
    for (int parent : workflow.inputs_of(i)) {
      h.AddU64(
          compiled.cumulative_signatures_[static_cast<size_t>(parent)]);
    }
    compiled.cumulative_signatures_[static_cast<size_t>(i)] = h.Digest();
  }

  compiled.is_output_.assign(static_cast<size_t>(n), false);
  for (int output : workflow.outputs()) {
    if (output < 0 || output >= n) {
      return Status::InvalidArgument("output index out of range");
    }
    if (!compiled.is_output_[static_cast<size_t>(output)]) {
      compiled.is_output_[static_cast<size_t>(output)] = true;
      compiled.outputs_.push_back(output);
    }
  }
  return compiled;
}

int WorkflowDag::FindNode(const std::string& name) const {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? -1 : it->second;
}

}  // namespace core
}  // namespace helix
