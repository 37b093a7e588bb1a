// Pipeline: an ordered chain of operators with push semantics.
//
// Records pushed into the pipeline flow through every operator in order; each
// operator's emissions feed the next. `finish()` flushes operators front to
// back so buffered records still traverse the rest of the chain.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "river/operator.hpp"

namespace dynriver::river {

class Pipeline {
 public:
  Pipeline() = default;

  /// Append an operator to the end of the chain. Returns *this for chaining.
  Pipeline& add(OperatorPtr op);

  /// Construct-and-append convenience.
  template <typename Op, typename... Args>
  Pipeline& emplace(Args&&... args) {
    return add(std::make_unique<Op>(std::forward<Args>(args)...));
  }

  /// Push one record through the whole chain; outputs reach `sink`.
  void push(Record rec, Emitter& sink);

  /// Push a batch of records.
  void push_all(std::vector<Record> recs, Emitter& sink);

  /// Signal end-of-stream: flush every operator in order.
  void finish(Emitter& sink);

  [[nodiscard]] std::size_t size() const { return ops_.size(); }
  [[nodiscard]] bool empty() const { return ops_.empty(); }

  /// Operator names front to back, e.g. for printing the Fig. 5 topology.
  [[nodiscard]] std::vector<std::string> topology() const;

  /// Access for tests and the pipeline manager.
  [[nodiscard]] Operator& at(std::size_t i);

 private:
  void run_from(std::size_t stage, Record rec, Emitter& sink);

  std::vector<OperatorPtr> ops_;
};

/// Run a full record stream through a pipeline and collect the output.
[[nodiscard]] std::vector<Record> run_pipeline(Pipeline& pipeline,
                                               std::vector<Record> input);

}  // namespace dynriver::river
