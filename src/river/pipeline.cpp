#include "river/pipeline.hpp"

#include <utility>

#include "common/contracts.hpp"

namespace dynriver::river {

Pipeline& Pipeline::add(OperatorPtr op) {
  DR_EXPECTS(op != nullptr);
  ops_.push_back(std::move(op));
  return *this;
}

void Pipeline::push(Record rec, Emitter& sink) {
  if (ops_.empty()) {
    sink.emit(std::move(rec));
    return;
  }
  run_from(0, std::move(rec), sink);
}

void Pipeline::push_all(std::vector<Record> recs, Emitter& sink) {
  for (auto& rec : recs) push(std::move(rec), sink);
}

void Pipeline::run_from(std::size_t stage, Record rec, Emitter& sink) {
  if (stage == ops_.size()) {
    sink.emit(std::move(rec));
    return;
  }
  CallbackEmitter next(
      [this, stage, &sink](Record r) { run_from(stage + 1, std::move(r), sink); });
  ops_[stage]->process(std::move(rec), next);
}

void Pipeline::finish(Emitter& sink) {
  // Flush front to back: records drained from operator i must still flow
  // through operators i+1..n-1 (and their flushes happen afterwards).
  for (std::size_t i = 0; i < ops_.size(); ++i) {
    CallbackEmitter next(
        [this, i, &sink](Record r) { run_from(i + 1, std::move(r), sink); });
    ops_[i]->flush(next);
  }
}

std::vector<std::string> Pipeline::topology() const {
  std::vector<std::string> names;
  names.reserve(ops_.size());
  for (const auto& op : ops_) names.emplace_back(op->name());
  return names;
}

Operator& Pipeline::at(std::size_t i) {
  DR_EXPECTS(i < ops_.size());
  return *ops_[i];
}

std::vector<Record> run_pipeline(Pipeline& pipeline, std::vector<Record> input) {
  VectorEmitter out;
  pipeline.push_all(std::move(input), out);
  pipeline.finish(out);
  return std::move(out.records);
}

}  // namespace dynriver::river
