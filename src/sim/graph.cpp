#include "sim/graph.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

namespace ms::sim {

GraphExecutor::GraphExecutor(std::size_t max_streams) {
  streams_.resize(max_streams);
}

OpId GraphExecutor::add_op(OpSpec spec) {
  if (ran_) throw std::logic_error("GraphExecutor::add_op after run()");
  if (spec.stream < 0 ||
      static_cast<std::size_t>(spec.stream) >= streams_.size()) {
    throw std::invalid_argument(
        "GraphExecutor::add_op: stream " + std::to_string(spec.stream) +
        " outside [0, " + std::to_string(streams_.size()) + ")");
  }
  const OpId id = static_cast<OpId>(records_.size());
  OpRecord rec;
  rec.id = id;
  rec.name = std::move(spec.name);
  rec.tag = std::move(spec.tag);
  rec.detail = std::move(spec.detail);
  rec.stream = spec.stream;
  records_.push_back(std::move(rec));
  durations_.push_back(spec.duration);
  priorities_.push_back(spec.priority);
  dependents_.emplace_back();
  indegree_.push_back(0);
  return id;
}

void GraphExecutor::add_dep(OpId before, OpId after) {
  if (ran_) throw std::logic_error("GraphExecutor::add_dep after run()");
  for (const OpId id : {before, after}) {
    if (id < 0 || static_cast<std::size_t>(id) >= records_.size()) {
      throw std::invalid_argument("GraphExecutor::add_dep: op " +
                                  std::to_string(id) + " outside [0, " +
                                  std::to_string(records_.size()) + ")");
    }
  }
  if (before == after) {
    throw std::invalid_argument("GraphExecutor::add_dep: op " +
                                std::to_string(before) + " depends on itself");
  }
  dependents_[static_cast<std::size_t>(before)].push_back(after);
  ++indegree_[static_cast<std::size_t>(after)];
}

TimeNs GraphExecutor::run(Engine& engine) {
  if (ran_) throw std::logic_error("GraphExecutor::run called twice");
  ran_ = true;
  start_time_ = engine.now();
  finish_time_ = start_time_;
  remaining_ = records_.size();
  if (remaining_ == 0) return 0;

  for (std::size_t i = 0; i < records_.size(); ++i) {
    if (indegree_[i] == 0) on_ready(engine, static_cast<OpId>(i));
  }
  engine.run();
  if (remaining_ != 0) {
    throw std::logic_error(
        "GraphExecutor: deadlock — dependency cycle or ops never became "
        "ready");
  }
  return finish_time_ - start_time_;
}

void GraphExecutor::on_ready(Engine& engine, OpId id) {
  const auto i = static_cast<std::size_t>(id);
  const StreamId sid = records_[i].stream;
  streams_[static_cast<std::size_t>(sid)].ready.push(
      ReadyEntry{priorities_[i], id});
  // Defer the issue decision to the end of the current timestamp so that all
  // ops becoming ready "simultaneously" are in the queue before the stream
  // picks by priority.
  engine.after(0, [this, &engine, sid] { try_issue(engine, sid); });
}

void GraphExecutor::try_issue(Engine& engine, StreamId s) {
  auto& stream = streams_[static_cast<std::size_t>(s)];
  if (stream.busy_now || stream.ready.empty()) return;
  const OpId id = stream.ready.top().id;
  stream.ready.pop();
  stream.busy_now = true;

  const TimeNs duration = durations_[static_cast<std::size_t>(id)];
  records_[static_cast<std::size_t>(id)].start = engine.now();
  assert(duration >= 0);
  engine.after(duration,
               [this, &engine, id] { on_op_finished(engine, id); });
}

void GraphExecutor::on_op_finished(Engine& engine, OpId id) {
  auto& rec = records_[static_cast<std::size_t>(id)];
  rec.end = engine.now();
  finish_time_ = std::max(finish_time_, rec.end);

  const StreamId sid = rec.stream;
  auto& stream = streams_[static_cast<std::size_t>(sid)];
  stream.busy_now = false;
  stream.busy += rec.end - rec.start;

  for (OpId dep : dependents_[static_cast<std::size_t>(id)]) {
    if (--indegree_[static_cast<std::size_t>(dep)] == 0) {
      on_ready(engine, dep);
    }
  }
  --remaining_;
  try_issue(engine, sid);
}

}  // namespace ms::sim
