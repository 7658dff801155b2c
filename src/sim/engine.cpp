#include "sim/engine.h"

#include <algorithm>
#include <limits>
#include <string>
#include <utility>

#include "check/audit.h"
#include "prof/profiler.h"

namespace ms::sim {

void Engine::at(TimeNs t, std::function<void()> fn) {
  MS_AUDIT("sim.engine", "schedule_not_in_past", t >= now_,
           "at(" + std::to_string(t) + ") with now=" + std::to_string(now_));
  if (t < now_) t = now_;  // clamp: keeps time monotone even under misuse
  std::uint32_t slot = 0;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(callbacks_.size());
    callbacks_.push_back(std::move(fn));
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    callbacks_[slot] = std::move(fn);
  }
  heap_.push_back(Entry{t, next_id_++, slot});
  std::push_heap(heap_.begin(), heap_.end(), later);
  peak_queue_size_ = std::max(peak_queue_size_, heap_.size());
}

void Engine::after(TimeNs delay, std::function<void()> fn) {
  at(now_ + std::max<TimeNs>(delay, 0), std::move(fn));
}

bool Engine::pop_due(TimeNs limit, Entry& out) {
  MS_PROF_SCOPE("engine.pop");
  if (heap_.empty() || heap_.front().t > limit) return false;
  std::pop_heap(heap_.begin(), heap_.end(), later);
  out = heap_.back();
  heap_.pop_back();
  return true;
}

void Engine::fire(const Entry& e) {
  MS_AUDIT("sim.engine", "time_monotonic", e.t >= now_,
           "event " + std::to_string(e.t) + "ns fired with clock at " +
               std::to_string(now_) + "ns");
  MS_AUDIT("sim.engine", "fifo_within_timestamp",
           e.t != last_fired_t_ || e.id > last_fired_id_,
           "event id " + std::to_string(e.id) + " fired after id " +
               std::to_string(last_fired_id_) + " at the same timestamp");
  now_ = e.t;
  last_fired_t_ = e.t;
  last_fired_id_ = e.id;
  digest_.fold(e.id);
  digest_.fold(e.t);
  ++executed_;
  // Id closure: every id ever issued has either fired or is still queued.
  MS_AUDIT("sim.engine", "id_closure",
           next_id_ - 1 == executed_ + heap_.size(),
           "issued=" + std::to_string(next_id_ - 1) + " executed=" +
               std::to_string(executed_) +
               " queued=" + std::to_string(heap_.size()));
  // Take the callback and free its slot first: the callback may schedule
  // events, which can reuse the slot or grow callbacks_.
  const std::function<void()> fn = std::move(callbacks_[e.slot]);
  free_slots_.push_back(e.slot);
  MS_PROF_SCOPE("engine.event");
  fn();
}

void Engine::run() {
  MS_PROF_SCOPE("engine.run");
  Entry e;
  while (pop_due(std::numeric_limits<TimeNs>::max(), e)) fire(e);
}

void Engine::run_until(TimeNs t) {
  MS_PROF_SCOPE("engine.run_until");
  Entry e;
  while (pop_due(t, e)) fire(e);
  if (now_ < t) now_ = t;
}

}  // namespace ms::sim
