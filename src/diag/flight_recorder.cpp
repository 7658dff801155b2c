#include "diag/flight_recorder.h"

#include <algorithm>
#include <sstream>

#include "core/json.h"

namespace ms::diag {

FlightRecorder::FlightRecorder(FlightRecorderConfig config)
    : config_(config) {
  if (config_.capacity_per_node == 0) config_.capacity_per_node = 1;
}

void FlightRecorder::record(int node, TimeNs time, std::string kind,
                            std::string detail) {
  if (node < 0) return;
  MutexLock lock(mu_);
  const auto idx = static_cast<std::size_t>(node);
  if (idx >= rings_.size()) rings_.resize(idx + 1);
  Ring& ring = rings_[idx];
  FlightEvent ev{time, node, std::move(kind), std::move(detail), seq_++};
  if (ring.slots.size() < config_.capacity_per_node) {
    ring.slots.push_back(std::move(ev));
  } else {
    ring.slots[ring.next] = std::move(ev);
    ring.next = (ring.next + 1) % ring.slots.size();
  }
  ++ring.written;
}

FlightDump FlightRecorder::trigger(std::string reason, TimeNs now) {
  MutexLock lock(mu_);
  FlightDump dump;
  dump.reason = std::move(reason);
  dump.time = now;
  for (const Ring& ring : rings_) {
    dump.events.insert(dump.events.end(), ring.slots.begin(),
                       ring.slots.end());
  }
  std::sort(dump.events.begin(), dump.events.end(),
            [](const FlightEvent& a, const FlightEvent& b) {
              return a.time != b.time ? a.time < b.time : a.seq < b.seq;
            });
  dumps_.push_back(dump);
  return dump;
}

std::vector<FlightDump> FlightRecorder::dumps() const {
  MutexLock lock(mu_);
  return dumps_;
}

std::uint64_t FlightRecorder::total_recorded() const {
  MutexLock lock(mu_);
  std::uint64_t total = 0;
  for (const Ring& ring : rings_) total += ring.written;
  return total;
}

std::uint64_t FlightRecorder::total_dropped() const {
  MutexLock lock(mu_);
  std::uint64_t dropped = 0;
  for (const Ring& ring : rings_) dropped += ring.written - ring.slots.size();
  return dropped;
}

std::string flight_dump_jsonl(const FlightDump& dump) {
  std::ostringstream out;
  out << "{\"type\":\"flight-dump\",\"reason\":\"" << json::escape(dump.reason)
      << "\",\"time_ns\":" << dump.time
      << ",\"events\":" << dump.events.size() << "}\n";
  for (const auto& ev : dump.events) {
    out << "{\"type\":\"flight-event\",\"time_ns\":" << ev.time
        << ",\"node\":" << ev.node << ",\"kind\":\"" << json::escape(ev.kind)
        << "\",\"detail\":\"" << json::escape(ev.detail)
        << "\",\"seq\":" << ev.seq << "}\n";
  }
  return out.str();
}

bool parse_flight_dump_jsonl(const std::string& text, FlightDump& out,
                             std::string* error) {
  FlightDump dump;
  bool saw_header = false;
  std::uint64_t declared = 0;
  const auto row = [&](json::Fields& f) {
    std::string type;
    f.text("type", type);
    if (type == "flight-dump" && !saw_header) {
      saw_header = true;
      f.text("reason", dump.reason);
      f.integer("time_ns", dump.time);
      f.integer("events", declared);
    } else if (type == "flight-event" && saw_header) {
      FlightEvent& ev = dump.events.emplace_back();
      f.integer("time_ns", ev.time);
      f.integer("node", ev.node);
      f.text("kind", ev.kind);
      f.text("detail", ev.detail);
      f.integer("seq", ev.seq);
    } else {
      f.fail("unexpected \"" + type + "\" line");
    }
  };
  if (!json::parse_lines(text, row, error)) return false;
  if (!saw_header) return json::fail(error, "no flight-dump header");
  if (declared != dump.events.size()) {
    return json::fail(error, "header declares " + std::to_string(declared) +
                                 " events, read " +
                                 std::to_string(dump.events.size()));
  }
  out = std::move(dump);
  return true;
}

TimelineTrace flight_dump_timeline(const FlightDump& dump) {
  TimelineTrace trace;
  for (const auto& ev : dump.events) {
    // Events are instants; give each a 1 µs body so trace viewers render
    // them (the exporter keeps sub-µs durations since the %.3f fix).
    trace.add(TraceSpan{ev.node, ev.kind, "flight", ev.time,
                        ev.time + microseconds(1.0), ev.detail});
  }
  return trace;
}

}  // namespace ms::diag
