#include "net/fabric/observatory.h"

#include <bit>
#include <cassert>
#include <cinttypes>
#include <cstdio>

#include "telemetry/metrics.h"

namespace ms::net::fabric {

FabricObservatory::FabricObservatory(FabricObservatoryConfig cfg)
    : cfg_(cfg) {
  assert(cfg_.cadence > 0 && cfg_.ring_capacity > 0);
}

int FabricObservatory::add_link(const std::string& name, Bandwidth capacity) {
  const auto it = by_name_.find(name);
  if (it != by_name_.end()) return it->second;
  const int id = static_cast<int>(series_.size());
  series_.emplace_back(cfg_.cadence, cfg_.ring_capacity);
  names_.push_back(name);
  capacities_.push_back(capacity);
  by_name_.emplace(name, id);
  return id;
}

void FabricObservatory::attach_topology(const ClosTopology& topo) {
  for (const auto& link : topo.links()) {
    const int id = add_link(
        topo.node(link.src).name + "->" + topo.node(link.dst).name,
        link.capacity);
    (void)id;
    assert(series_.size() != topo.links().size() ||
           id == static_cast<int>(link.id));
  }
}

const std::string& FabricObservatory::link_name(int link) const {
  return names_[static_cast<std::size_t>(link)];
}

Bandwidth FabricObservatory::link_capacity(int link) const {
  return capacities_[static_cast<std::size_t>(link)];
}

int FabricObservatory::find_link(const std::string& name) const {
  const auto it = by_name_.find(name);
  return it == by_name_.end() ? -1 : it->second;
}

void FabricObservatory::record_tx(int link, TimeNs at, double bytes) {
  series_[static_cast<std::size_t>(link)].note_tx(at, bytes);
}

void FabricObservatory::record_queue(int link, TimeNs at,
                                     double queue_bytes) {
  series_[static_cast<std::size_t>(link)].note_queue(at, queue_bytes);
}

void FabricObservatory::record_ecn(int link, TimeNs at, double marks) {
  series_[static_cast<std::size_t>(link)].note_ecn(at, marks);
}

void FabricObservatory::record_pause(int link, TimeNs at, TimeNs paused_for,
                                     int events) {
  series_[static_cast<std::size_t>(link)].note_pause(at, paused_for, events);
}

void FabricObservatory::record_active_flows(int link, TimeNs at, int flows) {
  series_[static_cast<std::size_t>(link)].note_active_flows(at, flows);
}

int FabricObservatory::record_flow_path(std::uint64_t label,
                                        const std::vector<int>& links) {
  if (flows_.size() >= cfg_.max_flow_records) {
    ++flow_records_dropped_;
    return -1;
  }
  FlowPathRecord record;
  record.label = label;
  record.links = links;
  flows_.push_back(std::move(record));
  return static_cast<int>(flows_.size() - 1);
}

void FabricObservatory::attribute_flow_bytes(int flow, TimeNs at,
                                             double bytes) {
  if (flow < 0) return;
  FlowPathRecord& record = flows_[static_cast<std::size_t>(flow)];
  record.bytes += bytes;
  for (int link : record.links) record_tx(link, at, bytes);
}

const LinkSeries& FabricObservatory::series(int link) const {
  return series_[static_cast<std::size_t>(link)];
}

std::vector<LinkSample> FabricObservatory::samples(int link) const {
  return series_[static_cast<std::size_t>(link)].samples();
}

double FabricObservatory::utilization(int link,
                                      const LinkSample& sample) const {
  const Bandwidth cap = capacities_[static_cast<std::size_t>(link)];
  if (cap <= 0) return 0;
  return sample.tx_bytes / (cap * to_seconds(cfg_.cadence));
}

std::uint64_t FabricObservatory::digest() const {
  check::Digest digest;
  digest.fold(static_cast<std::int64_t>(series_.size()));
  for (std::size_t i = 0; i < series_.size(); ++i) {
    digest.fold(std::string_view(names_[i]));
    series_[i].fold_digest(digest);
  }
  digest.fold(static_cast<std::int64_t>(flows_.size()));
  digest.fold(static_cast<std::uint64_t>(flow_records_dropped_));
  for (const auto& flow : flows_) {
    digest.fold(flow.label);
    for (int link : flow.links) digest.fold(static_cast<std::int64_t>(link));
    digest.fold(std::bit_cast<std::uint64_t>(flow.bytes));
  }
  return digest.value();
}

telemetry::SketchSnapshot FabricObservatory::sketch() const {
  telemetry::SketchSnapshot out;
  for (int link = 0; link < link_count(); ++link) {
    const telemetry::Labels labels{
        {"link", names_[static_cast<std::size_t>(link)]}};
    const std::string suffix = telemetry::encode_labels(labels);
    const auto& s = series_[static_cast<std::size_t>(link)];
    out.add_counter("fabric_tx_bytes_total" + suffix, s.total_tx_bytes());
    out.add_counter("fabric_ecn_marks_total" + suffix, s.total_ecn_marks());
    out.add_counter("fabric_pfc_pause_seconds_total" + suffix,
                    to_seconds(s.total_pause_time()));
    for (const auto& sample : s.samples()) {
      out.add_gauge("fabric_link_utilization" + suffix,
                    utilization(link, sample));
      out.add_gauge("fabric_queue_peak_bytes" + suffix,
                    sample.queue_peak_bytes);
    }
  }
  return out;
}

std::string FabricObservatory::jsonl() const {
  std::string out;
  char buf[256];
  for (int link = 0; link < link_count(); ++link) {
    const auto& s = series_[static_cast<std::size_t>(link)];
    std::snprintf(buf, sizeof buf,
                  "{\"kind\":\"fabric-link\",\"link\":\"%s\","
                  "\"capacity_bps\":%.17g,\"cadence_ns\":%" PRId64
                  ",\"samples\":%zu,\"dropped\":%" PRIu64 "}\n",
                  names_[static_cast<std::size_t>(link)].c_str(),
                  capacities_[static_cast<std::size_t>(link)],
                  s.cadence(), s.sample_count(), s.dropped());
    out += buf;
    for (const auto& sample : s.samples()) {
      std::snprintf(
          buf, sizeof buf,
          "{\"kind\":\"fabric-sample\",\"link\":\"%s\",\"bucket_ns\":%" PRId64
          ",\"tx_bytes\":%.17g,\"queue_peak_bytes\":%.17g,"
          "\"ecn_marks\":%.17g,\"pause_ns\":%" PRId64
          ",\"pause_events\":%d,\"active_flows\":%d,\"utilization\":%.6g}\n",
          names_[static_cast<std::size_t>(link)].c_str(), sample.bucket,
          sample.tx_bytes, sample.queue_peak_bytes, sample.ecn_marks,
          sample.pause_time, sample.pause_events, sample.active_flows,
          utilization(link, sample));
      out += buf;
    }
  }
  for (const auto& flow : flows_) {
    std::snprintf(buf, sizeof buf,
                  "{\"kind\":\"fabric-flow\",\"label\":\"0x%016" PRIx64
                  "\",\"bytes\":%.17g,\"path\":[",
                  flow.label, flow.bytes);
    out += buf;
    for (std::size_t i = 0; i < flow.links.size(); ++i) {
      if (i > 0) out += ',';
      out += '"';
      out += names_[static_cast<std::size_t>(flow.links[i])];
      out += '"';
    }
    out += "]}\n";
  }
  return out;
}

diag::PerformanceHeatmap FabricObservatory::heatmap() const {
  diag::PerformanceHeatmap map;
  for (int link = 0; link < link_count(); ++link) {
    for (const auto& sample : samples(link)) {
      map.add_sample(link, "util", utilization(link, sample));
      map.add_sample(link, "queue", sample.queue_peak_bytes);
      map.add_sample(link, "pause", to_seconds(sample.pause_time));
    }
  }
  return map;
}

}  // namespace ms::net::fabric
