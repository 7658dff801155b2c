#include "diag/depgraph.h"

#include <algorithm>
#include <cstdlib>
#include <tuple>

namespace ms::diag {

SpanAttrs::SpanAttrs(const std::string& detail) {
  std::size_t pos = 0;
  while (pos < detail.size()) {
    const std::size_t end = detail.find(' ', pos);
    const std::string token = detail.substr(
        pos, end == std::string::npos ? std::string::npos : end - pos);
    const std::size_t eq = token.find('=');
    if (eq != std::string::npos && eq > 0) {
      kv_[token.substr(0, eq)] = token.substr(eq + 1);
    }
    if (end == std::string::npos) break;
    pos = end + 1;
  }
}

int SpanAttrs::num(const std::string& key, int fallback) const {
  const auto it = kv_.find(key);
  if (it == kv_.end()) return fallback;
  char* end = nullptr;
  const long v = std::strtol(it->second.c_str(), &end, 10);
  if (end == it->second.c_str()) return fallback;
  return static_cast<int>(v);
}

std::string SpanAttrs::text(const std::string& key,
                            const std::string& fallback) const {
  const auto it = kv_.find(key);
  return it == kv_.end() ? fallback : it->second;
}

void DepGraph::add_edge(std::size_t from, std::size_t to, EdgeKind kind) {
  if (from == to) return;
  edges_.push_back({from, to, kind});
  preds_[to].push_back({from, to, kind});
}

DepGraph DepGraph::build(std::vector<TraceSpan> spans) {
  DepGraph g;
  g.spans_ = std::move(spans);
  g.attrs_.reserve(g.spans_.size());
  for (const auto& s : g.spans_) g.attrs_.emplace_back(s.detail);
  g.preds_.resize(g.spans_.size());

  const std::size_t n = g.spans_.size();

  // ---- program order within each hardware queue -------------------------
  // Lane key: the `stream=` attribute when present (the engine's per-stage
  // compute/send/recv/dp queues), otherwise the rank — spans recorded
  // without structured details still serialize per rank.
  std::map<std::string, std::vector<std::size_t>> lanes;
  for (std::size_t i = 0; i < n; ++i) {
    std::string lane = g.attrs_[i].text("stream");
    if (lane.empty()) lane = "rank:" + std::to_string(g.spans_[i].rank);
    lanes[lane].push_back(i);
  }
  for (auto& [lane, members] : lanes) {
    std::stable_sort(members.begin(), members.end(),
                     [&](std::size_t a, std::size_t b) {
                       if (g.spans_[a].start != g.spans_[b].start)
                         return g.spans_[a].start < g.spans_[b].start;
                       if (g.spans_[a].end != g.spans_[b].end)
                         return g.spans_[a].end < g.spans_[b].end;
                       return a < b;
                     });
    for (std::size_t k = 1; k < members.size(); ++k) {
      g.add_edge(members[k - 1], members[k], EdgeKind::kProgramOrder);
    }
  }

  // ---- attribute indices ------------------------------------------------
  // Compute ops by (stage, chunk, microbatch, pass).
  using Key4 = std::tuple<int, int, int, std::string>;
  std::map<Key4, std::size_t> compute;
  // Transfers by (from, to, consumer chunk, microbatch, pass).
  using KeyT = std::tuple<int, int, int, int, std::string>;
  std::map<KeyT, std::size_t> sends, recvs;
  std::map<int, std::size_t> optimizers;  // stage -> node
  std::vector<std::size_t> data_nodes, ag_nodes, rs_nodes;

  for (std::size_t i = 0; i < n; ++i) {
    const auto& sp = g.spans_[i];
    const auto& at = g.attrs_[i];
    if (sp.name == "fwd" || sp.name == "bwd") {
      compute[{at.num("s"), at.num("c"), at.num("mb"), at.text("p")}] = i;
    } else if (sp.name == "send") {
      sends[{at.num("from"), at.num("to"), at.num("c"), at.num("mb"),
             at.text("p")}] = i;
    } else if (sp.name == "recv" || sp.name == "recv-wait") {
      recvs[{at.num("from"), at.num("to"), at.num("c"), at.num("mb"),
             at.text("p")}] = i;
    } else if (sp.name == "optimizer") {
      optimizers[at.num("s", sp.rank)] = i;
    } else if (sp.name == "data-load") {
      data_nodes.push_back(i);
    } else if (sp.name == "dp-allgather") {
      ag_nodes.push_back(i);
    } else if (sp.name == "dp-reducescatter") {
      rs_nodes.push_back(i);
    }
  }

  // ---- transfer edges ---------------------------------------------------
  std::map<Key4, std::size_t> recv_of_consumer;
  for (const auto& [key, snd] : sends) {
    const auto& [from, to, c, mb, p] = key;
    (void)to;
    // send -> recv of the same transfer.
    const auto rit = recvs.find(key);
    if (rit != recvs.end()) g.add_edge(snd, rit->second, EdgeKind::kTransfer);
    // producing compute -> send (producer chunk rides in `pc`).
    const int pc = g.attrs_[snd].num("pc", c);
    const auto cit = compute.find({from, pc, mb, p});
    if (cit != compute.end()) g.add_edge(cit->second, snd, EdgeKind::kProduce);
  }
  for (const auto& [key, rcv] : recvs) {
    const auto& [from, to, c, mb, p] = key;
    (void)from;
    recv_of_consumer[{to, c, mb, p}] = rcv;
    const auto cit = compute.find({to, c, mb, p});
    if (cit != compute.end()) g.add_edge(rcv, cit->second, EdgeKind::kConsume);
  }

  // ---- local edges for computes with no inbound transfer ----------------
  for (const auto& [key, node] : compute) {
    const auto& [s, c, mb, p] = key;
    if (recv_of_consumer.count({s, c, mb, p}) > 0) continue;
    if (p == "b") {
      // Last-stage backward starts from the locally computed loss.
      const auto fit = compute.find({s, c, mb, "f"});
      if (fit != compute.end()) {
        g.add_edge(fit->second, node, EdgeKind::kLocalGrad);
      }
    } else {
      // First-stage forward consumes the data pipeline.
      for (std::size_t d : data_nodes) g.add_edge(d, node, EdgeKind::kData);
    }
  }

  // ---- DP collective edges ----------------------------------------------
  // ag(stage, chunk) gates the first forward of that chunk on that stage;
  // a bucketed ag (no chunk attr) gates every chunk and itself waits on the
  // data pipeline (mirrors the engine's bucketed barrier).
  auto first_fwd = [&](int s, int c) -> std::size_t {
    std::size_t best = n;
    for (const auto& [key, node] : compute) {
      if (std::get<0>(key) != s || std::get<3>(key) != "f") continue;
      if (c >= 0 && std::get<1>(key) != c) continue;
      if (best == n || g.spans_[node].start < g.spans_[best].start ||
          (g.spans_[node].start == g.spans_[best].start && node < best)) {
        best = node;
      }
    }
    return best;
  };
  auto last_bwd = [&](int s, int c) -> std::size_t {
    std::size_t best = n;
    for (const auto& [key, node] : compute) {
      if (std::get<0>(key) != s || std::get<3>(key) != "b") continue;
      if (c >= 0 && std::get<1>(key) != c) continue;
      if (best == n || g.spans_[node].end > g.spans_[best].end ||
          (g.spans_[node].end == g.spans_[best].end && node < best)) {
        best = node;
      }
    }
    return best;
  };
  for (std::size_t ag : ag_nodes) {
    const int s = g.attrs_[ag].num("s", g.spans_[ag].rank);
    const int c = g.attrs_[ag].num("c");
    const std::size_t f = first_fwd(s, c);
    if (f != n) g.add_edge(ag, f, EdgeKind::kCollective);
    if (c < 0) {
      for (std::size_t d : data_nodes) g.add_edge(d, ag, EdgeKind::kData);
    }
  }
  for (std::size_t rs : rs_nodes) {
    const int s = g.attrs_[rs].num("s", g.spans_[rs].rank);
    const int c = g.attrs_[rs].num("c");
    const std::size_t b = last_bwd(s, c);
    if (b != n) g.add_edge(b, rs, EdgeKind::kCollective);
    const auto oit = optimizers.find(s);
    if (oit != optimizers.end()) {
      g.add_edge(rs, oit->second, EdgeKind::kCollective);
    }
  }

  return g;
}

std::size_t DepGraph::sink() const {
  std::size_t best = 0;
  for (std::size_t i = 1; i < spans_.size(); ++i) {
    if (spans_[i].end > spans_[best].end) best = i;
  }
  return best;
}

TimeNs DepGraph::makespan() const {
  TimeNs m = 0;
  for (const auto& s : spans_) m = std::max(m, s.end);
  return m;
}

}  // namespace ms::diag
