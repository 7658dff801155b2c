#include "calib/classify.h"

#include <algorithm>
#include <cctype>

#include "core/flags.h"

namespace ms::calib {

namespace {

std::string lower(const std::string& s) {
  std::string out = s;
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

bool contains(const std::string& haystack, const char* needle) {
  return haystack.find(needle) != std::string::npos;
}

/// 64-bit numeric attribute (byte counts overflow SpanAttrs::num's int).
std::int64_t attr_i64(const diag::SpanAttrs& attrs, const std::string& key,
                      std::int64_t fallback) {
  std::int64_t v = 0;
  return flags::parse_int(attrs.text(key), v) ? v : fallback;
}

/// Kineto nccl kernels publish sizes under assorted arg names; the ingest
/// layer sanitizes spaces to '_'.
Bytes bytes_attr(const diag::SpanAttrs& attrs) {
  for (const char* key : {"B", "bytes", "In_msg_size", "msg_size", "size"}) {
    const std::int64_t v = attr_i64(attrs, key, -1);
    if (v >= 0) return static_cast<Bytes>(v);
  }
  return -1;
}

int ranks_attr(const diag::SpanAttrs& attrs) {
  for (const char* key : {"n", "ranks", "Group_size", "group_size", "nranks"}) {
    const std::int64_t v = attr_i64(attrs, key, -1);
    if (v >= 1) return static_cast<int>(v);
  }
  return -1;
}

collective::Domain domain_attr(const diag::SpanAttrs& attrs) {
  const std::string dom = attrs.text("dom");
  if (dom == "intra" || dom == "nvlink") return collective::Domain::kIntraNode;
  return collective::Domain::kInterNode;
}

std::string domain_suffix(collective::Domain d) {
  return d == collective::Domain::kIntraNode ? "intra" : "inter";
}

bool classify_collective_name(const std::string& name, CollOp& op) {
  const std::string n = lower(name);
  if (contains(n, "allreduce") || contains(n, "all_reduce") ||
      contains(n, "all-reduce")) {
    op = CollOp::kAllReduce;
    return true;
  }
  if (contains(n, "allgather") || contains(n, "all_gather") ||
      contains(n, "all-gather")) {
    op = CollOp::kAllGather;
    return true;
  }
  if (contains(n, "reducescatter") || contains(n, "reduce_scatter") ||
      contains(n, "reduce-scatter")) {
    op = CollOp::kReduceScatter;
    return true;
  }
  if (contains(n, "alltoall") || contains(n, "all_to_all") ||
      contains(n, "all-to-all")) {
    op = CollOp::kAllToAll;
    return true;
  }
  if (contains(n, "broadcast") || contains(n, "bcast")) {
    op = CollOp::kBroadcast;
    return true;
  }
  if (contains(n, "sendrecv") || contains(n, "send_recv") || n == "send" ||
      n == "recv" || contains(n, "p2p")) {
    op = CollOp::kP2p;
    return true;
  }
  return false;
}

/// Coverage-only keyword classes for external per-kernel traces: these do
/// not feed the fitter (no per-kernel FLOP features), but their time share
/// appears in the residual report so the operator can see what the model
/// left out.
std::string kernel_coverage_label(const std::string& name) {
  const std::string n = lower(name);
  if (contains(n, "flash") || contains(n, "attention") ||
      contains(n, "softmax")) {
    return "kernel:attention";
  }
  if (contains(n, "gemm") || contains(n, "matmul") || contains(n, "::mm") ||
      contains(n, "linear") || contains(n, "cutlass")) {
    return "kernel:gemm";
  }
  if (contains(n, "norm") || contains(n, "gelu") || contains(n, "relu") ||
      contains(n, "residual") || contains(n, "elementwise") ||
      contains(n, "dropout")) {
    return "kernel:elementwise";
  }
  if (contains(n, "adam") || contains(n, "lamb") || contains(n, "optimizer")) {
    return "kernel:optimizer";
  }
  if (contains(n, "memcpy") || contains(n, "memset")) {
    return "kernel:memcpy";
  }
  return "";
}

ClassifiedSpan classify_one(std::size_t index, const diag::TraceSpan& span) {
  ClassifiedSpan out;
  out.span = index;
  const diag::SpanAttrs attrs(span.detail);

  // --- engine-structured compute spans ---
  if (span.tag == "fwd" || span.tag == "bwd") {
    const bool head = attrs.num("head", 0) == 1;
    const bool bwd = span.tag == "bwd";
    out.kind = ClassifiedSpan::Kind::kOperator;
    out.op = bwd ? (head ? OpClass::kBwdHead : OpClass::kBwd)
                 : (head ? OpClass::kFwdHead : OpClass::kFwd);
    out.label = op_class_name(out.op);
    return out;
  }
  if (span.tag == "optimizer" ||
      lower(span.name).find("optimizer") != std::string::npos) {
    out.kind = ClassifiedSpan::Kind::kOperator;
    out.op = OpClass::kOptimizer;
    out.label = op_class_name(out.op);
    return out;
  }

  // --- communication spans ---
  // An explicit `op=` attribute names the wire collective and wins over the
  // span name (ZeRO stage <= 1 all-reduces under a "dp-reducescatter" op).
  CollOp coll_op;
  const std::string op_attr = attrs.text("op");
  const bool name_is_collective =
      (!op_attr.empty() && classify_collective_name(op_attr, coll_op)) ||
      classify_collective_name(span.name, coll_op);
  if (span.tag == "pp-comm" || span.tag == "dp-comm" || name_is_collective) {
    const std::string n = lower(span.name);
    // The wire time of one p2p transfer appears on the send side; recv /
    // recv-wait spans mirror it and would double-count the link.
    if (span.tag == "pp-comm" && (n == "recv" || n == "recv-wait")) {
      out.label = "recv";
      return out;
    }
    if (!name_is_collective) {
      out.label = "comm:" + span.name;
      return out;
    }
    out.coll = coll_op;
    out.ranks = coll_op == CollOp::kP2p ? 2 : ranks_attr(attrs);
    out.bytes = bytes_attr(attrs);
    out.domain = domain_attr(attrs);
    out.calls = std::max(1, attrs.num("calls", 1));
    if (out.bytes < 0 || out.ranks < 1) {
      // Collective without usable size attributes: visible as coverage
      // loss, not a fit sample.
      out.label = "comm:" + std::string(coll_op_name(coll_op)) + "/unsized";
      return out;
    }
    out.kind = ClassifiedSpan::Kind::kCollective;
    out.label = std::string(coll_op_name(coll_op));
    if (coll_op != CollOp::kP2p) {
      out.label += "/n=" + std::to_string(out.ranks);
    }
    out.label += "/" + domain_suffix(out.domain);
    return out;
  }

  if (span.tag == "data" || span.name == "data-load") {
    out.label = "data";
    return out;
  }

  const std::string kernel = kernel_coverage_label(span.name);
  out.label = kernel.empty() ? "other" : kernel;
  return out;
}

}  // namespace

const char* op_class_name(OpClass cls) {
  switch (cls) {
    case OpClass::kFwd: return "fwd";
    case OpClass::kBwd: return "bwd";
    case OpClass::kFwdHead: return "fwd+head";
    case OpClass::kBwdHead: return "bwd+head";
    case OpClass::kOptimizer: return "optimizer";
  }
  return "?";
}

const char* coll_op_name(CollOp op) {
  switch (op) {
    case CollOp::kAllReduce: return "allreduce";
    case CollOp::kAllGather: return "allgather";
    case CollOp::kReduceScatter: return "reducescatter";
    case CollOp::kAllToAll: return "alltoall";
    case CollOp::kBroadcast: return "broadcast";
    case CollOp::kP2p: return "p2p";
  }
  return "?";
}

Classification classify_spans(const std::vector<diag::TraceSpan>& spans) {
  Classification out;
  out.spans.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    ClassifiedSpan c = classify_one(i, spans[i]);
    switch (c.kind) {
      case ClassifiedSpan::Kind::kOperator: ++out.operators; break;
      case ClassifiedSpan::Kind::kCollective: ++out.collectives; break;
      case ClassifiedSpan::Kind::kOther:
        ++out.other;
        if (c.label.size() > 5 && c.label.compare(0, 5, "comm:") == 0 &&
            c.label.find("/unsized") != std::string::npos) {
          ++out.unusable_collectives;
        }
        break;
    }
    out.spans.push_back(std::move(c));
  }
  return out;
}

CollDesignRow coll_design_row(const ClassifiedSpan& s) {
  CollDesignRow row;
  if (s.kind != ClassifiedSpan::Kind::kCollective) return row;
  const double n = static_cast<double>(std::max(2, s.ranks));
  const double bytes = static_cast<double>(s.bytes);
  switch (s.coll) {
    case CollOp::kAllReduce:
      row.lat_coeff = 2.0 * (n - 1.0);
      row.byte_coeff = 2.0 * (n - 1.0) / n * bytes;
      break;
    case CollOp::kAllGather:
    case CollOp::kReduceScatter:
    case CollOp::kAllToAll:
      row.lat_coeff = n - 1.0;
      row.byte_coeff = (n - 1.0) / n * bytes;
      break;
    case CollOp::kBroadcast:
      row.lat_coeff = n - 1.0;
      row.byte_coeff = bytes;
      break;
    case CollOp::kP2p:
      row.lat_coeff = 1.0;
      row.byte_coeff = bytes;
      break;
  }
  const double calls = static_cast<double>(std::max(1, s.calls));
  row.lat_coeff *= calls;
  row.byte_coeff *= calls;
  return row;
}

}  // namespace ms::calib
