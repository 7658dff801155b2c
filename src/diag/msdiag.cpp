#include "diag/msdiag.h"

#include <map>
#include <ostream>

#include "core/flags.h"
#include "core/table.h"
#include "core/time.h"
#include "diag/artifact.h"
#include "diag/blame.h"
#include "diag/depgraph.h"
#include "diag/flight_recorder.h"

namespace ms::diag {

namespace {

bool load_spans(const std::string& path, std::vector<TraceSpan>& spans,
                std::ostream& err) {
  std::string text, problem;
  if (!read_text_file(path, text, &problem) ||
      !parse_trace_jsonl(text, spans, &problem)) {
    err << "msdiag: " << path << ": " << problem << '\n';
    return false;
  }
  if (spans.empty()) {
    err << "msdiag: no spans in " << path << '\n';
    return false;
  }
  return true;
}

int cmd_analyze(const std::vector<std::string>& args, std::ostream& out,
                std::ostream& err) {
  std::string path;
  bool as_json = false;
  std::size_t top_k = 5;
  flags::Parser p("msdiag analyze", msdiag_usage());
  p.positional("<trace.jsonl>", path);
  p.flag("--json", as_json);
  p.integer("--top", top_k, 0);
  if (!p.parse(args, err)) return 1;
  std::vector<TraceSpan> spans;
  if (!load_spans(path, spans, err)) return 1;
  const StepDiagnosis d = analyze_spans(std::move(spans));
  out << (as_json ? diagnosis_json(d) + "\n" : render(d, top_k));
  return 0;
}

int cmd_diff(const std::vector<std::string>& args, std::ostream& out,
             std::ostream& err) {
  std::string base, cand;
  flags::Parser p("msdiag diff", msdiag_usage());
  p.positional("<base.jsonl>", base);
  p.positional("<cand.jsonl>", cand);
  if (!p.parse(args, err)) return 1;
  std::vector<TraceSpan> base_spans, cand_spans;
  if (!load_spans(base, base_spans, err)) return 1;
  if (!load_spans(cand, cand_spans, err)) return 1;
  out << diff_report(analyze_spans(std::move(base_spans)),
                     analyze_spans(std::move(cand_spans)));
  return 0;
}

int cmd_flight(const std::vector<std::string>& args, std::ostream& out,
               std::ostream& err) {
  std::string path, perfetto;
  flags::Parser p("msdiag flight", msdiag_usage());
  p.positional("<dump.jsonl>", path);
  p.text("--perfetto", perfetto);
  if (!p.parse(args, err)) return 1;
  std::string text, problem;
  FlightDump dump;
  if (!read_text_file(path, text, &problem) ||
      !parse_flight_dump_jsonl(text, dump, &problem)) {
    err << "msdiag: " << path << ": " << problem << '\n';
    return 1;
  }
  out << "flight dump: reason \"" << dump.reason << "\" at "
      << format_duration(dump.time) << ", " << dump.events.size()
      << " events\n\n";
  std::map<int, std::size_t> per_node;
  std::map<std::string, std::size_t> per_kind;
  for (const auto& ev : dump.events) {
    ++per_node[ev.node];
    ++per_kind[ev.kind];
  }
  Table kinds({"kind", "events"});
  for (const auto& [kind, count] : per_kind) {
    kinds.add_row({kind, Table::fmt_int(static_cast<long long>(count))});
  }
  out << kinds.to_string() << '\n';
  constexpr std::size_t kTail = 10;
  Table tail({"time", "node", "kind", "detail"});
  const std::size_t begin =
      dump.events.size() > kTail ? dump.events.size() - kTail : 0;
  for (std::size_t i = begin; i < dump.events.size(); ++i) {
    const auto& ev = dump.events[i];
    tail.add_row({format_duration(ev.time), Table::fmt_int(ev.node), ev.kind,
                  ev.detail});
  }
  out << "last " << (dump.events.size() - begin) << " events before the dump ("
      << per_node.size() << " nodes):\n"
      << tail.to_string();
  if (!perfetto.empty()) {
    const std::string trace = flight_dump_timeline(dump).chrome_trace_json();
    if (!write_text_file(perfetto, trace)) {
      err << "msdiag: cannot write " << perfetto << '\n';
      return 1;
    }
    out << "wrote Perfetto trace: " << perfetto << '\n';
  }
  return 0;
}

int cmd_export(const std::vector<std::string>& args, std::ostream& out,
               std::ostream& err) {
  std::string trace_path, out_path;
  flags::Parser p("msdiag export", msdiag_usage());
  p.positional("<trace.jsonl>", trace_path);
  p.positional("<out.json>", out_path);
  if (!p.parse(args, err)) return 1;
  std::vector<TraceSpan> spans;
  if (!load_spans(trace_path, spans, err)) return 1;
  const DepGraph graph = DepGraph::build(spans);
  const StepDiagnosis d = analyze(graph);
  // Mark critical-path spans so the viewer can highlight them.
  std::vector<char> on_path(spans.size(), 0);
  for (const auto& seg : d.path) {
    if (seg.node < spans.size()) on_path[seg.node] = 1;
  }
  TimelineTrace trace;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    TraceSpan s = spans[i];
    if (on_path[i]) {
      if (!s.detail.empty()) s.detail += ' ';
      s.detail += "critical=1";
    }
    trace.add(std::move(s));
  }
  if (!write_text_file(out_path, trace.chrome_trace_json())) {
    err << "msdiag: cannot write " << out_path << '\n';
    return 1;
  }
  out << "wrote annotated Perfetto trace: " << out_path << " ("
      << spans.size() << " spans, " << d.path.size()
      << " critical-path segments)\n";
  return 0;
}

}  // namespace

std::string msdiag_usage() {
  return "usage: msdiag <command> ...\n"
         "  analyze <trace.jsonl> [--json] [--top K]   critical path + blame\n"
         "  diff <base.jsonl> <cand.jsonl>             localize a regression\n"
         "  flight <dump.jsonl> [--perfetto <out>]     inspect a flight dump\n"
         "  export <trace.jsonl> <out.json>            annotated Perfetto "
         "trace\n";
}

int msdiag_main(const std::vector<std::string>& args, std::ostream& out,
                std::ostream& err) {
  if (args.empty()) {
    err << msdiag_usage();
    return 1;
  }
  const std::string& cmd = args[0];
  const std::vector<std::string> rest(args.begin() + 1, args.end());
  if (cmd == "analyze") return cmd_analyze(rest, out, err);
  if (cmd == "diff") return cmd_diff(rest, out, err);
  if (cmd == "flight") return cmd_flight(rest, out, err);
  if (cmd == "export") return cmd_export(rest, out, err);
  if (cmd == "help" || cmd == "--help" || cmd == "-h") {
    out << msdiag_usage();
    return 0;
  }
  err << "msdiag: unknown command \"" << cmd << "\"\n" << msdiag_usage();
  return 1;
}

}  // namespace ms::diag
