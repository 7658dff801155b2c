// diagnose: the msdiag post-mortem on one captured step per task — a traced
// engine::simulate_iteration of the sec43 fixture (175B, tp8 pp8 vpp6 dp4,
// batch 256) with one seeded straggler stage or slow link, written as span
// JSONL, ingested by calib::ingest_trace and blamed by diag::analyze_spans.
//
// Why: it is the only workload where the trace writer, the JSON parser,
// calibration ingest and diagnosis blame do the work. Span JSONL rather
// than Chrome JSON: a one-line Chrome trace is detected as span JSONL and
// ingests as zero spans.
#include <cstdio>
#include <string>

#include "calib/ingest.h"
#include "core/rng.h"
#include "diag/blame.h"
#include "engine/job.h"
#include "harness.h"
#include "telemetry/exporters.h"
#include "telemetry/trace.h"

namespace perfbench {
namespace {

struct Case {
  bool straggler = true;  ///< slow stage; otherwise a slow p2p link
  int stage = 0;          ///< straggling stage, or the link's sending stage
  double factor = 1.0;
};

constexpr int kStages = 8;

ms::engine::JobConfig fixture(const Case& c) {
  ms::engine::JobConfig cfg;
  cfg.model = ms::model::config_175b();
  cfg.par.tp = 8;
  cfg.par.pp = kStages;
  cfg.par.vpp = 6;
  cfg.par.dp = 4;
  cfg.global_batch = 256;
  cfg.ops = ms::model::OperatorProfile::megascale();
  cfg.overlap = ms::engine::OverlapOptions::megascale();
  const auto stage = static_cast<std::size_t>(c.stage);
  if (c.straggler) {
    cfg.stage_speed.assign(kStages, 1.0);
    cfg.stage_speed[stage] = c.factor;
  } else {
    cfg.overlap.pp_decouple = false;  // expose the link
    cfg.link_speed.assign(kStages, 1.0);
    cfg.link_speed[stage] = c.factor;
  }
  return cfg;
}

class Diagnose : public Workload {
 public:
  Diagnose(std::uint64_t seed, int tasks) {
    ms::Rng rng(ms::derive_seed(seed, "perfbench.diagnose"));
    for (int i = 0; i < tasks; ++i) {
      Case c;
      c.straggler = i % 2 == 0;
      // Blame is unambiguous from 1.5x (stage) and 4x (link) up; below
      // that the pp-comm path can outrank the injected culprit.
      c.stage = static_cast<int>(rng.uniform_index(c.straggler ? kStages
                                                               : kStages - 1));
      c.factor = c.straggler ? rng.uniform(1.5, 3.0) : rng.uniform(4.0, 16.0);
      cases_.push_back(c);
    }
  }

  std::vector<std::string> task_list() const override {
    std::vector<std::string> out;
    char buf[64];
    for (const Case& c : cases_) {
      std::snprintf(buf, sizeof(buf), "%s stage=%d factor=%.6f",
                    c.straggler ? "straggler" : "slow-link", c.stage, c.factor);
      out.emplace_back(buf);
    }
    return out;
  }

  void setup(Spans* spans) override {
    (void)spans;
    run(0, nullptr);  // warm-up: one task of each kind
    run(1, nullptr);
  }

  void run(int i, Spans* spans) override {
    case_ = cases_[static_cast<std::size_t>(i)];
    std::vector<ms::diag::TraceSpan> trace;
    {
      Span span(spans, "engine.simulate_iteration");
      ms::telemetry::Tracer tracer;
      auto cfg = fixture(case_);
      cfg.tracer = &tracer;
      ms::engine::simulate_iteration(cfg);
      trace = tracer.spans();
    }
    std::string text;
    {
      Span span(spans, "telemetry.jsonl_spans");
      text = ms::telemetry::jsonl_spans(trace);
    }
    ms::calib::IngestResult ingested;
    std::string error;
    {
      Span span(spans, "calib.ingest_trace");
      ingested_ok_ = ms::calib::ingest_trace(text, ingested, error);
    }
    written_ = trace.size();
    read_ = ingested.spans.size();
    {
      Span span(spans, "diag.analyze_spans");
      diagnosis_ = ms::diag::analyze_spans(std::move(ingested.spans));
    }
    if (spans == nullptr) return;
    spans->add_count("telemetry.jsonl_spans.bytes", static_cast<double>(text.size()));
    spans->add_count("calib.ingest_trace.spans", static_cast<double>(read_));
    spans->add_count("calib.ingest_trace.skipped_events",
                     static_cast<double>(ingested.skipped_events));
  }

  bool check(int i, std::uint64_t& digest) override {
    (void)i;
    digest = diagnosis_.digest;
    const bool top1 = top1_names_culprit();
    ++checked_;
    if (top1) ++top1_hits_;
    return ingested_ok_ && read_ == written_ && top1;
  }

  std::map<std::string, double> finish(Spans* spans) override {
    if (spans != nullptr && checked_ > 0) {
      spans->set("diag.blame_top1_frac",
                 static_cast<double>(top1_hits_) / checked_);
    }
    return {};
  }

 private:
  bool top1_names_culprit() const {
    if (diagnosis_.blame.empty()) return false;
    const auto& top = diagnosis_.blame.front();
    if (case_.straggler) {
      return top.cause == ms::diag::SegmentKind::kStragglerWait &&
             top.rank == case_.stage;
    }
    return top.cause == ms::diag::SegmentKind::kSlowLink &&
           top.link.rfind(std::to_string(case_.stage) + "->", 0) == 0;
  }

  std::vector<Case> cases_;
  Case case_;
  bool ingested_ok_ = false;
  std::size_t written_ = 0;
  std::size_t read_ = 0;
  ms::diag::StepDiagnosis diagnosis_;
  int checked_ = 0;
  int top1_hits_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_diagnose(std::uint64_t seed, int tasks) {
  return std::make_unique<Diagnose>(seed, tasks);
}

}  // namespace perfbench
