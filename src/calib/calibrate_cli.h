// `msdiag calibrate` — the calibration & trace-replay frontend (CLI half).
//
//   msdiag calibrate <trace> [--preset fixture|demo] [--json]
//                    [--fitted-out FILE] [--no-replay] [--tolerance T]
//       ingest a trace (span JSONL or Chrome/Kineto JSON), fit operator
//       efficiencies and alpha-beta collective parameters, report per-class
//       residuals, then replay the fit through the simulator and check the
//       step time against the tolerance (exit 1 when out of tolerance)
//   msdiag calibrate --emit <out.jsonl> [--preset fixture|demo]
//                    [--gemm-eff X] [--attn-eff X] [--mem-eff X]
//                    [--net-eff X]
//       simulate one step with the given "true" parameters and write the
//       span-JSONL trace — the generator behind tests/golden/calib and the
//       round-trip acceptance gate.
//   msdiag demo <out.jsonl> [--straggler RANK | --slow-link STAGE] [--factor F]
//       write a demo_config() step trace with a seeded straggler or slow link
//
// Like msdiag_main, the entry points take argv-style strings and write to
// caller-supplied streams so tests drive them exactly like the shell does.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "engine/job.h"

namespace ms::calib {

/// The fixture workload: 13B model, tp=1 (keeps every fitted duration
/// exactly linear in the unknowns — no chunked TP-overlap folding), pp=4,
/// vpp=2, dp=4, MegaScale overlap + operators. Small enough for tier-1
/// tests, rich enough to make all three operator directions and the
/// inter-node alpha-beta pair identifiable.
engine::JobConfig fixture_config();

/// The `msdiag demo` workload (175B, tp=8 pp=8 vpp=6 dp=4): what a user
/// calibrating a demo-generated trace should pass as --preset.
engine::JobConfig demo_config();

/// Runs one `msdiag demo` invocation. Returns a process exit code: 0 on
/// success, 1 on usage errors or a failed write.
int demo_main(const std::vector<std::string>& args, std::ostream& out,
              std::ostream& err);

/// Runs one calibrate invocation. Returns a process exit code: 0 on
/// success, 1 on usage/load/fit errors or an out-of-tolerance replay.
int calibrate_main(const std::vector<std::string>& args, std::ostream& out,
                   std::ostream& err);

std::string calibrate_usage();

}  // namespace ms::calib
