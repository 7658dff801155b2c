// msdiag — command-line front end for the §5 diagnosis library.
//
//   msdiag analyze out/trace.jsonl --top 5
//   msdiag diff base.jsonl cand.jsonl
//   msdiag flight out/flight-000.jsonl --perfetto flight.json
//   msdiag export out/trace.jsonl annotated.json
//   msdiag demo out/trace.jsonl [--straggler R | --slow-link S] [--factor F]
//   msdiag ledger out/fig11_ledger.jsonl [--json] [--no-chart]
//   msdiag ledger --diff base.jsonl cand.jsonl
//   msdiag calibrate trace.jsonl --preset fixture --fitted-out fit.jsonl
//   msdiag calibrate --emit trace.jsonl --gemm-eff 0.65
//   msdiag fabric top --scenario storm --intensity 0.8
//   msdiag fabric timeline --scenario rehash --out fabric.json
//
// Subcommands needing layers src/diag cannot depend on are dispatched here:
// `ledger` (telemetry::RunLedger), `demo` and `calibrate` (the training-
// iteration engine, via src/calib) and `fabric` (the network models).
// `demo` synthesizes one traced step, optionally with an injected straggler
// stage or degraded p2p link, so the full workflow is reproducible from a
// clean checkout:  msdiag demo t.jsonl --straggler 3 && msdiag analyze t.jsonl
//
// ms-lint: allow-file(test-coverage): thin CLI shim; all command logic is
// in the src/ libraries it dispatches to, each exercised by its tests.
#include <iostream>
#include <string>
#include <vector>

#include "calib/calibrate_cli.h"
#include "diag/msdiag.h"
#include "net/fabric/fabric_cli.h"
#include "telemetry/ledger.h"

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  const std::string cmd = args.empty() ? "" : args.front();
  const std::vector<std::string> rest(argv + (argc > 1 ? 2 : 1), argv + argc);
  auto& out = std::cout;
  auto& err = std::cerr;
  if (cmd == "demo") return ms::calib::demo_main(rest, out, err);
  if (cmd == "ledger") return ms::telemetry::ledger_main(rest, out, err);
  if (cmd == "calibrate") return ms::calib::calibrate_main(rest, out, err);
  if (cmd == "fabric") return ms::net::fabric::fabric_main(rest, out, err);
  if (args.empty() || args.front() == "--help" || args.front() == "-h") {
    std::cerr << ms::diag::msdiag_usage() << ms::telemetry::ledger_usage()
              << ms::calib::calibrate_usage() << ms::net::fabric::fabric_usage();
    return args.empty() ? 1 : 0;
  }
  return ms::diag::msdiag_main(args, std::cout, std::cerr);
}
