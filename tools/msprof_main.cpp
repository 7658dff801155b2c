// msprof — command-line front end for the simulator self-profiler.
//
//   msprof run fig11_production_run --json prof.jsonl --trace self.json
//   msprof run micro_engine --top 10
//   msprof report prof.jsonl
//   msprof diff base.jsonl cand.jsonl
//   msprof overhead --budget 0.03
//   msprof list
//
// ms-lint: allow-file(test-coverage): thin CLI shim; all command logic is
// in src/prof/msprof.cpp, exercised by tests/prof_test.cpp.
#include <iostream>
#include <string>
#include <vector>

#include "prof/msprof.h"

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  return ms::prof::msprof_main(args, std::cout, std::cerr);
}
