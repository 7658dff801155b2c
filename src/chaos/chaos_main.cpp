// chaos_campaign — command-line front end for the chaos harness.
//
// ms-lint: allow-file(test-coverage): thin CLI shim; all command logic is
// in src/chaos/campaign.cpp, exercised by tests/chaos_campaign_test.cpp.
#include <iostream>
#include <string>
#include <vector>

#include "chaos/campaign.h"

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  return ms::chaos::chaos_campaign_main(args, std::cout, std::cerr);
}
