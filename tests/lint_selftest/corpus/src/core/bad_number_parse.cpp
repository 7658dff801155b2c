// Fixture: number parses that read garbage as 0. atoi/atof always fire;
// strto* fires only when its end pointer is nullptr, also across lines.
#include <cstdlib>
#include <string>

namespace fixture {

int count(const std::string& v) { return std::atoi(v.c_str()); }  // fires

unsigned long long seed(const char* v) {
  return std::strtoull(v, nullptr, 0);  // fires
}

double ratio(const std::string& v) {
  return std::strtod(v.c_str(),  // fires: the call starts on this line
                     nullptr);
}

long checked(const char* v) {
  char* end = nullptr;
  const long n = std::strtol(v, &end, 10);  // end pointer checked: silent
  return *end == '\0' ? n : -1;
}

double waived(const char* v) {
  // ms-lint: allow(unchecked-number-parse): fixture — waiver honored
  return std::atof(v);
}

// A comment naming atoi(v) stays silent.

}  // namespace fixture
