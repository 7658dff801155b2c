// Fixture: the header's own .cpp does not count as a shipped includer.
#include "util/unshipped.h"

namespace fixture {

int test_only() { return 3; }

}  // namespace fixture
