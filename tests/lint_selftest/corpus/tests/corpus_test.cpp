// Fixture test tree: gives bad_digest.cpp and unshipped.cpp coverage via
// their header includes and bad_entropy.cpp coverage via a stem mention;
// the orphan fixture in util/ is deliberately never referenced here so
// test-coverage fires on it. A test includer does not ship util/unshipped.h.
#include "diag/bad_digest.h"
#include "util/unshipped.h"

// bad_entropy and bad_wallclock are exercised elsewhere in the fixture
// narrative, and bad_plan_report and bad_number_parse have coverage so only
// their own rules fire on them.
