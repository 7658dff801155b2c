// Fixture test tree: gives bad_digest.cpp coverage via its header include
// and bad_entropy.cpp coverage via a stem mention; the orphan fixture in
// util/ is deliberately never referenced here so test-coverage fires on it.
#include "diag/bad_digest.h"

// bad_entropy and bad_wallclock are exercised elsewhere in the fixture
// narrative, and bad_plan_report and bad_number_parse have coverage so only
// their own rules fire on them.
