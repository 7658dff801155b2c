// Fixture: a shipped includer for the corpus headers that exist for other
// rules, so shipped-header stays silent on them.
#include "core/bad_mutex.h"
#include "core/bad_units.h"
#include "core/waived_mutex.h"
#include "diag/bad_digest.h"
#include "util/no_pragma.h"

int main() { return 0; }
