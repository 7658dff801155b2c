// Fixture: a header only a test and its own .cpp include (fires
// shipped-header).
#pragma once

namespace fixture {

int test_only();

}  // namespace fixture
