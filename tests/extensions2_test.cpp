// Tests for the second extension batch: hierarchical all-reduce and Chrome
// trace export.
#include <gtest/gtest.h>

#include "collective/comm.h"
#include "diag/timeline.h"

namespace ms {
namespace {

// ----------------------------------------------- hierarchical all-reduce

TEST(HierarchicalAllReduce, BeatsFlatRingAtScale) {
  collective::CollectiveModel coll{collective::ClusterSpec{}};
  for (int gpus : {64, 512, 4096}) {
    const TimeNs flat =
        coll.all_reduce(1_GiB, gpus, collective::Domain::kInterNode);
    const TimeNs hier = coll.hierarchical_all_reduce(1_GiB, gpus / 8, 8);
    EXPECT_LT(hier, flat) << gpus << " GPUs";
  }
}

TEST(HierarchicalAllReduce, SingleNodeReducesToNvlinkOnly) {
  collective::CollectiveModel coll{collective::ClusterSpec{}};
  const TimeNs hier = coll.hierarchical_all_reduce(1_GiB, 1, 8);
  const TimeNs intra_only =
      coll.reduce_scatter(1_GiB, 8, collective::Domain::kIntraNode) +
      coll.all_gather(1_GiB, 8, collective::Domain::kIntraNode);
  EXPECT_EQ(hier, intra_only);
}

TEST(HierarchicalAllReduce, ZeroBytesFree) {
  collective::CollectiveModel coll{collective::ClusterSpec{}};
  EXPECT_EQ(coll.hierarchical_all_reduce(0, 16, 8), 0);
}

TEST(HierarchicalAllReduce, NicBytesAreOneEighth) {
  // The inter-node phase should move ~1/8 of the payload per NIC: with
  // latency zeroed, hierarchical inter time == flat(bytes/8) over nodes.
  collective::ClusterSpec c;
  c.net_latency = 0;
  c.nvlink_latency = 0;
  collective::CollectiveModel coll{c};
  const TimeNs hier = coll.hierarchical_all_reduce(8_GiB, 64, 8);
  const TimeNs intra =
      coll.reduce_scatter(8_GiB, 8, collective::Domain::kIntraNode) +
      coll.all_gather(8_GiB, 8, collective::Domain::kIntraNode);
  const TimeNs inter =
      coll.all_reduce(1_GiB, 64, collective::Domain::kInterNode);
  EXPECT_EQ(hier, intra + inter);
}

// ----------------------------------------------------------- chrome trace

TEST(ChromeTrace, EmitsValidEventObjects) {
  diag::TimelineTrace trace;
  trace.add({.rank = 3, .name = "fwd", .tag = "fwd",
             .start = microseconds(10.0), .end = microseconds(25.0)});
  trace.add({.rank = 4, .name = "bwd", .tag = "bwd",
             .start = microseconds(25.0), .end = microseconds(55.0)});
  const std::string json = trace.chrome_trace_json();
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"fwd\""), std::string::npos);
  EXPECT_NE(json.find("\"pid\":3"), std::string::npos);
  EXPECT_NE(json.find("\"ts\":10"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":15"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  // Braces balance.
  int depth = 0;
  for (char ch : json) {
    if (ch == '{') ++depth;
    if (ch == '}') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST(ChromeTrace, EmptyTraceIsValid) {
  diag::TimelineTrace trace;
  EXPECT_EQ(trace.chrome_trace_json(), "{\"traceEvents\":[]}");
}

}  // namespace
}  // namespace ms
