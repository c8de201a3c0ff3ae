// Round-trips a trace through the on-disk Chrome trace_event format: build
// spans/instants/counters, WriteFile, read the bytes back, parse with the
// repo's JSON parser and verify structure. Registered as its own ctest
// binary so the tier-1 test command always exercises the export path.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "src/obs/trace.h"
#include "tests/testing/temp_dir.h"

namespace pdsp {
namespace obs {
namespace {

TEST(TraceRoundtripTest, WriteReadParseVerify) {
  Tracer tracer;
  {
    Span outer(&tracer, "outer", "phase");
    Span inner(&tracer, "inner", "phase");
  }
  tracer.AddInstant("marker", "sim", 1234.5, kVirtualPid, 3);
  tracer.AddCounter("pdsp.sim.in_flight_tuples", 2000.0, 17.0);
  tracer.SetThreadName(kVirtualPid, 3, "agg[0]");
  ASSERT_EQ(tracer.NumEvents(), 5u);

  const std::string path = testing::TestTempDir() + "/trace.json";
  Status st = tracer.WriteFile(path);
  ASSERT_TRUE(st.ok()) << st.ToString();

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();

  auto parsed = Json::Parse(buf.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const Json& doc = *parsed;
  EXPECT_EQ(doc["displayTimeUnit"].AsString(), "ms");
  ASSERT_TRUE(doc["traceEvents"].is_array());
  ASSERT_EQ(doc["traceEvents"].size(), 5u);

  int complete = 0, instant = 0, counter = 0, metadata = 0;
  for (size_t i = 0; i < doc["traceEvents"].size(); ++i) {
    const Json& e = doc["traceEvents"].at(i);
    const std::string ph = e["ph"].AsString();
    if (ph == "X") {
      ++complete;
      EXPECT_TRUE(e["ts"].is_number());
      EXPECT_GE(e["dur"].AsNumber(), 0.0);
    } else if (ph == "i") {
      ++instant;
      EXPECT_DOUBLE_EQ(e["ts"].AsNumber(), 1234.5);
    } else if (ph == "C") {
      ++counter;
      EXPECT_DOUBLE_EQ(e["args"]["value"].AsNumber(), 17.0);
    } else if (ph == "M") {
      ++metadata;
      EXPECT_EQ(e["args"]["name"].AsString(), "agg[0]");
    } else {
      FAIL() << "unexpected phase " << ph;
    }
  }
  EXPECT_EQ(complete, 2);
  EXPECT_EQ(instant, 1);
  EXPECT_EQ(counter, 1);
  EXPECT_EQ(metadata, 1);
}

TEST(TraceRoundtripTest, EventCapDropsAndCounts) {
  Tracer tracer(/*max_events=*/2);
  tracer.AddInstant("a", "t", 1.0);
  tracer.AddInstant("b", "t", 2.0);
  tracer.AddInstant("c", "t", 3.0);
  EXPECT_EQ(tracer.NumEvents(), 2u);
  EXPECT_EQ(tracer.DroppedEvents(), 1);
  const Json doc = tracer.ToJson();
  EXPECT_EQ(doc["droppedEvents"].AsInt(), 1);
}

TEST(TraceRoundtripTest, NullTracerSpanIsNoOp) {
  Span span(nullptr, "ignored");
  span.End();  // must not crash
}

}  // namespace
}  // namespace obs
}  // namespace pdsp
