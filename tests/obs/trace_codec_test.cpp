// The trace codec: obs::ParseTrace reads back both files the recorder
// writes. A chaos run on each host must come back from its JSONL export
// exactly as Collect() returned it, and from its Chrome export the same up
// to the exporter's microsecond scaling; seeded dictionary edits of both
// exports must each parse or fail with a ParseError located inside the
// input.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "scan/common/rng.hpp"
#include "scan/core/scheduler.hpp"
#include "scan/obs/trace.hpp"
#include "scan/runtime/runtime_platform.hpp"
#include "scan/testkit/chaos.hpp"
#include "scan/testkit/mutate.hpp"
#include "located_error.hpp"

namespace scan::obs {
namespace {

constexpr int kMutations = 10'000;

std::uint64_t Bits(double value) { return std::bit_cast<std::uint64_t>(value); }

/// Every test starts and ends with the recorder disabled and empty.
class TraceCodecTest : public ::testing::Test {
 protected:
  void SetUp() override { Quiesce(); }
  void TearDown() override { Quiesce(); }

  static void Quiesce() {
    TraceRecorder::Global().Disable();
    TraceRecorder::Global().Clear();
  }

  /// Traces the kitchen-sink chaos preset (every fault at once) for
  /// `duration` TU on the simulator or on the runtime with 2 exec threads.
  static void RecordChaosRun(bool runtime_host, double duration) {
    core::SimulationConfig config;
    for (const testkit::ChaosSpec& spec : testkit::ChaosScenarios()) {
      if (spec.name == "kitchen-sink") config = spec.config;
    }
    config.duration = SimTime{duration};
    const gatk::PipelineModel model = gatk::PipelineModel::PaperGatk();
    TraceRecorder::Global().Enable();
    if (runtime_host) {
      runtime::RuntimeOptions options;
      options.exec_threads = 2;
      runtime::RuntimePlatform platform(config, model, 11, options);
      (void)platform.Serve();
    } else {
      core::Scheduler scheduler(config, model, 11);
      (void)scheduler.Run();
    }
    TraceRecorder::Global().Disable();
  }

  /// The text of the recorder's JSONL or Chrome export, through a file
  /// named for the running test (ctest runs the cases as concurrent
  /// processes).
  static std::string Export(bool chrome) {
    const std::string path =
        testing::TempDir() + "codec_test_" +
        testing::UnitTest::GetInstance()->current_test_info()->name() +
        (chrome ? ".json" : ".jsonl");
    const TraceRecorder& recorder = TraceRecorder::Global();
    EXPECT_TRUE(chrome ? recorder.ExportChromeJson(path)
                       : recorder.ExportJsonl(path));
    std::ifstream in(path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    std::remove(path.c_str());
    return text.str();
  }
};

/// Field-for-field, bitwise; a Chrome file holds time * kChromeMicrosPerTu,
/// which the reader divides back.
void ExpectSameEvents(const std::vector<TraceEvent>& read,
                      const std::vector<TraceEvent>& recorded, bool chrome) {
  ASSERT_EQ(read.size(), recorded.size());
  const auto scaled = [chrome](double tu) {
    return chrome ? (tu * kChromeMicrosPerTu) / kChromeMicrosPerTu : tu;
  };
  for (std::size_t i = 0; i < read.size(); ++i) {
    const TraceEvent& got = read[i];
    const TraceEvent& want = recorded[i];
    SCOPED_TRACE("event " + std::to_string(i) + " (" +
                 EventKindName(want.kind) + ")");
    ASSERT_EQ(got.kind, want.kind);
    EXPECT_EQ(Bits(got.time_tu), Bits(scaled(want.time_tu)));
    EXPECT_EQ(Bits(got.duration_tu), Bits(scaled(want.duration_tu)));
    EXPECT_EQ(got.track, want.track);
    EXPECT_EQ(got.a, want.a);
    EXPECT_EQ(got.b, want.b);
    EXPECT_EQ(Bits(got.value), Bits(want.value));
    EXPECT_EQ(got.span, want.span);
    EXPECT_EQ(got.parent, want.parent);
  }
}

TEST_F(TraceCodecTest, ChaosRunRoundTripsThroughBothExportsOnBothHosts) {
  for (const bool runtime_host : {false, true}) {
    SCOPED_TRACE(runtime_host ? "runtime" : "simulator");
    Quiesce();
    RecordChaosRun(runtime_host, 400.0);
    const std::vector<TraceEvent> recorded = TraceRecorder::Global().Collect();
    ASSERT_GT(recorded.size(), 1000u);
    for (const bool chrome : {false, true}) {
      SCOPED_TRACE(chrome ? "chrome" : "jsonl");
      const Result<std::vector<TraceEvent>> read = ParseTrace(Export(chrome));
      ASSERT_TRUE(read.ok()) << read.status().ToString();
      ExpectSameEvents(*read, recorded, chrome);
    }
  }
}

TEST(TraceKindTableTest, NamesReadBackToTheirKinds) {
#define SCAN_OBS_TEST_KIND(kind, name)                              \
  EXPECT_STREQ(EventKindName(EventKind::kind), name);               \
  EXPECT_EQ(EventKindFromName(name), std::optional(EventKind::kind));
  SCAN_OBS_EVENT_KINDS(SCAN_OBS_TEST_KIND)
#undef SCAN_OBS_TEST_KIND
  EXPECT_EQ(EventKindFromName("causal"), std::nullopt);
  EXPECT_EQ(EventKindFromName(""), std::nullopt);
}

TEST(TraceParseTest, EmptyExportsHaveNoEvents) {
  // What the two writers produce for an empty recorder.
  for (const char* text : {"", "{\"traceEvents\":[\n]}\n"}) {
    const Result<std::vector<TraceEvent>> read = ParseTrace(text);
    ASSERT_TRUE(read.ok()) << read.status().ToString();
    EXPECT_TRUE(read->empty());
  }
}

TEST(TraceParseTest, ErrorsNameTheFieldAndItsPlace) {
  const std::string line =
      "{\"t\":1,\"dur\":0,\"kind\":\"checkpoint\",\"track\":0,\"a\":1,"
      "\"b\":2,\"v\":0.5,\"span\":0,\"parent\":0}\n";
  ASSERT_TRUE(ParseTrace(line + line).ok());

  const std::string bad_number =
      line + "{\"t\":1x,\"dur\":0,\"kind\":\"checkpoint\"}\n";
  EXPECT_EQ(ParseTrace(bad_number).status().message(),
            "trace: field \"t\": expected a number at line 2, column 6");

  std::string no_kind = line;
  no_kind.replace(no_kind.find("checkpoint"), 10, "checkpoints");
  EXPECT_EQ(ParseTrace(no_kind).status().message(),
            "trace: field \"kind\": unknown event kind at line 1, column 23");

  const std::string missing = "{\"t\":1,\"dur\":0}";
  EXPECT_EQ(ParseTrace(missing).status().message(),
            "trace: expected field \"kind\" at line 1, column 15");

  const std::string chrome =
      "{\"traceEvents\":[\n"
      "{\"name\":\"job-arrival\",\"ts\":1000,\"tid\":0}\n]}";
  EXPECT_EQ(ParseTrace(chrome).status().message(),
            "trace: expected field \"cat\" at line 2, column 22");
}

/// The fuzz dictionary: the event names and every field key both exports
/// write, plus number spellings at the edges of what the reader accepts.
const std::vector<std::string_view>& CodecTokens() {
  static const std::vector<std::string_view> tokens = [] {
    std::vector<std::string_view> all = {
#define SCAN_OBS_TEST_NAME(kind, name) "\"" name "\"",
        SCAN_OBS_EVENT_KINDS(SCAN_OBS_TEST_NAME)
#undef SCAN_OBS_TEST_NAME
    };
    for (const std::string_view token :
         {"\"t\":", "\"dur\":", "\"kind\":", "\"track\":", "\"a\":",
          "\"b\":", "\"v\":", "\"span\":", "\"parent\":", "\"name\":",
          "\"cat\":", "\"ph\":", "\"s\":", "\"ts\":", "\"pid\":",
          "\"tid\":", "\"args\":", "\"id\":", "\"bp\":",
          "\"traceEvents\":", "\"causal\"", "nan", "inf", "1e308",
          "18446744073709551616"}) {
      all.push_back(token);
    }
    return all;
  }();
  return tokens;
}

TEST_F(TraceCodecTest, MutatedExportsParseOrFailLocated) {
  // A short simulator run (one lane, so the corpus is the same every
  // time): spans, flow pairs and fault instants in a text small enough to
  // edit 10,000 times.
  RecordChaosRun(/*runtime_host=*/false, 12.0);
  static constexpr char kBytes[] = {'{', '}', '[', ']', '"', ':', ',',
                                    '\\', '-', '+', '.', 'e', '0', '9',
                                    ' ', '\n', '\t', 'n', 'i', '\0'};
  for (const bool chrome : {false, true}) {
    SCOPED_TRACE(chrome ? "chrome" : "jsonl");
    const std::string corpus = Export(chrome);
    ASSERT_TRUE(ParseTrace(corpus).ok());
    Pcg32 rng(2015, Fnv1a64(chrome ? "trace-chrome" : "trace-jsonl"));
    int rejected = 0;
    for (int i = 0; i < kMutations; ++i) {
      std::string text = corpus;
      const std::uint32_t edits = 1 + rng.UniformBelow(2);
      for (std::uint32_t e = 0; e < edits; ++e) {
        testkit::Mutate(text, rng, kBytes, CodecTokens());
      }
      const Result<std::vector<TraceEvent>> read = ParseTrace(text);
      if (read.ok()) continue;
      ++rejected;
      ASSERT_TRUE(LocatedInside(text, read.status()));
    }
    // Most edits break the syntax; some must still parse.
    EXPECT_GT(rejected, kMutations / 2);
    EXPECT_LT(rejected, kMutations);
  }
}

}  // namespace
}  // namespace scan::obs
