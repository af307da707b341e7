// Every FASTQ reader runs on one scanner, so they must agree: on which
// texts they accept, on how many records they count, and on the located
// error they report. The shard path is checked against a reference
// parse-then-serialize oracle over seeded mutations of a real payload.

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "scan/common/rng.hpp"
#include "scan/common/str.hpp"
#include "scan/genomics/fastq.hpp"
#include "scan/genomics/fastq_stream.hpp"
#include "scan/genomics/sharder.hpp"
#include "scan/genomics/synthetic.hpp"
#include "scan/testkit/mutate.hpp"

namespace scan::genomics {
namespace {

/// What one reader made of one text.
struct Reading {
  ErrorCode code = ErrorCode::kOk;
  std::size_t records = 0;
  std::string error;

  friend bool operator==(const Reading&, const Reading&) = default;
};

Reading FromStatus(const Status& status, std::size_t records) {
  if (!status.ok()) return {status.code(), 0, status.message()};
  return {ErrorCode::kOk, records, ""};
}

template <typename T>
Reading FromResult(const Result<T>& result, std::size_t records) {
  return FromStatus(result.status(), records);
}

/// The text through each of the five FASTQ readers, in a fixed order.
std::vector<std::pair<std::string, Reading>> ReadAll(std::string_view text) {
  std::vector<std::pair<std::string, Reading>> out;
  const auto parsed = ParseFastq(text);
  out.emplace_back("ParseFastq",
                   FromResult(parsed, parsed.ok() ? parsed->size() : 0));
  FastqStream stream(text);
  for (FastqRecord record; stream.Next(record);) {
  }
  out.emplace_back("FastqStream",
                   FromStatus(stream.status(), stream.records_read()));
  const auto counted = CountFastqRecords(text);
  out.emplace_back("CountFastqRecords",
                   FromResult(counted, counted.ok() ? *counted : 0));
  std::size_t streamed = 0;
  const Status stream_shards =
      StreamShardFastq(text, 2, [&](std::string_view, std::size_t count) {
        streamed += count;
        return true;
      });
  out.emplace_back("StreamShardFastq", FromStatus(stream_shards, streamed));
  const auto sharded = ShardFastq(text, ShardSpec{2, 0});
  out.emplace_back("ShardFastq",
                   FromResult(sharded, sharded.ok() ? sharded->total_records
                                                    : 0));
  return out;
}

TEST(FastqReadersTest, EmptyReadsRoundTripThroughEveryReader) {
  const std::vector<FastqRecord> records = {{"a", "AC", "II"}, {"r", "", ""}};
  const std::string text = WriteFastq(records);
  const auto parsed = ParseFastq(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(*parsed, records);
  for (const auto& [reader, reading] : ReadAll(text)) {
    EXPECT_EQ(reading.code, ErrorCode::kOk) << reader << ": " << reading.error;
    EXPECT_EQ(reading.records, 2u) << reader;
  }
  const auto shards = ShardFastq(text, ShardSpec{1, 0});
  ASSERT_TRUE(shards.ok());
  EXPECT_EQ(shards->shards,
            (std::vector<std::string>{"@a\nAC\n+\nII\n", "@r\n\n+\n\n"}));
}

TEST(FastqReadersTest, AgreeOnAcceptanceCountAndErrorLine) {
  struct Case {
    const char* what;
    std::string text;
    std::size_t records;     ///< when accepted
    std::size_t error_line;  ///< 0 = accepted
  };
  const Case cases[] = {
      {"canonical", "@r1\nACGT\n+\nIIII\n@r2\nGGCC\n+\n####\n", 2, 0},
      {"crlf", "@r1\r\nACGT\r\n+\r\nIIII\r\n@r2\r\nGG\r\n+\r\n##\r\n", 2, 0},
      {"+id separator", "@r1\nACGT\n+r1\nIIII\n", 1, 0},
      {"padded lines", "  @r1 \n\tACGT \n + \n IIII\t\n", 1, 0},
      {"no final newline", "@r1\nACGT\n+\nIIII", 1, 0},
      {"trailing blank lines", "@r1\nACGT\n+\nIIII\n\n  \n\r\n", 1, 0},
      {"empty text", "", 0, 0},
      {"blank text", "\n \n", 0, 0},
      {"empty read last", "@a\nAC\n+\nII\n@r\n\n+\n\n", 2, 0},
      {"empty read first", "@r\n\n+\n\n@a\nAC\n+\nII\n", 2, 0},
      {"interior blank line", "@r1\nAC\n+\nII\n\n@r2\nGT\n+\nII\n", 0, 6},
      {"leading blank line", "\n@r1\nACGT\n+\nIIII\n", 0, 2},
      {"text after trailing blanks", "@r1\nAC\n+\nII\n\n\nxyz\n", 0, 7},
      {"missing '@'", "r1\nACGT\n+\nIIII\n", 0, 1},
      {"second header", "@r1\nAC\n+\nII\nr2\nGT\n+\nII\n", 0, 5},
      {"bad separator", "@r1\nACGT\nX\nIIII\n", 0, 1},
      {"blank separator", "@r1\nACGT\n\nIIII\n", 0, 1},
      {"invalid bases", "@r1\nACXT\n+\nIIII\n", 0, 1},
      {"lower-case bases", "@r1\nAC\n+\nII\n@r2\nacgt\n+\nIIII\n", 0, 5},
      {"quality length", "@r1\nACGT\n+\nIII\n", 0, 1},
      {"empty id", "@\nACGT\n+\nIIII\n", 0, 1},
      {"blank id", "@ \t\nAC\n+\nII\n", 0, 1},
      {"truncated record", "@r1\nACGT\n+\n", 0, 1},
      {"truncated second record", "@r1\nAC\n+\nII\n@r2\nGT\n", 0, 5},
      {"header only", "@r1", 0, 1},
      {"empty read without quality line", "@r\n\n+\n", 0, 1},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    const auto readings = ReadAll(c.text);
    for (const auto& [reader, reading] : readings) {
      EXPECT_EQ(reading.code, c.error_line == 0 ? ErrorCode::kOk
                                                : ErrorCode::kParseError)
          << reader << ": " << reading.error;
      EXPECT_EQ(reading.records, c.records) << reader;
      if (c.error_line != 0) {
        EXPECT_TRUE(EndsWith(reading.error,
                             " at line " + std::to_string(c.error_line)))
            << reader << ": " << reading.error;
      }
      // One scanner: the very same error text from every reader.
      EXPECT_EQ(reading, readings.front().second) << reader;
    }
  }
}

// ---- Differential + mutation test of the shard path ----

/// Reference shard algorithm: parse every record, cut boundaries by
/// canonical record size, serialize each slice.
Result<ShardSet> OracleShardFastq(std::string_view text,
                                  const ShardSpec& spec) {
  auto parsed = ParseFastq(text);
  if (!parsed.ok()) return parsed.status();
  ShardSet out;
  out.total_records = parsed->size();
  std::vector<FastqRecord> slice;
  std::size_t bytes = 0;
  for (const FastqRecord& record : *parsed) {
    const std::size_t record_bytes = FastqRecordBytes(record);
    const bool over_records =
        spec.max_records != 0 && slice.size() + 1 > spec.max_records;
    const bool over_bytes = spec.max_bytes != 0 && !slice.empty() &&
                            bytes + record_bytes > spec.max_bytes;
    if (over_records || over_bytes) {
      out.shards.push_back(WriteFastq(slice));
      slice.clear();
      bytes = 0;
    }
    slice.push_back(record);
    bytes += record_bytes;
  }
  if (!slice.empty()) out.shards.push_back(WriteFastq(slice));
  return out;
}

void ExpectSameShards(const Result<ShardSet>& got,
                      const Result<ShardSet>& want, const char* label) {
  ASSERT_EQ(got.status().code(), want.status().code()) << label;
  if (!want.ok()) return;
  EXPECT_EQ(got->total_records, want->total_records) << label;
  EXPECT_EQ(got->shards, want->shards) << label;
}

TEST(FastqShardDifferentialTest, MatchesOracleOnMutatedPayloads) {
  SyntheticGenerator gen(41);
  const FastaRecord ref = gen.Reference("chr1", 300);
  ReadSimSpec read_spec;
  read_spec.read_count = 24;
  read_spec.read_length = 24;
  const std::string payload = WriteFastq(gen.Reads(ref, read_spec));

  std::vector<std::string> inputs = {
      payload,
      "",
      "\n \n",
      "@r1\r\nACGT\r\n+\r\nIIII\r\n@r2\r\nGG\r\n+r2\r\n##\r\n",
      "  @r1 \n\tACGT \n + \n IIII\t\n@r2\nGT\n+\nII",
      payload + "\n\n \r\n",
      payload.substr(0, payload.size() - 1),
      "@a\nAC\n+\nII\n@r\n\n+\n\n",
      "@a\nAC\n+\nII\n\n@b\nGT\n+\nII\n",
      "@big\n" + std::string(500, 'A') + "\n+\n" + std::string(500, 'I') +
          "\n@s\nA\n+\nI\n",
  };
  // Seeded edits draw new bytes from the characters FASTQ gives meaning
  // to, and insert whole lines and records.
  static constexpr char kBytes[] = {'\n', '\r', ' ', '\t', '@', '+', 'A',
                                    'C',  'G',  'T', 'N',  'x', '#', '\0'};
  static constexpr std::string_view kTokens[] = {
      "\n", "\r\n", "\n\n", "@", "+", " ", "@r\nAC\n+\nII\n", "+r\n"};
  Pcg32 rng(2015, Fnv1a64("fastq-shard-mutations"));
  constexpr int kMutations = 10'000;
  for (int i = 0; i < kMutations; ++i) {
    std::string text = payload;
    const std::uint32_t edits = 1 + rng.UniformBelow(2);
    for (std::uint32_t e = 0; e < edits; ++e) {
      testkit::Mutate(text, rng, kBytes, kTokens);
    }
    inputs.push_back(std::move(text));
  }

  const ShardSpec specs[] = {{3, 0}, {0, 300}, {4, 250}, {0, 1}};
  ThreadPool pool(2);
  std::size_t accepted = 0;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    SCOPED_TRACE("input " + std::to_string(i));
    const std::string& text = inputs[i];
    bool ok = false;
    std::size_t records = 0;
    for (const ShardSpec& spec : specs) {
      const auto serial = ShardFastq(text, spec);
      ExpectSameShards(serial, OracleShardFastq(text, spec), "oracle");
      ExpectSameShards(ShardFastqParallel(text, spec, pool), serial,
                       "parallel");
      ok = serial.ok();
      records = ok ? serial->total_records : 0;
    }
    accepted += ok ? 1 : 0;

    std::string rejoined;
    std::size_t streamed = 0;
    const Status status =
        StreamShardFastq(text, 3, [&](std::string_view shard, std::size_t n) {
          rejoined += shard;
          streamed += n;
          return true;
        });
    ASSERT_EQ(status.ok(), ok);
    if (status.ok()) {
      EXPECT_EQ(streamed, records);
      // A text without records emits no shard; it must then be blank.
      EXPECT_EQ(rejoined, streamed > 0 ? text : "");
      if (streamed == 0) {
        EXPECT_TRUE(TrimView(text).empty());
      }
    }
  }
  // Both outcomes are well represented, so neither side is vacuous.
  EXPECT_GT(accepted, inputs.size() / 10);
  EXPECT_LT(accepted, inputs.size() * 9 / 10);
}

}  // namespace
}  // namespace scan::genomics
