#include "scan/genomics/sharder.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>

#include "scan/genomics/fastq_stream.hpp"
#include "scan/genomics/sam.hpp"

namespace scan::genomics {

namespace {

/// Records [begin, end) of one FASTQ shard and its canonical size.
struct ShardRange {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t bytes = 0;
};

/// The FASTQ shard path under both entry points: one scan validates the
/// text and cuts shards by canonical record size, then each shard is
/// written once, into a string reserved to its exact size — serially, or
/// one shard per task on `pool`.
Result<ShardSet> ShardFastqText(std::string_view text, const ShardSpec& spec,
                                ThreadPool* pool) {
  if (spec.max_records == 0 && spec.max_bytes == 0) {
    return InvalidArgumentError(pool == nullptr
                                    ? "ShardFastq: no shard bound set"
                                    : "ShardFastqParallel: no shard bound set");
  }
  std::vector<FastqView> records;
  std::vector<ShardRange> ranges;
  ShardRange open;
  const auto close_shard = [&] {
    open.end = records.size();
    ranges.push_back(open);
    open = ShardRange{records.size(), 0, 0};
  };
  FastqStream stream(text);
  for (FastqView record; stream.Next(record);) {
    const std::size_t bytes = FastqRecordBytes(record);
    const std::size_t count = records.size() - open.begin;
    if ((spec.max_records != 0 && count == spec.max_records) ||
        (spec.max_bytes != 0 && count > 0 &&
         open.bytes + bytes > spec.max_bytes)) {
      close_shard();
    }
    open.bytes += bytes;
    records.push_back(record);
  }
  SCAN_RETURN_IF_ERROR(stream.status());
  if (records.size() > open.begin) close_shard();

  ShardSet out;
  out.total_records = records.size();
  out.shards.resize(ranges.size());
  const auto write = [&](std::size_t i) {
    std::string& shard = out.shards[i];
    shard.reserve(ranges[i].bytes);
    for (std::size_t r = ranges[i].begin; r < ranges[i].end; ++r) {
      AppendFastq(shard, records[r]);
    }
  };
  if (pool != nullptr) {
    ParallelFor(*pool, 0, ranges.size(), write);
  } else {
    for (std::size_t i = 0; i < ranges.size(); ++i) write(i);
  }
  return out;
}

}  // namespace

Result<ShardSet> ShardFastq(std::string_view text, const ShardSpec& spec) {
  return ShardFastqText(text, spec, nullptr);
}

Result<ShardSet> ShardFastqParallel(std::string_view text,
                                    const ShardSpec& spec, ThreadPool& pool) {
  return ShardFastqText(text, spec, &pool);
}

std::string MergeFastq(const std::vector<std::string>& shards) {
  std::size_t total = 0;
  for (const auto& s : shards) total += s.size();
  std::string out;
  out.reserve(total);
  for (const auto& s : shards) out += s;
  return out;
}

Result<ShardSet> ShardSamByRegion(std::string_view text,
                                  std::int64_t region_size) {
  if (region_size <= 0) {
    return InvalidArgumentError("ShardSamByRegion: region_size must be > 0");
  }
  auto parsed = ParseSam(text);
  if (!parsed.ok()) return parsed.status();
  const SamFile& file = parsed.value();

  // Bucket key: (rname, region index); unmapped records use a sentinel that
  // sorts last.
  using Key = std::pair<std::string, std::int64_t>;
  std::map<Key, std::vector<const SamRecord*>> buckets;
  std::vector<const SamRecord*> unmapped;
  for (const SamRecord& rec : file.records) {
    if (rec.rname == "*" || rec.pos <= 0) {
      unmapped.push_back(&rec);
      continue;
    }
    const std::int64_t region = (rec.pos - 1) / region_size;
    buckets[{rec.rname, region}].push_back(&rec);
  }

  ShardSet out;
  out.total_records = file.records.size();
  auto serialize_bucket = [&](const std::vector<const SamRecord*>& bucket) {
    SamFile shard;
    shard.header = file.header;
    shard.records.reserve(bucket.size());
    for (const SamRecord* rec : bucket) shard.records.push_back(*rec);
    out.shards.push_back(WriteSam(shard));
  };
  for (const auto& [key, bucket] : buckets) serialize_bucket(bucket);
  if (!unmapped.empty()) serialize_bucket(unmapped);
  return out;
}

Result<std::size_t> PlanShardCount(double total_size_gb,
                                   double shard_size_gb) {
  if (!std::isfinite(total_size_gb) || !std::isfinite(shard_size_gb) ||
      total_size_gb <= 0.0 || shard_size_gb <= 0.0) {
    return InvalidArgumentError(
        "PlanShardCount: sizes must be positive and finite");
  }
  const double count = std::ceil(total_size_gb / shard_size_gb);
  if (count >= static_cast<double>(std::numeric_limits<std::size_t>::max())) {
    return InvalidArgumentError("PlanShardCount: too many shards");
  }
  return static_cast<std::size_t>(std::max(1.0, count));
}

}  // namespace scan::genomics
