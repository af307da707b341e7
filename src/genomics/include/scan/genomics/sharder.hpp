#pragma once

// Data Sharders (§III-A-1): "fragment various genomics data into suitable
// chunks" so one big analysis becomes many parallel subtasks, and merge
// small outputs back into one file.
//
// Sharding operates on serialized text (the unit the Data Broker moves
// around); each shard is itself a valid file of the same format:
//  - FASTQ shards are contiguous runs of whole records;
//  - SAM shards replicate the header and partition alignments by genomic
//    region, so region-scoped tools (variant callers) can run per shard;
//  - VCF merge is in vcf.hpp (MergeVcf).

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "scan/common/status.hpp"
#include "scan/concurrency/thread_pool.hpp"
#include "scan/genomics/records.hpp"

namespace scan::genomics {

/// Shard-size policy: stop a shard when either bound is reached
/// (0 = unbounded). At least one bound must be set.
struct ShardSpec {
  std::size_t max_records = 0;
  std::size_t max_bytes = 0;
};

/// Result of sharding: serialized shards plus bookkeeping for the broker.
struct ShardSet {
  std::vector<std::string> shards;
  std::size_t total_records = 0;

  [[nodiscard]] std::size_t count() const { return shards.size(); }
  [[nodiscard]] std::size_t total_bytes() const {
    std::size_t n = 0;
    for (const auto& s : shards) n += s.size();
    return n;
  }
};

/// Splits FASTQ text into shards of whole records per `spec` in one pass of
/// the FASTQ scanner (FastqStream), which validates every record; the
/// boundaries come from the canonical record sizes (FastqRecordBytes), and
/// each shard is written once, in canonical form (AppendFastq), into its own
/// string. Nothing is allocated per record. A record larger than max_bytes
/// still goes into its own shard (no record is ever split).
/// InvalidArgument if both bounds are 0; ParseError (see fastq.hpp) on
/// malformed input.
[[nodiscard]] Result<ShardSet> ShardFastq(std::string_view text,
                                          const ShardSpec& spec);

/// Same scan and writer, but writes the shards in parallel on the pool.
/// The shard boundaries (and therefore the output) are identical to
/// ShardFastq.
[[nodiscard]] Result<ShardSet> ShardFastqParallel(std::string_view text,
                                                  const ShardSpec& spec,
                                                  ThreadPool& pool);

/// Concatenates FASTQ shards back into one file; the inverse of ShardFastq
/// for shards produced in order.
[[nodiscard]] std::string MergeFastq(const std::vector<std::string>& shards);

/// Splits SAM text by genomic region: each shard covers `region_size`
/// consecutive reference positions of one reference and replicates the full
/// header. Unmapped reads (rname "*") go into a final catch-all shard.
/// Empty regions produce no shard.
[[nodiscard]] Result<ShardSet> ShardSamByRegion(std::string_view text,
                                                std::int64_t region_size);

/// Computes how many shards a file of `total_size_gb` needs at the advised
/// shard size — the broker's "divide a 100GB FASTQ file into 25 4GB files"
/// arithmetic. Result is at least 1; InvalidArgument on non-positive or
/// non-finite sizes and on a count a size_t cannot hold.
[[nodiscard]] Result<std::size_t> PlanShardCount(double total_size_gb,
                                                 double shard_size_gb);

}  // namespace scan::genomics
