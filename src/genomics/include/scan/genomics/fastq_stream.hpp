#pragma once

// Streaming FASTQ access.
//
// The paper's inputs run to hundreds of gigabytes; materializing a whole
// read set (ParseFastq) is fine for shards but not for the original file.
// FastqStream yields one validated record at a time over a byte view, and
// StreamShardFastq splits a payload into shards in a single bounded-memory
// pass (same boundaries as genomics::ShardFastq for the record-count
// policy, produced without building the record vector). FastqStream is the
// one FASTQ scanner: every FASTQ reader runs on it and follows the
// acceptance rule in fastq.hpp, so a blank line between records is an error.

#include <functional>
#include <string_view>

#include "scan/common/status.hpp"
#include "scan/genomics/fastq.hpp"

namespace scan::genomics {

/// Pull-based reader over FASTQ text. Typical loop:
///
///   FastqStream stream(text);
///   FastqView record;             // or FastqRecord, to copy each record
///   while (stream.Next(record)) { ... }
///   if (!stream.status().ok()) { ... }   // malformed input
class FastqStream {
 public:
  explicit FastqStream(std::string_view text) : text_(text) {}

  /// Advances to the next record, as views into the text (no allocation).
  /// Returns false at end-of-input or on a parse error (check status()); a
  /// failed stream stays failed. The record is only valid when true is
  /// returned.
  bool Next(FastqView& record);

  /// Same, copying the fields into `record`.
  bool Next(FastqRecord& record);

  /// OK while records keep flowing and the input ends cleanly.
  [[nodiscard]] const Status& status() const { return status_; }

  /// Records yielded so far.
  [[nodiscard]] std::size_t records_read() const { return records_read_; }

  /// Byte offset of the next unread character (shard boundary support:
  /// offsets always fall between whole records).
  [[nodiscard]] std::size_t offset() const { return pos_; }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t line_number_ = 0;
  std::size_t records_read_ = 0;
  Status status_;
};

/// Streams `text` once, emitting a shard (substring view of the input —
/// zero-copy) every `records_per_shard` records; the final partial shard
/// is emitted too and runs to the end of the text, so the shards of a
/// successful scan concatenate back to the input (a text without records
/// emits none). A shard is handed over once the record after it has
/// parsed or the text has ended cleanly. The callback returning false
/// stops the scan early. ParseError on malformed input.
[[nodiscard]] Status StreamShardFastq(
    std::string_view text, std::size_t records_per_shard,
    const std::function<bool(std::string_view shard,
                             std::size_t record_count)>& on_shard);

}  // namespace scan::genomics
