#include "scan/genomics/fastq_stream.hpp"

#include "scan/common/str.hpp"

namespace scan::genomics {

bool FastqStream::Next(FastqView& record) {
  if (!status_.ok()) return false;
  // Reads one trimmed line; false once the text is used up.
  const auto next_line = [this](std::string_view& line) {
    if (pos_ >= text_.size()) return false;
    const std::size_t eol = text_.find('\n', pos_);
    const std::size_t end = eol == std::string_view::npos ? text_.size() : eol;
    line = TrimView(text_.substr(pos_, end - pos_));
    pos_ = end == text_.size() ? end : end + 1;
    ++line_number_;
    return true;
  };
  // The only place a message is built: when a record fails.
  const auto fail = [this](std::string_view what, std::size_t line) {
    status_ = ParseError("FASTQ: " + std::string(what) + " at line " +
                         std::to_string(line));
    return false;
  };

  std::string_view header;
  if (!next_line(header)) return false;  // clean end of input
  const std::size_t header_line = line_number_;
  if (header.empty()) {
    // Blank lines may only end the text.
    for (std::string_view rest; next_line(rest);) {
      if (!rest.empty()) {
        return fail("non-blank line after a blank line", line_number_);
      }
    }
    return false;
  }
  if (header.front() != '@') return fail("expected '@' header", header_line);
  std::string_view plus;
  if (!next_line(record.sequence) || !next_line(plus) ||
      !next_line(record.quality)) {
    return fail("record truncated", header_line);
  }
  if (plus.empty() || plus.front() != '+') {
    return fail("expected '+' separator", header_line);
  }
  if (!IsValidSequence(record.sequence)) {
    return fail("invalid sequence characters", header_line);
  }
  if (record.sequence.size() != record.quality.size()) {
    return fail("quality length mismatch", header_line);
  }
  if (header.size() == 1) return fail("empty read id", header_line);
  record.id = header.substr(1);
  ++records_read_;
  return true;
}

bool FastqStream::Next(FastqRecord& record) {
  FastqView view;
  if (!Next(view)) return false;
  record.id.assign(view.id);
  record.sequence.assign(view.sequence);
  record.quality.assign(view.quality);
  return true;
}

Status StreamShardFastq(
    std::string_view text, std::size_t records_per_shard,
    const std::function<bool(std::string_view, std::size_t)>& on_shard) {
  if (records_per_shard == 0) {
    return InvalidArgumentError("StreamShardFastq: zero records per shard");
  }
  FastqStream stream(text);
  FastqView record;
  std::size_t shard_start = 0;
  std::size_t in_shard = 0;
  for (std::size_t record_start = 0; stream.Next(record);
       record_start = stream.offset()) {
    if (in_shard == records_per_shard) {
      if (!on_shard(text.substr(shard_start, record_start - shard_start),
                    in_shard)) {
        return Status::Ok();  // consumer stopped early
      }
      shard_start = record_start;
      in_shard = 0;
    }
    ++in_shard;
  }
  SCAN_RETURN_IF_ERROR(stream.status());
  if (in_shard > 0) on_shard(text.substr(shard_start), in_shard);
  return Status::Ok();
}

}  // namespace scan::genomics
