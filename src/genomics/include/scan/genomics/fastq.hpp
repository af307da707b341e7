#pragma once

// FASTQ reading/writing. FASTQ is the Data Broker's primary shard target:
// the paper's example divides "a 100GB FASTQ file into 25 4GB files" to
// create 25 parallel analysis subtasks.
//
// One validating scanner, FastqStream (fastq_stream.hpp), sits under every
// FASTQ reader: ParseFastq, CountFastqRecords, StreamShardFastq, ShardFastq
// and ShardFastqParallel. So they all accept the same texts, count the same
// records and report the same located error. The acceptance rule:
//  - a record is four lines: "@id", sequence, "+" (optionally followed by
//    anything, e.g. the id again), quality;
//  - every line is trimmed of surrounding whitespace, so CRLF and padded
//    lines are accepted; the last line may lack its newline;
//  - the id is non-empty, the sequence is A/C/G/T/N only (it may be empty),
//    and the quality has the sequence's length;
//  - whitespace-only lines may follow the last record and may appear
//    nowhere else.
// Every ParseError names the line of the record at fault ("at line N").

#include <string>
#include <string_view>
#include <vector>

#include "scan/common/status.hpp"
#include "scan/genomics/records.hpp"

namespace scan::genomics {

/// One FASTQ record as views into the scanned text (trimmed, id without
/// the '@'); what FastqStream yields without copying.
struct FastqView {
  std::string_view id;
  std::string_view sequence;
  std::string_view quality;
};

/// Parses every record of `text` (see the acceptance rule above).
[[nodiscard]] Result<std::vector<FastqRecord>> ParseFastq(
    std::string_view text);

/// Appends one record in canonical 4-line form ("@id\nseq\n+\nqual\n").
/// The one FASTQ writer: WriteFastq and the sharders both use it.
void AppendFastq(std::string& out, const FastqView& record);

/// Serializes records in canonical 4-line form.
[[nodiscard]] std::string WriteFastq(const std::vector<FastqRecord>& records);

/// Byte size AppendFastq writes for one record (used by the sharder to hit
/// byte budgets without serializing twice).
[[nodiscard]] std::size_t FastqRecordBytes(const FastqView& record);
[[nodiscard]] std::size_t FastqRecordBytes(const FastqRecord& record);

/// Counts records without materializing them; validates every record,
/// so it accepts and rejects exactly what ParseFastq does.
[[nodiscard]] Result<std::size_t> CountFastqRecords(std::string_view text);

}  // namespace scan::genomics
