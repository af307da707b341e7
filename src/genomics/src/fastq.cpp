#include "scan/genomics/fastq.hpp"

#include "scan/genomics/fastq_stream.hpp"

namespace scan::genomics {

Result<std::vector<FastqRecord>> ParseFastq(std::string_view text) {
  std::vector<FastqRecord> records;
  FastqStream stream(text);
  for (FastqView view; stream.Next(view);) {
    records.push_back({std::string(view.id), std::string(view.sequence),
                       std::string(view.quality)});
  }
  if (!stream.status().ok()) return stream.status();
  return records;
}

void AppendFastq(std::string& out, const FastqView& record) {
  out += '@';
  out += record.id;
  out += '\n';
  out += record.sequence;
  out += "\n+\n";
  out += record.quality;
  out += '\n';
}

std::string WriteFastq(const std::vector<FastqRecord>& records) {
  std::string out;
  std::size_t total = 0;
  for (const FastqRecord& r : records) total += FastqRecordBytes(r);
  out.reserve(total);
  for (const FastqRecord& r : records) {
    AppendFastq(out, {r.id, r.sequence, r.quality});
  }
  return out;
}

std::size_t FastqRecordBytes(const FastqView& record) {
  // "@id\n" + "seq\n" + "+\n" + "qual\n"
  return 1 + record.id.size() + 1 + record.sequence.size() + 1 + 2 +
         record.quality.size() + 1;
}

std::size_t FastqRecordBytes(const FastqRecord& record) {
  return FastqRecordBytes(
      FastqView{record.id, record.sequence, record.quality});
}

Result<std::size_t> CountFastqRecords(std::string_view text) {
  FastqStream stream(text);
  for (FastqView record; stream.Next(record);) {
  }
  if (!stream.status().ok()) return stream.status();
  return stream.records_read();
}

}  // namespace scan::genomics
