#include "scan/genomics/records.hpp"

#include <array>

#include "scan/common/str.hpp"

namespace scan::genomics {

bool IsValidSequence(std::string_view seq) {
  // A table lookup, no branch per base: the FASTQ scanner checks every read.
  static constexpr auto kValid = [] {
    std::array<bool, 256> valid{};
    for (const unsigned char c : std::string_view("ACGTN")) valid[c] = true;
    return valid;
  }();
  bool ok = true;
  for (const unsigned char c : seq) ok &= kValid[c];
  return ok;
}

std::vector<std::string> SamHeader::ReferenceNames() const {
  std::vector<std::string> names;
  for (const std::string& line : lines) {
    if (!StartsWith(line, "@SQ")) continue;
    for (const auto field : SplitView(line, '\t')) {
      if (StartsWith(field, "SN:")) {
        names.emplace_back(field.substr(3));
      }
    }
  }
  return names;
}

std::int64_t SamHeader::ReferenceLength(std::string_view name) const {
  for (const std::string& line : lines) {
    if (!StartsWith(line, "@SQ")) continue;
    bool matches = false;
    std::int64_t length = -1;
    for (const auto field : SplitView(line, '\t')) {
      if (StartsWith(field, "SN:") && field.substr(3) == name) matches = true;
      if (StartsWith(field, "LN:")) {
        if (const auto v = ParseInt(field.substr(3))) length = *v;
      }
    }
    if (matches) return length;
  }
  return -1;
}

bool SamCoordinateLess(const SamRecord& a, const SamRecord& b) {
  if (a.rname != b.rname) return a.rname < b.rname;
  return a.pos < b.pos;
}

bool VcfCoordinateLess(const VcfRecord& a, const VcfRecord& b) {
  if (a.chrom != b.chrom) return a.chrom < b.chrom;
  return a.pos < b.pos;
}

}  // namespace scan::genomics
