#pragma once

// The fuzz contract every parser test shares for a rejected input: the
// status is a ParseError whose message ends in "at line L, column C"
// (1-based, columns count bytes) inside the input or just past its end.

#include <gtest/gtest.h>

#include <charconv>
#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "scan/common/status.hpp"

namespace scan {

inline testing::AssertionResult LocatedInside(std::string_view text,
                                              const Status& status) {
  if (status.code() != ErrorCode::kParseError) {
    return testing::AssertionFailure() << status.ToString();
  }
  const std::string& message = status.message();
  const std::size_t at = message.rfind(" at line ");
  std::size_t line = 0;
  std::size_t column = 0;
  const char* end = message.data() + message.size();
  if (at != std::string::npos) {
    const char* p = message.data() + at + 9;
    const auto parsed_line = std::from_chars(p, end, line);
    p = parsed_line.ptr;
    if (std::string_view(p, static_cast<std::size_t>(end - p))
            .starts_with(", column ")) {
      p += 9;
      if (std::from_chars(p, end, column).ptr != end) column = 0;
    }
  }
  std::vector<std::size_t> line_lengths = {0};
  for (const char c : text) {
    if (c == '\n') {
      line_lengths.push_back(0);
    } else {
      ++line_lengths.back();
    }
  }
  if (line == 0 || line > line_lengths.size() || column == 0 ||
      column > line_lengths[line - 1] + 1) {
    return testing::AssertionFailure() << "not located inside the input ("
                                       << line_lengths.size()
                                       << " lines): " << message;
  }
  return testing::AssertionSuccess();
}

}  // namespace scan
