#include "scan/testkit/mutate.hpp"

namespace scan::testkit {

void Mutate(std::string& text, Pcg32& rng, std::span<const char> bytes,
            std::span<const std::string_view> tokens) {
  const auto at = [&](std::size_t bound) {
    return static_cast<std::size_t>(
        rng.UniformBelow(static_cast<std::uint32_t>(bound)));
  };
  std::size_t pos = at(text.size() + 1);
  if (rng.UniformBelow(2) == 0) {
    const std::size_t eol = text.find('\n', pos);
    pos = eol == std::string::npos ? text.size() : eol + 1;
  }
  switch (rng.UniformBelow(4)) {
    case 0:  // flip
      if (pos < text.size()) text[pos] = bytes[at(bytes.size())];
      break;
    case 1:  // truncate
      text.resize(pos);
      break;
    case 2:  // insert a byte or a token
      if (rng.UniformBelow(2) == 0) {
        text.insert(pos, 1, bytes[at(bytes.size())]);
      } else {
        text.insert(pos, tokens[at(tokens.size())]);
      }
      break;
    default:  // delete a short run
      if (pos < text.size()) text.erase(pos, 1 + at(8));
      break;
  }
}

}  // namespace scan::testkit
