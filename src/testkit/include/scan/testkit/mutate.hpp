#pragma once

// Seeded mutation of parser inputs: the edit step of the testkit's
// dictionary fuzzer. A test starts from a valid corpus text, applies a few
// seeded edits, and checks its parser's contract on the result. The
// dictionaries carry what the parser gives meaning to (bytes such as
// delimiters, tokens such as keywords), so the edits reach past the
// first lexical check instead of producing only garbage.

#include <span>
#include <string>
#include <string_view>

#include "scan/common/rng.hpp"

namespace scan::testkit {

/// One seeded edit of `text`: a byte flip, a truncation, an insertion of a
/// byte or a token, or the deletion of a run of up to 8 bytes. Half the
/// edits land at the start of a line, where they more often keep the text
/// valid. Bytes and tokens are drawn from the two dictionaries, which must
/// not be empty. The draws depend only on `rng`, the text's length and
/// line breaks, and the dictionary sizes.
void Mutate(std::string& text, Pcg32& rng, std::span<const char> bytes,
            std::span<const std::string_view> tokens);

}  // namespace scan::testkit
