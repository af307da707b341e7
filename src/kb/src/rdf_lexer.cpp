#include "scan/kb/rdf_lexer.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>

#include "scan/common/str.hpp"

namespace scan::kb {

namespace {

constexpr std::size_t kNpos = std::string_view::npos;

struct Spelling {
  RdfTok kind;
  std::string_view text;
};

#define SCAN_RDF_SPELLING(kind, spelling) Spelling{RdfTok::kind, spelling},
constexpr Spelling kPunctuation[] = {SCAN_RDF_PUNCTUATION(SCAN_RDF_SPELLING)};
constexpr Spelling kKeywords[] = {SCAN_RDF_KEYWORDS(SCAN_RDF_SPELLING)};
constexpr Spelling kWords[] = {SCAN_RDF_WORDS(SCAN_RDF_SPELLING)};
#undef SCAN_RDF_SPELLING

#define SCAN_RDF_TEXT(kind, spelling) spelling,
constexpr std::string_view kSpellings[] = {
    SCAN_RDF_PUNCTUATION(SCAN_RDF_TEXT) SCAN_RDF_KEYWORDS(SCAN_RDF_TEXT)
        SCAN_RDF_WORDS(SCAN_RDF_TEXT)};
#undef SCAN_RDF_TEXT

bool IsDigit(char c) { return c >= '0' && c <= '9'; }

bool IsSpace(char c) {
  return std::isspace(static_cast<unsigned char>(c)) != 0;
}

bool IsWordStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// The characters of names: variables, labels, prefixes, local parts,
/// language tags and keywords.
bool IsNameChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_' ||
         c == '-';
}

/// The character the escape `\c` stands for, or '\0' if there is none.
char Unescaped(char c) {
  constexpr std::string_view kEscapes = "tnr\"'\\";
  constexpr std::string_view kMeanings = "\t\n\r\"'\\";
  const std::size_t at = kEscapes.find(c);
  return at == kNpos ? '\0' : kMeanings[at];
}

/// Whether `word` spells `keyword` (upper case) in any case.
bool SameLetters(std::string_view word, std::string_view keyword) {
  return std::equal(word.begin(), word.end(), keyword.begin(), keyword.end(),
                    [](char w, char k) {
                      return std::toupper(static_cast<unsigned char>(w)) == k;
                    });
}

/// `text` in single quotes for a message: non-printing bytes as \xHH, and
/// long texts cut short.
std::string Quoted(std::string_view text) {
  constexpr std::size_t kShown = 40;
  std::string out = "'";
  for (const char c : text.substr(0, kShown)) {
    if (std::isprint(static_cast<unsigned char>(c)) != 0) {
      out += c;
    } else {
      out += StrFormat("\\x%02x", static_cast<unsigned char>(c));
    }
  }
  if (text.size() > kShown) out += "...";
  return out + "'";
}

/// The offset just past the name that starts at `i` (maybe empty); with
/// `interior_dots`, a '.' followed by a name character continues it.
std::size_t NameEnd(std::string_view text, std::size_t i,
                    bool interior_dots) {
  for (; i < text.size(); ++i) {
    if (IsNameChar(text[i])) continue;
    if (!interior_dots || text[i] != '.' || i + 1 == text.size() ||
        !IsNameChar(text[i + 1])) {
      break;
    }
  }
  return i;
}

/// The end of the prefixed name starting at offset `i`, or npos.
std::size_t PrefixedNameEnd(std::string_view text, std::size_t i) {
  const std::size_t colon = NameEnd(text, i, /*interior_dots=*/true);
  return colon < text.size() && text[colon] == ':'
             ? NameEnd(text, colon + 1, /*interior_dots=*/true)
             : kNpos;
}

}  // namespace

std::span<const std::string_view> RdfTokenSpellings() { return kSpellings; }

void RdfLexer::MoveTo(std::size_t end) {
  for (; pos_ < end; ++pos_, ++column_) {
    if (text_[pos_] != '\n') continue;
    ++line_;
    column_ = 0;  // the loop's increment makes it 1
  }
}

void RdfLexer::SkipTrivia() {
  while (pos_ < text_.size()) {
    if (IsSpace(text_[pos_])) {
      MoveTo(pos_ + 1);
    } else if (text_[pos_] == '#') {
      MoveTo(std::min(text_.find('\n', pos_), text_.size()));
    } else {
      return;
    }
  }
}

std::size_t RdfLexer::IriEnd(std::size_t i) {
  // A failed scan from one '<' fails for every '<' before where it
  // stopped, so no byte is scanned twice.
  if (i < no_iri_before_) return kNpos;
  for (++i; i < text_.size(); ++i) {
    if (text_[i] == '>') return i;
    if (IsSpace(text_[i])) break;
  }
  no_iri_before_ = i;
  return kNpos;
}

RdfToken RdfLexer::Emit(RdfToken token, RdfTok kind, std::size_t begin,
                        std::size_t end, std::size_t next) {
  token.kind = kind;
  token.text = text_.substr(begin, end - begin);
  MoveTo(next);
  return token;
}

RdfToken RdfLexer::Fail(RdfToken token, std::string_view why) {
  token.kind = RdfTok::kError;
  token.error = why;
  return token;
}

RdfToken RdfLexer::Next() {
  SkipTrivia();
  RdfToken token;
  token.line = line_;
  token.column = column_;
  const std::size_t i = pos_;
  if (i >= text_.size()) return token;
  const char c = text_[i];

  if (c == '?' || c == '$') {
    const std::size_t end = NameEnd(text_, i + 1, /*interior_dots=*/false);
    if (end == i + 1) return Fail(token, "empty variable name");
    return Emit(token, RdfTok::kVariable, i + 1, end, end);
  }
  if (c == '<') {
    const std::size_t close = IriEnd(i);
    if (close != kNpos) {
      return Emit(token, RdfTok::kIri, i + 1, close, close + 1);
    }
  }
  if (c == '"' || c == '\'') return LexString(token);
  if (IsDigit(c) || ((c == '+' || c == '-') && IsDigit(At(i + 1)))) {
    return LexNumber(token);
  }
  if (c == '_' && At(i + 1) == ':') {
    const std::size_t end = NameEnd(text_, i + 2, /*interior_dots=*/false);
    if (end == i + 2) return Fail(token, "empty blank node label");
    return Emit(token, RdfTok::kBlank, i + 2, end, end);
  }
  if (IsWordStart(c) || c == ':' || c == '@') return LexWord(token);
  for (const Spelling& punct : kPunctuation) {
    if (text_.substr(i).starts_with(punct.text)) {
      return Emit(token, punct.kind, i, i + punct.text.size(),
                  i + punct.text.size());
    }
  }
  token.text = text_.substr(i, 1);
  return Fail(token, "unexpected character");
}

RdfToken RdfLexer::LexString(RdfToken token) {
  const char quote = text_[pos_];
  std::size_t i = pos_ + 1;
  for (; i < text_.size() && text_[i] != quote; ++i) {
    if (text_[i] != '\\') continue;
    if (i + 1 == text_.size()) break;
    if (Unescaped(text_[i + 1]) == '\0') return Fail(token, "unknown escape");
    ++i;
  }
  if (i >= text_.size()) return Fail(token, "unterminated string");
  const std::size_t body_end = i++;

  if (At(i) == '^' && At(i + 1) == '^') {
    const std::size_t from = i + 2;
    const bool bracketed = At(from) == '<';
    const std::size_t end =
        bracketed ? IriEnd(from) : PrefixedNameEnd(text_, from);
    if (end == kNpos) return Fail(token, "expected a datatype IRI after '^^'");
    i = bracketed ? end + 1 : end;
    token.datatype = text_.substr(from, i - from);
  } else if (At(i) == '@') {
    const std::size_t end = NameEnd(text_, i + 1, /*interior_dots=*/false);
    if (end == i + 1) return Fail(token, "empty language tag");
    i = end;
  }
  return Emit(token, RdfTok::kString, pos_ + 1, body_end, i);
}

RdfToken RdfLexer::LexNumber(RdfToken token) {
  const auto digits_end = [this](std::size_t i) {
    while (IsDigit(At(i))) ++i;
    return i;
  };
  std::size_t i = pos_;
  if (text_[i] == '+' || text_[i] == '-') ++i;
  i = digits_end(i);
  RdfTok kind = RdfTok::kInteger;
  if (At(i) == '.' && IsDigit(At(i + 1))) {
    i = digits_end(i + 1);
    kind = RdfTok::kDouble;
  }
  if (At(i) == 'e' || At(i) == 'E') {
    std::size_t exponent = i + 1;
    if (At(exponent) == '+' || At(exponent) == '-') ++exponent;
    if (!IsDigit(At(exponent))) return Fail(token, "exponent without digits");
    i = digits_end(exponent);
    kind = RdfTok::kDouble;
  }
  return Emit(token, kind, pos_, i, i);
}

RdfToken RdfLexer::LexWord(RdfToken token) {
  const std::size_t i = pos_;
  const bool directive = text_[i] == '@';
  // A name with interior dots that runs into ':' is a prefixed name. When
  // it does not, no name starting inside it does either, so it is
  // remembered rather than scanned again from each of its words.
  if (!directive && i >= no_prefix_before_) {
    const std::size_t colon = NameEnd(text_, i, /*interior_dots=*/true);
    if (At(colon) == ':') {
      const std::size_t end =
          NameEnd(text_, colon + 1, /*interior_dots=*/true);
      return Emit(token, RdfTok::kPrefixedName, i, end, end);
    }
    no_prefix_before_ = colon;
  }
  const std::size_t end =
      NameEnd(text_, directive ? i + 1 : i, /*interior_dots=*/false);
  const std::string_view word = text_.substr(i, end - i);
  for (const Spelling& exact : kWords) {
    if (word == exact.text) return Emit(token, exact.kind, i, end, end);
  }
  for (const Spelling& keyword : kKeywords) {
    if (SameLetters(word, keyword.text)) {
      return Emit(token, keyword.kind, i, end, end);
    }
  }
  token.text = word;
  return Fail(token, directive ? "unknown directive" : "unknown word");
}

Status RdfError(const RdfToken& at, std::string_view what) {
  std::string message(what);
  if (at.kind == RdfTok::kError) {
    message = at.error;
    if (!at.text.empty()) message += " " + Quoted(at.text);
  }
  return ParseError(message + " at line " + std::to_string(at.line) +
                    ", column " + std::to_string(at.column));
}

std::string DescribeToken(const RdfToken& token) {
  switch (token.kind) {
    case RdfTok::kEof: return "end of input";
    case RdfTok::kVariable: return Quoted("?" + std::string(token.text));
    case RdfTok::kIri: return Quoted("<" + std::string(token.text) + ">");
    case RdfTok::kBlank: return Quoted("_:" + std::string(token.text));
    case RdfTok::kString: return "string " + Quoted(token.text);
    default: return Quoted(token.text);
  }
}

void TermReader::Declare(std::string_view prefix, std::string_view iri) {
  prefixes_.insert_or_assign(std::string(prefix), std::string(iri));
}

Result<std::string> TermReader::Expand(const RdfToken& at,
                                       std::string_view name) const {
  const std::size_t colon = name.find(':');
  const std::string_view prefix = name.substr(0, colon);
  const auto it = prefixes_.find(prefix);
  if (it == prefixes_.end()) {
    return RdfError(at, "unknown prefix " + Quoted(prefix));
  }
  return it->second + std::string(name.substr(colon + 1));
}

Result<Term> TermReader::Read(const RdfToken& token, Slot slot) const {
  switch (token.kind) {
    case RdfTok::kIri:
      return MakeIri(std::string(token.text));
    case RdfTok::kPrefixedName: {
      auto iri = Expand(token, token.text);
      if (!iri.ok()) return iri.status();
      return MakeIri(std::move(iri.value()));
    }
    case RdfTok::kA:
      if (slot != Slot::kPredicate) {
        return RdfError(token, "'a' stands for rdf:type only as a predicate");
      }
      return MakeIri(std::string(kRdfType));
    case RdfTok::kBlank:
      if (slot == Slot::kPredicate) {
        return RdfError(token, "a blank node cannot be a predicate");
      }
      return MakeBlank(std::string(token.text));
    case RdfTok::kString:
    case RdfTok::kInteger:
    case RdfTok::kDouble:
    case RdfTok::kTrue:
    case RdfTok::kFalse:
      if (slot != Slot::kObject) {
        return RdfError(token, "a literal can only be an object");
      }
      return ReadLiteral(token);
    default:
      return RdfError(token, "expected a term, got " + DescribeToken(token));
  }
}

Result<Term> TermReader::ReadLiteral(const RdfToken& token) const {
  const std::string_view text = token.text;
  // ParseInt and ParseDouble take a '-' but no '+'.
  const std::string_view unsigned_text =
      text.substr(text.starts_with('+') ? 1 : 0);
  switch (token.kind) {
    case RdfTok::kInteger:
      if (!ParseInt(unsigned_text)) {
        return RdfError(token, "integer literal does not fit in 64 bits");
      }
      return Term{TermKind::kLiteral, std::string(text),
                  std::string(kXsdInteger)};
    case RdfTok::kDouble: {
      const auto value = ParseDouble(unsigned_text);
      if (!value || !std::isfinite(*value)) {
        return RdfError(token, "double literal out of range");
      }
      return Term{TermKind::kLiteral, std::string(text),
                  std::string(kXsdDouble)};
    }
    case RdfTok::kString: {
      std::string value;
      value.reserve(text.size());
      for (std::size_t i = 0; i < text.size(); ++i) {
        value += text[i] == '\\' ? Unescaped(text[++i]) : text[i];
      }
      if (token.datatype.empty()) return MakeStringLiteral(std::move(value));
      std::string datatype;
      if (token.datatype.front() == '<') {
        datatype = token.datatype.substr(1, token.datatype.size() - 2);
      } else {
        auto iri = Expand(token, token.datatype);
        if (!iri.ok()) return iri.status();
        datatype = std::move(iri.value());
      }
      return Term{TermKind::kLiteral, std::move(value), std::move(datatype)};
    }
    default:  // true, false
      return MakeStringLiteral(std::string(text));
  }
}

}  // namespace scan::kb
