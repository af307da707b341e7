#include "scan/kb/term.hpp"

#include <cassert>
#include <cctype>
#include <cstdio>
#include <string_view>

#include "scan/common/rng.hpp"  // Fnv1a64
#include "scan/common/str.hpp"

namespace scan::kb {

Term MakeIri(std::string iri) {
  return Term{TermKind::kIri, std::move(iri), ""};
}

Term MakeStringLiteral(std::string value) {
  return Term{TermKind::kLiteral, std::move(value), ""};
}

Term MakeIntLiteral(long long value) {
  return Term{TermKind::kLiteral, std::to_string(value),
              std::string(kXsdInteger)};
}

Term MakeDoubleLiteral(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  std::string lexical = buf;
  // Keep the lexical form unambiguously a double ("10" -> "10.0") so
  // Turtle round trips preserve the datatype.
  if (lexical.find_first_of(".eE") == std::string::npos &&
      lexical.find_first_not_of("-0123456789") == std::string::npos) {
    lexical += ".0";
  }
  return Term{TermKind::kLiteral, std::move(lexical), std::string(kXsdDouble)};
}

Term MakeBlank(std::string label) {
  return Term{TermKind::kBlank, std::move(label), ""};
}

std::optional<double> NumericValue(const Term& term) {
  if (term.kind != TermKind::kLiteral) return std::nullopt;
  // Numeric when explicitly typed, or when an untyped literal parses
  // cleanly as a number (the paper's RDF snippets use untyped numbers,
  // e.g. <scan-ontology:eTime>180</...>). SPARQL and Turtle both spell a
  // sign as '+' or '-', but ParseDouble (shared with the trace and VCF
  // readers) takes only '-', so one '+' that starts a number is dropped
  // here; "+", "++5", "+-5" and "+ 5" stay non-numeric.
  std::string_view text = term.lexical;
  if (text.size() > 1 && text[0] == '+' &&
      (std::isalnum(static_cast<unsigned char>(text[1])) || text[1] == '.')) {
    text.remove_prefix(1);
  }
  return ParseDouble(text);
}

std::string ToString(const Term& term) {
  switch (term.kind) {
    case TermKind::kIri:
      return "<" + term.lexical + ">";
    case TermKind::kBlank:
      return "_:" + term.lexical;
    case TermKind::kLiteral: {
      std::string out = "\"";
      for (const char c : term.lexical) {
        if (c == '"' || c == '\\') out += '\\';
        out += c;
      }
      out += '"';
      if (!term.datatype.empty()) {
        out += "^^<" + term.datatype + ">";
      }
      return out;
    }
  }
  return "?";
}

std::size_t TermTable::TermHash::operator()(const Term& t) const {
  const std::uint64_t h1 = Fnv1a64(t.lexical);
  const std::uint64_t h2 = Fnv1a64(t.datatype);
  return static_cast<std::size_t>(
      MixSeed(h1, h2 ^ static_cast<std::uint64_t>(t.kind)));
}

TermTable::TermTable() {
  terms_.emplace_back();  // sentinel for kInvalidTermId
}

TermId TermTable::Intern(const Term& term) {
  const auto it = ids_.find(term);
  if (it != ids_.end()) return TermId{it->second};
  const auto id = static_cast<std::uint32_t>(terms_.size());
  terms_.push_back(term);
  ids_.emplace(term, id);
  return TermId{id};
}

std::optional<TermId> TermTable::Lookup(const Term& term) const {
  const auto it = ids_.find(term);
  if (it == ids_.end()) return std::nullopt;
  return TermId{it->second};
}

const Term& TermTable::Get(TermId id) const {
  assert(Index(id) != 0 && Index(id) < terms_.size());
  return terms_[Index(id)];
}

}  // namespace scan::kb
