#include "scan/kb/turtle.hpp"

#include <sstream>

#include "scan/common/str.hpp"
#include "scan/kb/rdf_lexer.hpp"

namespace scan::kb {

namespace {

using Slot = TermReader::Slot;

/// Statement-at-a-time parser over the shared RDF lexer.
class TurtleParser : RdfCursor {
 public:
  TurtleParser(std::string_view text, TripleStore& store)
      : RdfCursor(text), store_(store) {}

  Status Run() {
    while (!Is(RdfTok::kEof)) {
      SCAN_RETURN_IF_ERROR(Is(RdfTok::kAtPrefix) ? ParsePrefixDirective()
                                                 : ParseStatement());
    }
    return Status::Ok();
  }

 private:
  /// `@prefix pfx: <iri> .` with `@prefix` current.
  Status ParsePrefixDirective() {
    Next();
    const std::string_view name = tok().text;
    if (!Is(RdfTok::kPrefixedName) || name.back() != ':') {
      return Err("expected 'prefix:' after @prefix");
    }
    Next();
    if (!Is(RdfTok::kIri)) return Err("expected IRI in @prefix");
    reader_.Declare(name.substr(0, name.size() - 1), tok().text);
    Next();
    if (!Accept(RdfTok::kDot)) return Err("expected '.' after @prefix");
    return Status::Ok();
  }

  /// Subject, then predicate-object lists with the `;` and `,`
  /// shorthands, then `.`.
  Status ParseStatement() {
    auto subject = Read(Slot::kSubject);
    if (!subject.ok()) return subject.status();
    for (;;) {
      auto predicate = Read(Slot::kPredicate);
      if (!predicate.ok()) return predicate.status();
      do {
        auto object = Read(Slot::kObject);
        if (!object.ok()) return object.status();
        store_.Add(subject.value(), predicate.value(), object.value());
      } while (Accept(RdfTok::kComma));
      if (!Accept(RdfTok::kSemicolon)) break;
      // Tolerate trailing `;` before `.` (common Turtle style).
      if (Is(RdfTok::kDot)) break;
    }
    if (!Accept(RdfTok::kDot)) return Err("expected '.' ending statement");
    return Status::Ok();
  }

  Result<Term> Read(Slot slot) {
    auto term = reader_.Read(tok(), slot);
    if (term.ok()) Next();
    return term;
  }

  TermReader reader_;
  TripleStore& store_;
};

/// Whether `spelling` is one token that `reader` reads back as `term`.
bool ReadsBack(std::string_view spelling, const Term& term,
               const TermReader& reader) {
  RdfLexer lexer(spelling);
  const auto read = reader.Read(lexer.Next(), Slot::kObject);
  return read.ok() && read.value() == term &&
         lexer.Next().kind == RdfTok::kEof;
}

}  // namespace

Status ParseTurtle(std::string_view text, TripleStore& store) {
  return TurtleParser(text, store).Run();
}

void TurtleWriter::AddPrefix(std::string prefix, std::string expansion) {
  reader_.Declare(prefix, expansion);
  prefixes_.emplace_back(std::move(prefix), std::move(expansion));
}

std::string TurtleWriter::RenderIri(const std::string& iri) const {
  for (const auto& [prefix, expansion] : prefixes_) {
    if (!StartsWith(iri, expansion)) continue;
    std::string name = prefix + ":" + iri.substr(expansion.size());
    if (ReadsBack(name, MakeIri(iri), reader_)) return name;
  }
  return "<" + iri + ">";
}

std::string TurtleWriter::RenderTerm(const Term& term) const {
  switch (term.kind) {
    case TermKind::kIri:
      return RenderIri(term.lexical);
    case TermKind::kBlank:
      return "_:" + term.lexical;
    case TermKind::kLiteral: {
      // A typed literal goes bare when it reads back as the same term (a
      // number in range); an integral double ("7") keeps its quotes and tag.
      if (!term.datatype.empty() && ReadsBack(term.lexical, term, reader_)) {
        return term.lexical;
      }
      std::string out = "\"";
      for (const char c : term.lexical) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          default: out += c;
        }
      }
      out += '"';
      if (!term.datatype.empty()) out += "^^" + RenderIri(term.datatype);
      return out;
    }
  }
  return "?";
}

std::string TurtleWriter::Serialize(const TripleStore& store) const {
  std::ostringstream os;
  for (const auto& [prefix, expansion] : prefixes_) {
    os << "@prefix " << prefix << ": <" << expansion << "> .\n";
  }
  if (!prefixes_.empty()) os << "\n";

  // Group by subject; rely on MatchAll's deterministic subject order.
  const auto triples = store.MatchAll({});
  std::optional<TermId> current_subject;
  bool first_pred = true;
  for (const Triple& t : triples) {
    if (!current_subject || !(*current_subject == t.s)) {
      if (current_subject) os << " .\n";
      current_subject = t.s;
      os << RenderTerm(store.terms().Get(t.s)) << " ";
      first_pred = true;
    }
    if (!first_pred) os << " ;\n    ";
    first_pred = false;
    const Term& predicate = store.terms().Get(t.p);
    const bool is_type =
        predicate.kind == TermKind::kIri && predicate.lexical == kRdfType;
    os << (is_type ? "a" : RenderTerm(predicate)) << " "
       << RenderTerm(store.terms().Get(t.o));
  }
  if (current_subject) os << " .\n";
  return os.str();
}

}  // namespace scan::kb
