#pragma once

// Turtle-subset reader/writer for the knowledge base.
//
// The paper authored its ontology in RDF/OWL (Protégé + Jena). We persist
// and exchange knowledge in a pragmatic Turtle subset covering what the
// SCAN ontology needs:
//   @prefix lines, `a` for rdf:type, prefixed and full IRIs, blank nodes,
//   plain/typed string literals, integer and double literals, `true` and
//   `false`, the `;` and `,` predicate/object list shorthands, and `#`
//   comments.
//
// Terms follow the one rule of the shared RDF lexer (rdf_lexer.hpp): a
// spelling means the same Term here as in SPARQL; variables are SPARQL
// only. Every ParseError ends in "at line L, column C", naming the first
// character of the offending token.

#include <string>
#include <string_view>

#include "scan/common/status.hpp"
#include "scan/kb/rdf_lexer.hpp"
#include "scan/kb/triple_store.hpp"

namespace scan::kb {

/// Parses Turtle text, adding all triples to `store`. On error, nothing is
/// rolled back (the store may hold triples parsed before the error) and the
/// Status is a located ParseError.
[[nodiscard]] Status ParseTurtle(std::string_view text, TripleStore& store);

/// Serializes the entire store as Turtle. Prefixes are applied greedily:
/// an IRI beginning with a registered prefix expansion is shortened when
/// the prefixed name reads back as that IRI.
/// The output groups triples by subject, predicates separated by `;`.
/// A store that ParseTurtle filled serializes to text that parses back to
/// the same triples.
class TurtleWriter {
 public:
  /// Registers `prefix:` -> expansion for compact output.
  void AddPrefix(std::string prefix, std::string expansion);

  [[nodiscard]] std::string Serialize(const TripleStore& store) const;

 private:
  [[nodiscard]] std::string RenderIri(const std::string& iri) const;
  [[nodiscard]] std::string RenderTerm(const Term& term) const;

  std::vector<std::pair<std::string, std::string>> prefixes_;
  /// Reads back what the writer spells: a prefixed name or a bare number
  /// is written only when it reads back as the same term.
  TermReader reader_;
};

}  // namespace scan::kb
