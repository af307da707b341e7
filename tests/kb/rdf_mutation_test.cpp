// Dictionary fuzzing of the two RDF parsers. Seeded edits of a SPARQL
// corpus and a Turtle corpus, drawn from the shared lexer's token table,
// must each parse or fail with a ParseError located inside the input; an
// accepted document must survive a write and a re-read, and an accepted
// query must answer the same over the staging store and a frozen snapshot.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <string_view>
#include <vector>

#include "scan/common/rng.hpp"
#include "scan/kb/frozen_index.hpp"
#include "scan/kb/knowledge_base.hpp"
#include "scan/kb/ontology.hpp"
#include "scan/kb/rdf_lexer.hpp"
#include "scan/kb/sparql.hpp"
#include "scan/kb/turtle.hpp"
#include "scan/testkit/kb_oracle.hpp"
#include "scan/testkit/mutate.hpp"
#include "located_error.hpp"

namespace scan::kb {
namespace {

constexpr int kMutations = 10'000;

// Bytes the RDF lexer gives meaning to; the tokens are its table.
constexpr char kRdfBytes[] = {'<', '>', '"', '\'', '\\', ':', '?', '$', '_',
                              '.', ';', ',', '(',  ')',  '{', '}', '#', '@',
                              '^', '!', '=', '&',  '|',  '*', '+', '-', ' ',
                              '\n', '\t', 'a', 'e', '0', '9', '\0'};

std::vector<std::string> Mutations(const std::vector<std::string>& corpus,
                                   std::string_view stream) {
  Pcg32 rng(2015, Fnv1a64(stream));
  std::vector<std::string> inputs = corpus;
  for (int i = 0; i < kMutations; ++i) {
    std::string text = corpus[static_cast<std::size_t>(i) % corpus.size()];
    const std::uint32_t edits = 1 + rng.UniformBelow(2);
    for (std::uint32_t e = 0; e < edits; ++e) {
      testkit::Mutate(text, rng, kRdfBytes, RdfTokenSpellings());
    }
    inputs.push_back(std::move(text));
  }
  return inputs;
}

/// A few dozen triples in the shape of the broker's profiles.
std::string FixtureTurtle() {
  return "@prefix scan: <" + std::string(vocab::kScanNs) +
         "> .\n"
         "scan:GATK1 a scan:Application ; scan:application \"GATK\" ;\n"
         "  scan:inputFileSize 10.0 ; scan:eTime 180.0 ; scan:CPU 8 ;\n"
         "  scan:RAM 4.0 ; scan:threads 2 .\n"
         "scan:GATK2 a scan:Application ; scan:application \"GATK\" ;\n"
         "  scan:inputFileSize 5.0 ; scan:eTime 200.0 ; scan:CPU 8 ;\n"
         "  scan:threads 4 .\n"
         "scan:GATK3 a scan:Application ; scan:application \"GATK\" ;\n"
         "  scan:inputFileSize 20.0 ; scan:eTime 280.0 ; scan:CPU 4 ;\n"
         "  scan:RAM 8.0 ; scan:threads 1 .\n"
         "scan:BWA1 a scan:Application ; scan:application \"BWA\" ;\n"
         "  scan:inputFileSize 12.0 ; scan:eTime 90.0 ; scan:stage \"align\" "
         ".\n";
}

/// The queries of the kb tests, in their shapes, plus the oracle's advice.
std::vector<std::string> SparqlCorpus() {
  const std::string prefixes = KnowledgeBase::QueryPrefixes();
  std::vector<std::string> corpus;
  for (const char* body : {
           "SELECT ?app WHERE { ?app a scan:Application . }",
           "SELECT ?app ?size WHERE { ?app a scan:Application . "
           "?app scan:inputFileSize ?size . }",
           "SELECT ?app WHERE { ?app scan:inputFileSize ?s . FILTER(?s >= 10) "
           "}",
           "SELECT ?app WHERE { ?app scan:inputFileSize ?s . ?app scan:eTime "
           "?t . FILTER(?s >= 5 && ?t < 250) }",
           "SELECT ?app WHERE { ?app scan:eTime ?t . "
           "FILTER(?t = 90 || !(?t = 280)) }",
           "SELECT ?i WHERE { ?i scan:application ?p . FILTER(?p = \"GATK\") }",
           "SELECT ?app ?ram WHERE { ?app a scan:Application . "
           "OPTIONAL { ?app scan:RAM ?ram . } FILTER(!BOUND(?ram)) }",
           "SELECT ?app ?t WHERE { ?app scan:eTime ?t . } "
           "ORDER BY ASC(?t) DESC(?app) LIMIT 2 OFFSET 1",
           "SELECT DISTINCT ?cpu WHERE { ?app scan:CPU ?cpu . }",
           "SELECT * WHERE { ?app scan:inputFileSize ?size . }",
           "SELECT ?app FROM <scan-wxing.owl> WHERE { ?app a scan:Application "
           "; scan:inputFileSize 10.0 . }",
           "SELECT ?a (COUNT(*) AS ?n) (AVG(?t) AS ?mean) (MIN(?t) AS ?lo) "
           "(MAX(?t) AS ?hi) (SUM(?t) AS ?sum) WHERE { ?i scan:application ?a "
           ". ?i scan:eTime ?t . } GROUP BY ?a ORDER BY ?a",
           "SELECT (COUNT(?r) AS ?n) WHERE { ?i scan:eTime ?t . "
           "OPTIONAL { ?i scan:RAM ?r } }",
           "SELECT ?i WHERE { { ?i scan:application \"GATK\" . ?i "
           "scan:threads ?t . FILTER(?t >= 2) } UNION { ?i scan:application "
           "\"BWA\" . } }",
           "SELECT ?a ?b WHERE { ?a scan:CPU ?c . ?b scan:CPU ?c . }",
           "SELECT ?x WHERE { ?x scan:stage 'align' , \"align\" . }",
           "SELECT ?ind ?etime WHERE { ?ind scan:eTime ?etime . ?ind "
           "scan:threads ?t . FILTER(?t < 3) } ORDER BY ASC(?etime) ASC(?ind) "
           "LIMIT 20",
           "SELECT $x ?o WHERE { $x ?p ?o . FILTER(?p != rdfs:label && "
           "?o <= 300 && ?o > -7.5e1) }",
           "# the paper's query shape\n"
           "SELECT ?ind ?size ?etime\n"
           "WHERE {\n"
           "  ?ind a scan:Application ;\n"
           "       scan:inputFileSize ?size ;\n"
           "       scan:eTime ?etime .\n"
           "}\n"
           "ORDER BY ASC(?etime)\n",
       }) {
    corpus.push_back(prefixes + body);
  }
  corpus.push_back(testkit::OracleAdviceQuery("GATK", 1.0, 15.0));
  return corpus;
}

/// The ontology, some profiles, and every kind of term, written as Turtle.
std::string TurtleCorpusDocument(const TurtleWriter& writer) {
  KnowledgeBase kb;
  for (int i = 1; i <= 3; ++i) {
    ApplicationProfile profile;
    profile.application = i == 3 ? "BWA" : "GATK";
    profile.stage = i;
    profile.input_file_size_gb = 2.5 * i;
    profile.cpu = 4 * i;
    profile.ram_gb = i == 2 ? 0.0 : 8.0;
    profile.etime = 100.0 + 17.25 * i;
    profile.threads = i;
    profile.performance = i == 1 ? "good" : "";
    kb.AddProfile(profile);
  }
  TripleStore& store = kb.mutable_store();
  const auto ex = [](std::string local) {
    return MakeIri("http://example.org/" + std::move(local));
  };
  const Term kinds = ex("kinds");
  store.Add(kinds, ex("blank"), MakeBlank("b1"));
  store.Add(MakeBlank("b1"), ex("next"), MakeBlank("b2"));
  store.Add(kinds, ex("int"), MakeIntLiteral(-42));
  store.Add(kinds, ex("signed"), Term{TermKind::kLiteral, "+5",
                                     std::string(kXsdInteger)});
  store.Add(kinds, ex("huge"), Term{TermKind::kLiteral, "99999999999999999999",
                                    std::string(kXsdInteger)});
  store.Add(kinds, ex("double"), MakeDoubleLiteral(2.5e-3));
  store.Add(kinds, ex("integral"), MakeDoubleLiteral(10.0));
  store.Add(kinds, ex("bare"), Term{TermKind::kLiteral, "7",
                                    std::string(kXsdDouble)});
  store.Add(kinds, ex("string"),
            MakeStringLiteral("quote \" backslash \\ nl \n tab \t cr \r"));
  store.Add(kinds, ex("empty"), MakeStringLiteral(""));
  store.Add(kinds, ex("bool"), MakeStringLiteral("true"));
  store.Add(kinds, ex("typed"),
            Term{TermKind::kLiteral, "x", "http://example.org/dt"});
  store.Add(kinds, ex("foreign"),
            Term{TermKind::kLiteral, "y", "http://other.org/dt"});
  store.Add(kinds, ex("xsdString"),
            Term{TermKind::kLiteral, "z", std::string(kXsdString)});
  store.Add(kinds, ex("iri"), MakeIri("http://other.org/path#frag"));
  store.Add(kinds, ex("dotted"), ex("a.b"));
  store.Add(kinds, ex("meta"), MakeIri(std::string(kRdfType)));
  return writer.Serialize(store);
}

/// Every triple of `store` as one sortable line.
std::vector<std::string> TripleSet(const TripleStore& store) {
  std::vector<std::string> lines;
  for (const Triple& t : store.MatchAll({})) {
    lines.push_back(ToString(store.terms().Get(t.s)) + " " +
                    ToString(store.terms().Get(t.p)) + " " +
                    ToString(store.terms().Get(t.o)));
  }
  std::sort(lines.begin(), lines.end());
  return lines;
}

TEST(RdfMutationTest, SparqlParsesOrFailsLocatedAndAnswersAlikeOnBothBackends) {
  TripleStore store;
  ASSERT_TRUE(ParseTurtle(FixtureTurtle(), store).ok());
  ASSERT_GT(store.size(), 24u);
  const FrozenIndex frozen = FrozenIndex::Freeze(store);
  const QueryEngine over_store(store);
  const QueryEngine over_frozen(frozen, store.terms());

  const std::vector<std::string> corpus = SparqlCorpus();
  for (const std::string& text : corpus) {
    const auto rs = over_store.Execute(text);
    ASSERT_TRUE(rs.ok()) << rs.status().ToString() << "\n" << text;
    EXPECT_FALSE(rs->rows.empty()) << text;
  }
  const std::vector<std::string> inputs =
      Mutations(corpus, "sparql-mutations");
  std::size_t accepted = 0;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const std::string& text = inputs[i];
    SCOPED_TRACE("input " + std::to_string(i) + ":\n" + text);
    const auto query = ParseSparql(text);
    if (!query.ok()) {
      ASSERT_TRUE(LocatedInside(text, query.status()));
      continue;
    }
    ++accepted;
    const auto a = over_store.Execute(query.value());
    const auto b = over_frozen.Execute(query.value());
    ASSERT_EQ(a.ok(), b.ok());
    if (a.ok()) {
      EXPECT_EQ(a->ToString(), b->ToString());
    } else {
      EXPECT_EQ(a.status().message(), b.status().message());
    }
  }
  // Both outcomes are well represented, so neither side is vacuous.
  EXPECT_GT(accepted, inputs.size() / 10);
  EXPECT_LT(accepted, inputs.size() * 9 / 10);
}

TEST(RdfMutationTest, TurtleParsesOrFailsLocatedAndRoundTrips) {
  TurtleWriter writer;
  writer.AddPrefix("scan", std::string(vocab::kScanNs));
  writer.AddPrefix("owl", std::string(vocab::kOwlNs));
  writer.AddPrefix("rdfs", std::string(vocab::kRdfsNs));
  writer.AddPrefix("xsd", "http://www.w3.org/2001/XMLSchema#");
  writer.AddPrefix("ex", "http://example.org/");
  const std::string document = TurtleCorpusDocument(writer);

  // Cut the document at statement ends as well, so edits also land near the
  // start and the end of a shorter text.
  std::vector<std::string> corpus = {document};
  for (const double share : {0.2, 0.5}) {
    const auto cut = document.find(" .\n", static_cast<std::size_t>(
                                               share * document.size()));
    ASSERT_NE(cut, std::string::npos);
    corpus.push_back(document.substr(0, cut + 3));
  }
  const std::vector<std::string> inputs =
      Mutations(corpus, "turtle-mutations");
  std::size_t accepted = 0;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const std::string& text = inputs[i];
    SCOPED_TRACE("input " + std::to_string(i));
    TripleStore parsed;
    const Status status = ParseTurtle(text, parsed);
    if (!status.ok()) {
      ASSERT_TRUE(LocatedInside(text, status)) << text;
      continue;
    }
    ++accepted;
    const std::string written = writer.Serialize(parsed);
    TripleStore reparsed;
    const Status again = ParseTurtle(written, reparsed);
    ASSERT_TRUE(again.ok()) << again.ToString() << "\n" << written;
    ASSERT_EQ(TripleSet(reparsed), TripleSet(parsed)) << text;
  }
  EXPECT_GE(accepted, static_cast<std::size_t>(corpus.size()));
  EXPECT_GT(accepted, inputs.size() / 10);
  EXPECT_LT(accepted, inputs.size() * 9 / 10);
}

}  // namespace
}  // namespace scan::kb
