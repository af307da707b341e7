#pragma once

// The knowledge base's differential oracle: an independent statement of
// SPARQL evaluation and shard advice over the staging TripleStore, for
// tests and benchmarks to check the production path (kb::QueryEngine and
// kb::KnowledgeBase::AdviseShardSize) against.
//
//  * OracleQuery is the greedy pattern-at-a-time evaluator: BGP patterns
//    run in order of most bound positions, each extending every row by a
//    fresh TripleStore::Match — no statistics, no join strategies. All but
//    the BGP evaluation (group staging, FILTER, materialization) is shared
//    with the executor through kb/query_common.hpp, so its solution
//    multisets must equal the executor's; row order of un-ORDERed queries
//    may differ.
//  * OracleAdviseShardSize is the broker's shard advice as the paper
//    states it (§III-A-2): a SPARQL query for the application's profiles
//    ORDER BY ASC(?etime), parsed and run by OracleQuery, and the first
//    row with the strictly lowest eTime per GB wins. Errors carry the same
//    text as the production ranking.

#include <string>
#include <string_view>

#include "scan/common/status.hpp"
#include "scan/kb/knowledge_base.hpp"
#include "scan/kb/sparql.hpp"
#include "scan/kb/triple_store.hpp"

namespace scan::testkit {

[[nodiscard]] Result<kb::ResultSet> OracleQuery(const kb::TripleStore& store,
                                                const kb::SelectQuery& query);

/// Parse + evaluate in one step.
[[nodiscard]] Result<kb::ResultSet> OracleQuery(const kb::TripleStore& store,
                                                std::string_view text);

/// The broker's advice query, in SPARQL as the paper prescribes: the
/// application's profiles within [min_gb, max_gb] ORDER BY ASC(?etime).
[[nodiscard]] std::string OracleAdviceQuery(std::string_view application,
                                            double min_gb, double max_gb);

[[nodiscard]] Result<kb::ShardAdvice> OracleAdviseShardSize(
    const kb::TripleStore& store, std::string_view application, double min_gb,
    double max_gb);

}  // namespace scan::testkit
