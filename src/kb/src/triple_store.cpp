#include "scan/kb/triple_store.hpp"

#include <algorithm>
#include <stdexcept>

#include "scan/common/str.hpp"

namespace scan::kb {

namespace {

// Sorted postings use (first, second) lexicographic order on raw indexes.
bool PairLess(std::pair<TermId, TermId> a, std::pair<TermId, TermId> b) {
  if (Index(a.first) != Index(b.first)) {
    return Index(a.first) < Index(b.first);
  }
  return Index(a.second) < Index(b.second);
}

using PostingSpan = std::span<const std::pair<TermId, TermId>>;

/// The postings under `key` in one of the three indexes, empty if none.
template <typename PostingMap>
PostingSpan PostingsOf(const PostingMap& index, TermId key) {
  const auto it = index.find(Index(key));
  return it == index.end() ? PostingSpan{} : PostingSpan{it->second};
}

/// The run of sorted postings whose first component is `first`. O(log).
PostingSpan RunIn(PostingSpan postings, TermId first) {
  const auto begin = std::lower_bound(
      postings.begin(), postings.end(), first,
      [](std::pair<TermId, TermId> a, TermId b) {
        return Index(a.first) < Index(b);
      });
  const auto end = std::upper_bound(
      begin, postings.end(), first, [](TermId a, std::pair<TermId, TermId> b) {
        return Index(a) < Index(b.first);
      });
  return {begin, end};
}

/// Throws std::invalid_argument unless the term table (of `issued` terms)
/// issued every id of `t`.
void CheckIds(const Triple& t, std::size_t issued, const char* caller) {
  for (const TermId id : {t.s, t.p, t.o}) {
    if (Index(id) == 0 || Index(id) > issued) {
      throw std::invalid_argument(StrFormat(
          "%s: triple (%u, %u, %u) holds an id the term table (%zu terms) "
          "never issued", caller, Index(t.s), Index(t.p), Index(t.o), issued));
    }
  }
}

}  // namespace

bool TripleStore::InsertSorted(Postings& postings,
                               std::pair<TermId, TermId> kv) {
  const auto it =
      std::lower_bound(postings.begin(), postings.end(), kv, PairLess);
  if (it != postings.end() && *it == kv) return false;
  postings.insert(it, kv);
  return true;
}

bool TripleStore::EraseSorted(Postings& postings,
                              std::pair<TermId, TermId> kv) {
  const auto it =
      std::lower_bound(postings.begin(), postings.end(), kv, PairLess);
  if (it == postings.end() || !(*it == kv)) return false;
  postings.erase(it);
  return true;
}

bool TripleStore::Add(const Term& s, const Term& p, const Term& o) {
  return Add(Triple{terms_.Intern(s), terms_.Intern(p), terms_.Intern(o)});
}

bool TripleStore::Add(Triple t) {
  CheckIds(t, terms_.size(), "TripleStore::Add");
  if (!InsertSorted(spo_[Index(t.s)], {t.p, t.o})) return false;
  InsertSorted(pos_[Index(t.p)], {t.o, t.s});
  InsertSorted(osp_[Index(t.o)], {t.s, t.p});
  ++count_;
  ++revision_;
  return true;
}

std::size_t TripleStore::AddBatch(std::span<const Triple> triples) {
  if (triples.empty()) return 0;
  for (const Triple& t : triples) {
    CheckIds(t, terms_.size(), "TripleStore::AddBatch");
  }
  const std::size_t before = count_;

  // Append everything, tracking touched keys per index.
  std::vector<std::uint32_t> touched_s;
  std::vector<std::uint32_t> touched_p;
  std::vector<std::uint32_t> touched_o;
  touched_s.reserve(triples.size());
  touched_p.reserve(triples.size());
  touched_o.reserve(triples.size());
  for (const Triple& t : triples) {
    spo_[Index(t.s)].emplace_back(t.p, t.o);
    pos_[Index(t.p)].emplace_back(t.o, t.s);
    osp_[Index(t.o)].emplace_back(t.s, t.p);
    touched_s.push_back(Index(t.s));
    touched_p.push_back(Index(t.p));
    touched_o.push_back(Index(t.o));
  }

  // Restore the sorted-unique invariant once per touched key.
  auto restore = [](std::unordered_map<std::uint32_t, Postings>& index,
                    std::vector<std::uint32_t>& keys) {
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    for (const std::uint32_t key : keys) {
      Postings& postings = index[key];
      std::sort(postings.begin(), postings.end(), PairLess);
      postings.erase(std::unique(postings.begin(), postings.end()),
                     postings.end());
    }
  };
  restore(spo_, touched_s);
  restore(pos_, touched_p);
  restore(osp_, touched_o);

  // Duplicates (within the batch or against existing triples) collapsed
  // above; recount from the primary index.
  count_ = 0;
  for (const auto& [s, postings] : spo_) count_ += postings.size();
  if (count_ != before) ++revision_;
  return count_ - before;
}

bool TripleStore::Remove(Triple t) {
  const auto it = spo_.find(Index(t.s));
  if (it == spo_.end()) return false;
  if (!EraseSorted(it->second, {t.p, t.o})) return false;
  // Erase posting lists that just became empty: the full-scan Match path
  // visits every spo_ key, so a lingering empty list is both a leak and a
  // subject the scan keeps touching forever. The secondary indexes are
  // looked up with find() — operator[] would default-create an entry when
  // the maps ever disagree, hiding the corruption it implies.
  if (it->second.empty()) spo_.erase(it);
  if (const auto pit = pos_.find(Index(t.p)); pit != pos_.end()) {
    EraseSorted(pit->second, {t.o, t.s});
    if (pit->second.empty()) pos_.erase(pit);
  }
  if (const auto oit = osp_.find(Index(t.o)); oit != osp_.end()) {
    EraseSorted(oit->second, {t.s, t.p});
    if (oit->second.empty()) osp_.erase(oit);
  }
  --count_;
  ++revision_;
  return true;
}

bool TripleStore::Contains(Triple t) const {
  const auto it = spo_.find(Index(t.s));
  if (it == spo_.end()) return false;
  const std::pair<TermId, TermId> kv{t.p, t.o};
  const auto pit =
      std::lower_bound(it->second.begin(), it->second.end(), kv, PairLess);
  return pit != it->second.end() && *pit == kv;
}

void TripleStore::Match(const TriplePatternIds& pattern,
                        FunctionRef<bool(const Triple&)> fn) const {
  // Choose the index keyed by a bound position; prefer the subject index,
  // then predicate, then object; fall back to a full scan over spo_.
  if (pattern.s) {
    const auto it = spo_.find(Index(*pattern.s));
    if (it == spo_.end()) return;
    for (const auto& [p, o] : it->second) {
      if (pattern.p && !(p == *pattern.p)) continue;
      if (pattern.o && !(o == *pattern.o)) continue;
      if (!fn(Triple{*pattern.s, p, o})) return;
    }
    return;
  }
  if (pattern.p) {
    const auto it = pos_.find(Index(*pattern.p));
    if (it == pos_.end()) return;
    for (const auto& [o, s] : it->second) {
      if (pattern.o && !(o == *pattern.o)) continue;
      if (!fn(Triple{s, *pattern.p, o})) return;
    }
    return;
  }
  if (pattern.o) {
    const auto it = osp_.find(Index(*pattern.o));
    if (it == osp_.end()) return;
    for (const auto& [s, p] : it->second) {
      if (!fn(Triple{s, p, *pattern.o})) return;
    }
    return;
  }
  // Full scan. Iterate subjects in ascending id order for determinism.
  std::vector<std::uint32_t> subjects;
  subjects.reserve(spo_.size());
  for (const auto& [s, _] : spo_) subjects.push_back(s);
  std::sort(subjects.begin(), subjects.end());
  for (const std::uint32_t s : subjects) {
    for (const auto& [p, o] : spo_.at(s)) {
      if (!fn(Triple{TermId{s}, p, o})) return;
    }
  }
}

std::vector<Triple> TripleStore::MatchAll(
    const TriplePatternIds& pattern) const {
  std::vector<Triple> out;
  Match(pattern, [&](const Triple& t) {
    out.push_back(t);
    return true;
  });
  return out;
}

std::vector<TermId> TripleStore::Objects(TermId s, TermId p) const {
  std::vector<TermId> out;
  Match(TriplePatternIds{s, p, std::nullopt}, [&](const Triple& t) {
    out.push_back(t.o);
    return true;
  });
  return out;
}

void TripleStore::SubjectsVisit(TermId p, TermId o,
                                FunctionRef<bool(TermId)> fn) const {
  for (const auto& [object, s] : RunIn(PostingsOf(pos_, p), o)) {
    if (!fn(s)) return;
  }
}

std::vector<TermId> TripleStore::Subjects(TermId p, TermId o) const {
  std::vector<TermId> out;
  Match(TriplePatternIds{std::nullopt, p, o}, [&](const Triple& t) {
    out.push_back(t.s);
    return true;
  });
  return out;
}

std::optional<TermId> TripleStore::FirstObject(TermId s, TermId p) const {
  std::optional<TermId> out;
  Match(TriplePatternIds{s, p, std::nullopt}, [&](const Triple& t) {
    out = t.o;
    return false;
  });
  return out;
}

std::vector<TermId> TripleStore::InstancesOf(TermId type) const {
  const auto rdf_type = terms_.Lookup(MakeIri(std::string(kRdfType)));
  if (!rdf_type) return {};
  return Subjects(*rdf_type, type);
}

std::uint64_t TripleStore::CountEstimate(
    const TriplePatternIds& pattern) const {
  if (pattern.s && pattern.p && pattern.o) {
    return Contains(Triple{*pattern.s, *pattern.p, *pattern.o}) ? 1 : 0;
  }
  if (pattern.s && pattern.p) {
    return RunIn(PostingsOf(spo_, *pattern.s), *pattern.p).size();
  }
  if (pattern.p && pattern.o) {
    return RunIn(PostingsOf(pos_, *pattern.p), *pattern.o).size();
  }
  // (s, ?, o) is bounded by the subject's full degree, as in FrozenIndex.
  if (pattern.s) return PostingsOf(spo_, *pattern.s).size();
  if (pattern.p) return PostingsOf(pos_, *pattern.p).size();
  if (pattern.o) return PostingsOf(osp_, *pattern.o).size();
  return count_;
}

std::uint64_t TripleStore::CountSubjectsWithPredicates(
    std::span<const TermId> predicates) const {
  if (predicates.empty()) return spo_.size();
  // Walk the smallest predicate posting. A subject appears there once per
  // object: count it at its first object, if it has every predicate.
  const TermId driver = *std::min_element(
      predicates.begin(), predicates.end(), [&](TermId a, TermId b) {
        return PostingsOf(pos_, a).size() < PostingsOf(pos_, b).size();
      });
  std::uint64_t count = 0;
  for (const auto& [o, s] : PostingsOf(pos_, driver)) {
    const PostingSpan own = PostingsOf(spo_, s);
    if (RunIn(own, driver).front().second != o) continue;
    count += std::all_of(predicates.begin(), predicates.end(),
                         [&](TermId p) { return !RunIn(own, p).empty(); });
  }
  return count;
}

}  // namespace scan::kb
