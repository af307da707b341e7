#include "scan/kb/frozen_index.hpp"

#include <algorithm>
#include <cassert>
#include <unordered_map>

namespace scan::kb {

namespace {

/// Hash of a predicate signature (for characteristic-set grouping).
struct SigHash {
  std::size_t operator()(const std::vector<TermId>& sig) const {
    std::uint64_t h = 1469598103934665603ULL;
    for (const TermId id : sig) {
      h ^= Index(id);
      h *= 1099511628211ULL;
    }
    return static_cast<std::size_t>(h);
  }
};

}  // namespace

FrozenIndex FrozenIndex::Freeze(const TripleStore& store) {
  FrozenIndex out;

  // 1. Materialize the full triple set. The wildcard Match emits sorted by
  //    (s, p, o), which is exactly the subject-major layout order.
  std::vector<Triple> triples;
  triples.reserve(store.size());
  store.Match(TriplePatternIds{}, [&](const Triple& t) {
    triples.push_back(t);
    return true;
  });

  const std::uint32_t id_limit =
      static_cast<std::uint32_t>(store.terms().size()) + 1;
  out.subject_row_.assign(id_limit, kNoRow);
  out.pred_row_.assign(id_limit, kNoRow);
  out.object_row_.assign(id_limit, kNoRow);

  // 2. Subject-major arrays + characteristic sets in one pass.
  std::unordered_map<std::vector<TermId>, std::uint32_t, SigHash> charset_ids;
  std::vector<TermId> signature;
  std::size_t i = 0;
  while (i < triples.size()) {
    const TermId s = triples[i].s;
    const auto row = static_cast<std::uint32_t>(out.subjects_.size());
    out.subject_row_[Index(s)] = row;
    out.subjects_.push_back(s);
    out.sub_pred_begin_.push_back(
        static_cast<std::uint32_t>(out.sub_preds_.size()));
    signature.clear();
    while (i < triples.size() && triples[i].s == s) {
      const TermId p = triples[i].p;
      out.sub_preds_.push_back(p);
      signature.push_back(p);
      out.sub_obj_begin_.push_back(
          static_cast<std::uint32_t>(out.objects_.size()));
      while (i < triples.size() && triples[i].s == s && triples[i].p == p) {
        out.objects_.push_back(triples[i].o);
        ++i;
      }
    }
    const auto [it, inserted] = charset_ids.try_emplace(
        signature, static_cast<std::uint32_t>(out.charsets_.size()));
    if (inserted) {
      out.charsets_.push_back(CharacteristicSet{signature, 0});
    }
    ++out.charsets_[it->second].subject_count;
    out.subject_charset_.push_back(it->second);
  }
  out.sub_pred_begin_.push_back(
      static_cast<std::uint32_t>(out.sub_preds_.size()));
  out.sub_obj_begin_.push_back(
      static_cast<std::uint32_t>(out.objects_.size()));

  // 3. Predicate-major: re-sort by (p, o, s) and cut runs. Subject posting
  //    lists are delta+varbyte compressed; each predicate keeps its sorted
  //    distinct objects for O(log) o-lookup.
  std::vector<std::uint32_t> order(triples.size());
  for (std::uint32_t k = 0; k < order.size(); ++k) order[k] = k;
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    const Triple& ta = triples[a];
    const Triple& tb = triples[b];
    if (ta.p != tb.p) return Index(ta.p) < Index(tb.p);
    if (ta.o != tb.o) return Index(ta.o) < Index(tb.o);
    return Index(ta.s) < Index(tb.s);
  });
  std::vector<std::uint32_t> subject_scratch;
  i = 0;
  while (i < order.size()) {
    const TermId p = triples[order[i]].p;
    out.pred_row_[Index(p)] = static_cast<std::uint32_t>(out.preds_.size());
    PredEntry entry;
    entry.id = p;
    while (i < order.size() && triples[order[i]].p == p) {
      const TermId o = triples[order[i]].o;
      entry.objects.push_back(o);
      subject_scratch.clear();
      while (i < order.size() && triples[order[i]].p == p &&
             triples[order[i]].o == o) {
        subject_scratch.push_back(Index(triples[order[i]].s));
        ++entry.triple_count;
        ++i;
      }
      out.stats_.raw_posting_values += subject_scratch.size();
      entry.postings.push_back(CompressedPostings::Build(
          subject_scratch.data(), subject_scratch.size()));
      out.stats_.compressed_postings_bytes += entry.postings.back().byte_size();
    }
    out.preds_.push_back(std::move(entry));
  }
  // Distinct subjects per predicate: from the subject-major side.
  for (std::uint32_t row = 0; row < out.subjects_.size(); ++row) {
    for (std::uint32_t k = out.sub_pred_begin_[row];
         k < out.sub_pred_begin_[row + 1]; ++k) {
      ++out.preds_[out.pred_row_[Index(out.sub_preds_[k])]].distinct_subjects;
    }
  }

  // 4. Object-major: re-sort by (o, s, p) and cut runs (flat arrays; the
  //    compressed win lives in the predicate side).
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    const Triple& ta = triples[a];
    const Triple& tb = triples[b];
    if (ta.o != tb.o) return Index(ta.o) < Index(tb.o);
    if (ta.s != tb.s) return Index(ta.s) < Index(tb.s);
    return Index(ta.p) < Index(tb.p);
  });
  out.osp_subjects_.reserve(triples.size());
  out.osp_preds_.reserve(triples.size());
  i = 0;
  while (i < order.size()) {
    const TermId o = triples[order[i]].o;
    out.object_row_[Index(o)] =
        static_cast<std::uint32_t>(out.object_ids_.size());
    out.object_ids_.push_back(o);
    out.obj_begin_.push_back(
        static_cast<std::uint32_t>(out.osp_subjects_.size()));
    while (i < order.size() && triples[order[i]].o == o) {
      out.osp_subjects_.push_back(triples[order[i]].s);
      out.osp_preds_.push_back(triples[order[i]].p);
      ++i;
    }
  }
  out.obj_begin_.push_back(static_cast<std::uint32_t>(out.osp_subjects_.size()));

  // 5. Dedicated type index: uncompressed instance spans per rdf:type
  //    object, the broker's InstancesOf hot path.
  const auto rdf_type = store.terms().Lookup(MakeIri(std::string(kRdfType)));
  if (rdf_type) {
    out.rdf_type_ = *rdf_type;
    if (const PredEntry* entry = out.Pred(*rdf_type)) {
      for (std::size_t k = 0; k < entry->objects.size(); ++k) {
        out.type_ids_.push_back(entry->objects[k]);
        out.type_begin_.push_back(
            static_cast<std::uint32_t>(out.type_instances_.size()));
        entry->postings[k].ForEach([&](std::uint32_t s) {
          out.type_instances_.push_back(TermId{s});
          return true;
        });
      }
      out.type_begin_.push_back(
          static_cast<std::uint32_t>(out.type_instances_.size()));
    }
  }

  out.stats_.triples = triples.size();
  out.stats_.subjects = out.subjects_.size();
  out.stats_.predicates = out.preds_.size();
  out.stats_.objects = out.object_ids_.size();
  out.stats_.characteristic_sets = out.charsets_.size();
  return out;
}

std::uint32_t FrozenIndex::SubjectRow(TermId s) const {
  const std::uint32_t raw = Index(s);
  if (raw >= subject_row_.size()) return kNoRow;
  return subject_row_[raw];
}

const FrozenIndex::PredEntry* FrozenIndex::Pred(TermId p) const {
  const std::uint32_t raw = Index(p);
  if (raw >= pred_row_.size() || pred_row_[raw] == kNoRow) return nullptr;
  return &preds_[pred_row_[raw]];
}

std::span<const TermId> FrozenIndex::PredicatesOf(TermId s) const {
  const std::uint32_t row = SubjectRow(s);
  if (row == kNoRow) return {};
  return {sub_preds_.data() + sub_pred_begin_[row],
          sub_pred_begin_[row + 1] - sub_pred_begin_[row]};
}

std::span<const TermId> FrozenIndex::Objects(TermId s, TermId p) const {
  const std::uint32_t row = SubjectRow(s);
  if (row == kNoRow) return {};
  const std::uint32_t pb = sub_pred_begin_[row];
  const std::uint32_t pe = sub_pred_begin_[row + 1];
  const TermId* first = sub_preds_.data() + pb;
  const TermId* last = sub_preds_.data() + pe;
  const TermId* it =
      std::lower_bound(first, last, p, [](TermId a, TermId b) {
        return Index(a) < Index(b);
      });
  if (it == last || *it != p) return {};
  const auto slot = static_cast<std::uint32_t>(pb + (it - first));
  return {objects_.data() + sub_obj_begin_[slot],
          sub_obj_begin_[slot + 1] - sub_obj_begin_[slot]};
}

std::optional<TermId> FrozenIndex::FirstObject(TermId s, TermId p) const {
  const auto span = Objects(s, p);
  if (span.empty()) return std::nullopt;
  return span.front();
}

std::span<const TermId> FrozenIndex::InstancesOf(TermId type) const {
  const auto it = std::lower_bound(
      type_ids_.begin(), type_ids_.end(), type,
      [](TermId a, TermId b) { return Index(a) < Index(b); });
  if (it == type_ids_.end() || *it != type) return {};
  const auto row = static_cast<std::uint32_t>(it - type_ids_.begin());
  return {type_instances_.data() + type_begin_[row],
          type_begin_[row + 1] - type_begin_[row]};
}

bool FrozenIndex::Contains(Triple t) const {
  const auto objects = Objects(t.s, t.p);
  return std::binary_search(objects.begin(), objects.end(), t.o,
                            [](TermId a, TermId b) {
                              return Index(a) < Index(b);
                            });
}

const CompressedPostings* FrozenIndex::Posting(TermId p, TermId o) const {
  const PredEntry* entry = Pred(p);
  if (entry == nullptr) return nullptr;
  const auto it = std::lower_bound(
      entry->objects.begin(), entry->objects.end(), o,
      [](TermId a, TermId b) { return Index(a) < Index(b); });
  if (it == entry->objects.end() || *it != o) return nullptr;
  const auto slot = static_cast<std::size_t>(it - entry->objects.begin());
  return &entry->postings[slot];
}

void FrozenIndex::SubjectsVisit(TermId p, TermId o,
                                FunctionRef<bool(TermId)> fn) const {
  if (const CompressedPostings* posting = Posting(p, o)) {
    posting->ForEach([&](std::uint32_t s) { return fn(TermId{s}); });
  }
}

std::vector<TermId> FrozenIndex::Subjects(TermId p, TermId o) const {
  std::vector<TermId> out;
  out.reserve(SubjectCount(p, o));
  SubjectsVisit(p, o, [&](TermId s) {
    out.push_back(s);
    return true;
  });
  return out;
}

std::size_t FrozenIndex::SubjectCount(TermId p, TermId o) const {
  const CompressedPostings* posting = Posting(p, o);
  return posting == nullptr ? 0 : posting->size();
}

void FrozenIndex::Match(const TriplePatternIds& pattern,
                        FunctionRef<bool(const Triple&)> fn) const {
  // Mirrors TripleStore::Match index choice and emission order exactly:
  // subject index first, then predicate, then object, then full scan.
  if (pattern.s) {
    const std::uint32_t row = SubjectRow(*pattern.s);
    if (row == kNoRow) return;
    for (std::uint32_t k = sub_pred_begin_[row]; k < sub_pred_begin_[row + 1];
         ++k) {
      const TermId p = sub_preds_[k];
      if (pattern.p && !(p == *pattern.p)) continue;
      for (std::uint32_t j = sub_obj_begin_[k]; j < sub_obj_begin_[k + 1];
           ++j) {
        const TermId o = objects_[j];
        if (pattern.o && !(o == *pattern.o)) continue;
        if (!fn(Triple{*pattern.s, p, o})) return;
      }
    }
    return;
  }
  if (pattern.p) {
    const PredEntry* entry = Pred(*pattern.p);
    if (entry == nullptr) return;
    if (pattern.o) {
      bool keep_going = true;
      SubjectsVisit(*pattern.p, *pattern.o, [&](TermId s) {
        keep_going = fn(Triple{s, *pattern.p, *pattern.o});
        return keep_going;
      });
      return;
    }
    for (std::size_t k = 0; k < entry->objects.size(); ++k) {
      const TermId o = entry->objects[k];
      bool keep_going = true;
      entry->postings[k].ForEach([&](std::uint32_t s) {
        keep_going = fn(Triple{TermId{s}, *pattern.p, o});
        return keep_going;
      });
      if (!keep_going) return;
    }
    return;
  }
  if (pattern.o) {
    const std::uint32_t raw = Index(*pattern.o);
    if (raw >= object_row_.size() || object_row_[raw] == kNoRow) return;
    const std::uint32_t row = object_row_[raw];
    for (std::uint32_t k = obj_begin_[row]; k < obj_begin_[row + 1]; ++k) {
      if (!fn(Triple{osp_subjects_[k], osp_preds_[k], *pattern.o})) return;
    }
    return;
  }
  // Full scan, ascending subject id (subjects_ is already sorted).
  for (std::uint32_t row = 0; row < subjects_.size(); ++row) {
    const TermId s = subjects_[row];
    for (std::uint32_t k = sub_pred_begin_[row]; k < sub_pred_begin_[row + 1];
         ++k) {
      for (std::uint32_t j = sub_obj_begin_[k]; j < sub_obj_begin_[k + 1];
           ++j) {
        if (!fn(Triple{s, sub_preds_[k], objects_[j]})) return;
      }
    }
  }
}

std::vector<Triple> FrozenIndex::MatchAll(
    const TriplePatternIds& pattern) const {
  std::vector<Triple> out;
  Match(pattern, [&](const Triple& t) {
    out.push_back(t);
    return true;
  });
  return out;
}

std::uint64_t FrozenIndex::CountEstimate(
    const TriplePatternIds& pattern) const {
  if (pattern.s && pattern.p && pattern.o) {
    return Contains(Triple{*pattern.s, *pattern.p, *pattern.o}) ? 1 : 0;
  }
  if (pattern.s && pattern.p) return Objects(*pattern.s, *pattern.p).size();
  if (pattern.p && pattern.o) return SubjectCount(*pattern.p, *pattern.o);
  if (pattern.s) {
    const std::uint32_t row = SubjectRow(*pattern.s);
    if (row == kNoRow) return 0;
    const std::uint32_t pb = sub_pred_begin_[row];
    const std::uint32_t pe = sub_pred_begin_[row + 1];
    // (s, ?, o): bound below by the subject's full degree.
    return sub_obj_begin_[pe] - sub_obj_begin_[pb];
  }
  if (pattern.p) {
    const PredEntry* entry = Pred(*pattern.p);
    return entry == nullptr ? 0 : entry->triple_count;
  }
  if (pattern.o) {
    const std::uint32_t raw = Index(*pattern.o);
    if (raw >= object_row_.size() || object_row_[raw] == kNoRow) return 0;
    const std::uint32_t row = object_row_[raw];
    return obj_begin_[row + 1] - obj_begin_[row];
  }
  return stats_.triples;
}

std::uint64_t FrozenIndex::CountSubjectsWithPredicates(
    std::span<const TermId> predicates) const {
  std::vector<TermId> sorted(predicates.begin(), predicates.end());
  std::sort(sorted.begin(), sorted.end(),
            [](TermId a, TermId b) { return Index(a) < Index(b); });
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  std::uint64_t count = 0;
  for (const CharacteristicSet& cs : charsets_) {
    if (std::includes(cs.predicates.begin(), cs.predicates.end(),
                      sorted.begin(), sorted.end(),
                      [](TermId a, TermId b) {
                        return Index(a) < Index(b);
                      })) {
      count += cs.subject_count;
    }
  }
  return count;
}

}  // namespace scan::kb
