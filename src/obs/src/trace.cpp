#include "scan/obs/trace.hpp"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <iterator>
#include <memory>
#include <mutex>
#include <type_traits>
#include <unordered_map>

#include "scan/common/str.hpp"
#include "scan/obs/span.hpp"

namespace scan::obs {

namespace {

constexpr const char* kEventKindNames[] = {
#define SCAN_OBS_EVENT_KIND_NAME(kind, name) name,
    SCAN_OBS_EVENT_KINDS(SCAN_OBS_EVENT_KIND_NAME)
#undef SCAN_OBS_EVENT_KIND_NAME
};

}  // namespace

const char* EventKindName(EventKind kind) {
  const auto index = static_cast<std::size_t>(kind);
  return index < std::size(kEventKindNames) ? kEventKindNames[index] : "?";
}

std::optional<EventKind> EventKindFromName(std::string_view name) {
  for (std::size_t i = 0; i < std::size(kEventKindNames); ++i) {
    if (name == kEventKindNames[i]) return static_cast<EventKind>(i);
  }
  return std::nullopt;
}

/// One thread's ring. Grows lazily (no up-front reservation: short runs
/// and dead executor threads cost only what they recorded), then
/// overwrites its oldest entry once `capacity` events are held.
struct TraceRecorder::Lane {
  std::vector<TraceEvent> ring;
  std::size_t next = 0;  ///< overwrite cursor, meaningful once full
  std::uint64_t recorded = 0;
  std::uint64_t dropped = 0;
  std::uint32_t id = 0;
};

struct TraceRecorder::Impl {
  mutable std::mutex mutex;
  std::vector<std::unique_ptr<Lane>> lanes;
  /// Bumped on Clear so every thread's cached lane pointer re-attaches.
  std::atomic<std::uint64_t> epoch{0};
  std::atomic<std::size_t> capacity{kDefaultCapacity};
};

TraceRecorder& TraceRecorder::Global() {
  static TraceRecorder recorder;
  return recorder;
}

TraceRecorder::Impl& TraceRecorder::impl() const {
  static Impl the_impl;
  return the_impl;
}

TraceRecorder::Lane& TraceRecorder::Local() {
  struct Cache {
    Lane* lane = nullptr;
    std::uint64_t epoch = 0;
  };
  thread_local Cache cache;
  Impl& im = impl();
  const std::uint64_t epoch = im.epoch.load(std::memory_order_acquire);
  if (cache.lane == nullptr || cache.epoch != epoch) {
    const std::scoped_lock lock(im.mutex);
    im.lanes.push_back(std::make_unique<Lane>());
    cache.lane = im.lanes.back().get();
    cache.lane->id = static_cast<std::uint32_t>(im.lanes.size() - 1);
    cache.epoch = epoch;
  }
  return *cache.lane;
}

void TraceRecorder::Enable(std::size_t capacity_per_thread) {
  Impl& im = impl();
  im.capacity.store(capacity_per_thread == 0 ? kDefaultCapacity
                                             : capacity_per_thread,
                    std::memory_order_relaxed);
  internal::g_trace_enabled.store(true, std::memory_order_release);
}

void TraceRecorder::Disable() {
  internal::g_trace_enabled.store(false, std::memory_order_release);
}

void TraceRecorder::Clear() {
  Impl& im = impl();
  const std::scoped_lock lock(im.mutex);
  im.lanes.clear();
  im.epoch.fetch_add(1, std::memory_order_release);
}

void TraceRecorder::Emit(const TraceEvent& event) {
  if (!TraceEnabled()) return;
  const std::size_t capacity = impl().capacity.load(std::memory_order_relaxed);
  Lane& lane = Local();
  ++lane.recorded;
  if (lane.ring.size() < capacity) {
    lane.ring.push_back(event);
    return;
  }
  lane.ring[lane.next] = event;
  lane.next = (lane.next + 1) % capacity;
  ++lane.dropped;
}

std::uint32_t TraceRecorder::CurrentLane() { return Local().id; }

std::vector<TraceEvent> TraceRecorder::Collect() const {
  Impl& im = impl();
  const std::scoped_lock lock(im.mutex);
  std::vector<TraceEvent> merged;
  for (const auto& lane : im.lanes) {
    if (lane->dropped == 0) {
      merged.insert(merged.end(), lane->ring.begin(), lane->ring.end());
    } else {
      // Ring wrapped: oldest surviving event sits at the overwrite cursor.
      merged.insert(merged.end(), lane->ring.begin() + static_cast<std::ptrdiff_t>(lane->next),
                    lane->ring.end());
      merged.insert(merged.end(), lane->ring.begin(),
                    lane->ring.begin() + static_cast<std::ptrdiff_t>(lane->next));
    }
  }
  std::stable_sort(merged.begin(), merged.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.time_tu < b.time_tu;
                   });
  return merged;
}

TraceRecorder::Stats TraceRecorder::stats() const {
  Impl& im = impl();
  const std::scoped_lock lock(im.mutex);
  Stats s;
  s.lanes = im.lanes.size();
  for (const auto& lane : im.lanes) {
    s.events_recorded += lane->recorded;
    s.events_dropped += lane->dropped;
  }
  return s;
}

std::size_t TraceRecorder::capacity_per_thread() const {
  return impl().capacity.load(std::memory_order_relaxed);
}

namespace {

/// True for the event that *defines* a span node: the one whose (ts,
/// track) a flow arrow should depart from when the span is someone's
/// parent. Job spans are defined by arrival, stage spans by their exec
/// slice, slice spans by the slice itself.
bool DefinesSpan(const TraceEvent& ev) {
  switch (TagOf(ev.span)) {
    case SpanTag::kJob:
      return ev.kind == EventKind::kJobArrival;
    case SpanTag::kStage:
      return ev.kind == EventKind::kStageExec;
    case SpanTag::kSlice:
      return ev.kind == EventKind::kStageSlice;
    case SpanTag::kNone:
      return false;
  }
  return false;
}

/// True for events that should receive an inbound Perfetto flow arrow:
/// the causal skeleton (exec spans, slices, completions) rather than
/// every instant — keeps the rendered graph readable.
bool ReceivesFlow(const TraceEvent& ev) {
  return IsSpan(ev.kind) || ev.kind == EventKind::kJobComplete;
}

}  // namespace

bool TraceRecorder::ExportChromeJson(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const std::vector<TraceEvent> events = Collect();
  // Anchor of each span id: where flow arrows out of that span start.
  std::unordered_map<std::uint64_t, const TraceEvent*> anchors;
  for (const TraceEvent& ev : events) {
    if (ev.span != kSpanNone && DefinesSpan(ev)) {
      anchors.emplace(ev.span, &ev);  // first (earliest) definition wins
    }
  }
  out << "{\"traceEvents\":[\n";
  bool first = true;
  const auto sep = [&first, &out]() {
    if (!first) out << ",\n";
    first = false;
  };
  std::uint64_t flow_id = 0;
  for (const TraceEvent& ev : events) {
    sep();
    out << "{\"name\":\"" << EscapeJson(EventKindName(ev.kind))
        << "\",\"cat\":\"scan\",\"ph\":\"" << (IsSpan(ev.kind) ? "X" : "i")
        << "\"";
    if (!IsSpan(ev.kind)) out << ",\"s\":\"t\"";
    out << ",\"ts\":" << StrFormat("%.17g", ev.time_tu * kChromeMicrosPerTu);
    if (IsSpan(ev.kind)) {
      out << ",\"dur\":"
          << StrFormat("%.17g", ev.duration_tu * kChromeMicrosPerTu);
    }
    out << ",\"pid\":1,\"tid\":" << ev.track << ",\"args\":{\"a\":" << ev.a
        << ",\"b\":" << ev.b << ",\"v\":" << StrFormat("%.17g", ev.value)
        << ",\"span\":" << ev.span << ",\"parent\":" << ev.parent << "}}";
    // Causal arrow parent -> this event, as a Perfetto flow pair. "bp":"e"
    // binds the finish to the enclosing slice rather than the next one.
    if (ev.parent != kSpanNone && ReceivesFlow(ev)) {
      const auto it = anchors.find(ev.parent);
      if (it != anchors.end()) {
        const TraceEvent& from = *it->second;
        const std::uint64_t id = ++flow_id;
        sep();
        out << "{\"name\":\"causal\",\"cat\":\"scan-flow\",\"ph\":\"s\",\"id\":"
            << id << ",\"ts\":"
            << StrFormat("%.17g", from.time_tu * kChromeMicrosPerTu)
            << ",\"pid\":1,\"tid\":" << from.track << "}";
        sep();
        out << "{\"name\":\"causal\",\"cat\":\"scan-flow\",\"ph\":\"f\",\"bp\":"
            << "\"e\",\"id\":" << id
            << ",\"ts\":" << StrFormat("%.17g", ev.time_tu * kChromeMicrosPerTu)
            << ",\"pid\":1,\"tid\":" << ev.track << "}";
      }
    }
  }
  out << (first ? "" : "\n") << "]}\n";
  return out.good();
}

bool TraceRecorder::ExportJsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (const TraceEvent& ev : Collect()) {
    out << "{\"t\":" << StrFormat("%.17g", ev.time_tu)
        << ",\"dur\":" << StrFormat("%.17g", ev.duration_tu)
        << ",\"kind\":\"" << EscapeJson(EventKindName(ev.kind))
        << "\",\"track\":" << ev.track << ",\"a\":" << ev.a
        << ",\"b\":" << ev.b << ",\"v\":" << StrFormat("%.17g", ev.value)
        << ",\"span\":" << ev.span << ",\"parent\":" << ev.parent << "}\n";
  }
  return out.good();
}

namespace {

/// Reads back exactly what the two writers above write, spelling for
/// spelling, so the first byte that differs from their layout is the
/// error's location. Keys are matched with the punctuation that opens them.
class TraceReader {
 public:
  explicit TraceReader(std::string_view text) : text_(text) {}

  Status Read(std::vector<TraceEvent>& events) {
    if (!Take("{\"traceEvents\":[\n")) {  // JSONL: one event per line
      while (pos_ < text_.size()) {
        TraceEvent ev;
        SCAN_RETURN_IF_ERROR(Number("{\"t\":", "t", ev.time_tu));
        SCAN_RETURN_IF_ERROR(Number(",\"dur\":", "dur", ev.duration_tu));
        SCAN_RETURN_IF_ERROR(Kind(",\"kind\":", "kind", ev.kind));
        SCAN_RETURN_IF_ERROR(Number(",\"track\":", "track", ev.track));
        SCAN_RETURN_IF_ERROR(Payload(",\"a\":", ev));
        SCAN_RETURN_IF_ERROR(Want("}\n", "the end of the line"));
        events.push_back(ev);
      }
      return Status::Ok();
    }
    if (!Take("]}\n")) {
      do {
        SCAN_RETURN_IF_ERROR(ChromeEvent(events));
      } while (Take(",\n"));
      SCAN_RETURN_IF_ERROR(Want("\n]}\n", "the end of the trace"));
    }
    return pos_ == text_.size() ? Status::Ok()
                                : Fail("expected the end of the trace");
  }

 private:
  /// A Chrome event (instant or span) or a "causal" flow pair, skipped.
  Status ChromeEvent(std::vector<TraceEvent>& events) {
    TraceEvent ev;
    SCAN_RETURN_IF_ERROR(Want("{\"name\":", "field \"name\""));
    if (Take("\"causal\"")) {
      const std::size_t close = text_.find('}', pos_);
      if (close == std::string_view::npos) return Fail("unterminated event");
      pos_ = close + 1;
      return Status::Ok();
    }
    SCAN_RETURN_IF_ERROR(Kind("", "name", ev.kind));
    SCAN_RETURN_IF_ERROR(Want(",\"cat\":\"scan\",\"ph\":", "field \"cat\""));
    const bool span = Take("\"X\"");
    if (!span) SCAN_RETURN_IF_ERROR(Want("\"i\",\"s\":\"t\"", "a phase"));
    SCAN_RETURN_IF_ERROR(Number(",\"ts\":", "ts", ev.time_tu));
    if (span) SCAN_RETURN_IF_ERROR(Number(",\"dur\":", "dur", ev.duration_tu));
    SCAN_RETURN_IF_ERROR(Number(",\"pid\":1,\"tid\":", "tid", ev.track));
    SCAN_RETURN_IF_ERROR(Payload(",\"args\":{\"a\":", ev));
    SCAN_RETURN_IF_ERROR(Want("}}", "the end of the event"));
    ev.time_tu /= kChromeMicrosPerTu;
    ev.duration_tu /= kChromeMicrosPerTu;
    events.push_back(ev);
    return Status::Ok();
  }

  /// a, b, v, span and parent; `open` spells the punctuation before "a".
  Status Payload(std::string_view open, TraceEvent& ev) {
    SCAN_RETURN_IF_ERROR(Number(open, "a", ev.a));
    SCAN_RETURN_IF_ERROR(Number(",\"b\":", "b", ev.b));
    SCAN_RETURN_IF_ERROR(Number(",\"v\":", "v", ev.value));
    SCAN_RETURN_IF_ERROR(Number(",\"span\":", "span", ev.span));
    return Number(",\"parent\":", "parent", ev.parent);
  }

  bool Take(std::string_view spelling) {
    if (!text_.substr(pos_).starts_with(spelling)) return false;
    pos_ += spelling.size();
    return true;
  }
  Status Want(std::string_view spelling, std::string_view what) {
    return Take(spelling) ? Status::Ok()
                          : Fail("expected " + std::string(what));
  }

  /// `key`, then a double or an unsigned integer as %.17g or the integer
  /// writers print it (from_chars reads inf and nan back too).
  template <class T>
  Status Number(std::string_view key, std::string_view field, T& out) {
    SCAN_RETURN_IF_ERROR(Want(key, "field \"" + std::string(field) + "\""));
    const std::size_t end = text_.find_first_of(",}\n", pos_);
    const std::string_view token = text_.substr(pos_, end - pos_);
    const auto [stop, error] =
        std::from_chars(token.data(), token.data() + token.size(), out);
    if (token.empty() || error != std::errc{} ||
        stop != token.data() + token.size()) {
      return Fail("field \"" + std::string(field) + "\": expected " +
                  (std::is_integral_v<T> ? "an unsigned integer" : "a number"));
    }
    pos_ += token.size();
    return Status::Ok();
  }

  /// `key`, then a quoted name from the kind table.
  Status Kind(std::string_view key, std::string_view field, EventKind& out) {
    SCAN_RETURN_IF_ERROR(Want(key, "field \"" + std::string(field) + "\""));
    const std::size_t close = text_.find('"', pos_ + 1);
    const std::optional<EventKind> kind =
        Peek() == '"' && close != std::string_view::npos
            ? EventKindFromName(text_.substr(pos_ + 1, close - pos_ - 1))
            : std::nullopt;
    if (!kind) {
      return Fail("field \"" + std::string(field) + "\": unknown event kind");
    }
    out = *kind;
    pos_ = close + 1;
    return Status::Ok();
  }

  [[nodiscard]] char Peek() const {
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }

  /// A ParseError at the current offset, with its line and column.
  [[nodiscard]] Status Fail(const std::string& what) const {
    const std::string_view before = text_.substr(0, pos_);
    const std::size_t line_start = before.rfind('\n') + 1;  // npos + 1 == 0
    return ParseError(StrFormat(
        "trace: %s at line %zu, column %zu", what.c_str(),
        1 + static_cast<std::size_t>(
                std::count(before.begin(), before.end(), '\n')),
        before.size() - line_start + 1));
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

Result<std::vector<TraceEvent>> ParseTrace(std::string_view text) {
  std::vector<TraceEvent> events;
  Status status = TraceReader(text).Read(events);
  if (!status.ok()) return status;
  return events;
}

}  // namespace scan::obs
