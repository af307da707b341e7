// DES hot-path trajectory: ladder calendar + arena events + inline
// callbacks vs. the retained std::priority_queue reference (DESIGN.md
// §11). Both legs run the identical seeded hold-model script — H pending
// events in steady state, N executed events, every callback carrying the
// scheduler's 48-byte capture — and must agree on the executed (when, seq)
// checksum, so the speedup is measured on provably identical work.
//
// Scenarios:
//   des_10kworkers_1mjobs — 10k pending events (one per in-flight worker
//                           at the paper's largest scale), 1M executed.
//                           Increments drawn from the discrete profiled
//                           stage-duration lattice (Table 2 quantization),
//                           which is what the scheduler's calendar holds:
//                           completion times cluster on ties.
//   exp_hold              — continuous exponential increments, the
//                           textbook hold-model worst case for a calendar
//                           queue (no ties, maximum spread).
//   arrival_burst         — increments quantized to coarse ticks, so most
//                           events tie (bulk arrivals); stresses FIFO
//                           tie-breaking and bucket sorting.
//   cancel_heavy          — two events scheduled per execution, one
//                           lazily cancelled; stresses the skip path.
//
// Each leg runs --reps times (after one untimed warm-up) and reports its
// best repetition, the standard guard against scheduler/thermal noise.
//
// Usage: bench_des_hotpath [--events=N] [--pending=H] [--reps=R]
//                          [--csv=PATH] [--json=PATH]

#include <chrono>
#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "bench_util.hpp"
#include "scan/common/csv.hpp"
#include "scan/common/rng.hpp"
#include "scan/common/str.hpp"
#include "scan/sim/calendar.hpp"
#include "scan/sim/simulator.hpp"

namespace scan::bench {
namespace {

using sim::EventCallback;
using sim::LadderCalendar;
using sim::ReferenceCalendar;
using sim::Simulator;

/// The shape of the scheduler's largest event capture (48 bytes): a this
/// pointer plus job/worker/epoch identifiers and two times. std::function
/// heap-allocates it (16-byte SBO); EventCallback stores it inline.
struct HotCapture {
  std::uint64_t job = 0;
  std::uint64_t worker = 0;
  std::uint64_t epoch = 0;
  double start = 0.0;
  double deadline = 0.0;
  void* self = nullptr;
};
static_assert(sizeof(HotCapture) == 48);

enum class Increments { kStageLattice, kExponential, kBurst };

struct ScenarioSpec {
  std::string name;
  Increments increments = Increments::kStageLattice;
  bool cancel_heavy = false;
};

/// The profiled stage-duration lattice: GATK stage times quantize onto a
/// discrete grid (per-stage factor x shard size), so the calendar of a
/// 10k-worker run holds completion times that tie heavily.
constexpr double kStageDurations[] = {0.5, 1.0, 1.5, 2.0, 2.5,
                                      3.0, 4.0, 5.0, 6.0, 8.0};

struct LegResult {
  double seconds = 0.0;
  std::uint64_t executed = 0;
  std::uint64_t checksum = 0;
  sim::CalendarStats calendar;  // ladder leg only
};

double NextIncrement(RandomStream& rng, Increments kind) {
  switch (kind) {
    case Increments::kStageLattice:
      return kStageDurations[rng.UniformBelow(10)];
    case Increments::kBurst:
      // Coarse 0.5-tick quantization: ~dozens of simultaneous events per
      // tick at 10k pending.
      return 0.5 * static_cast<double>(1 + rng.UniformBelow(40));
    case Increments::kExponential:
      break;
  }
  return rng.Exponential(1.0);
}

/// Production leg: ladder calendar, arena nodes, inline callbacks.
LegResult RunLadderLeg(const ScenarioSpec& spec, std::uint64_t events,
                       std::uint64_t pending, Simulator& dummy) {
  LadderCalendar calendar;
  RandomStream rng(42, "des-hotpath");
  std::unordered_set<std::uint64_t> cancelled;
  std::uint64_t next_seq = 1;
  std::uint64_t checksum = 0;
  double now = 0.0;

  const auto push = [&](double when, bool cancel) {
    const std::uint64_t seq = next_seq++;
    HotCapture capture{seq, seq ^ 0x5a5a, seq >> 3, when, when + 1.0, nullptr};
    calendar.Push(when, seq, EventCallback([capture, &checksum](Simulator&) {
                    checksum ^= MixSeed(capture.job, capture.worker) +
                                static_cast<std::uint64_t>(capture.start);
                  }));
    if (cancel) cancelled.insert(seq);
  };

  for (std::uint64_t i = 0; i < pending; ++i) {
    push(NextIncrement(rng, spec.increments), false);
  }

  LegResult result;
  const auto start = std::chrono::steady_clock::now();
  while (result.executed < events) {
    LadderCalendar::Entry entry = calendar.PopMin();
    if (!cancelled.empty() && cancelled.erase(entry.seq) > 0) {
      calendar.ReleaseNode(entry.node);
      continue;
    }
    now = entry.when;
    entry.node->cb(dummy);
    calendar.ReleaseNode(entry.node);
    ++result.executed;
    push(now + NextIncrement(rng, spec.increments), false);
    if (spec.cancel_heavy) {
      push(now + NextIncrement(rng, spec.increments), true);
    }
  }
  result.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  result.checksum = checksum;
  result.calendar = calendar.stats();
  return result;
}

/// Baseline leg: the pre-ladder binary heap of fat std::function events.
LegResult RunReferenceLeg(const ScenarioSpec& spec, std::uint64_t events,
                          std::uint64_t pending, Simulator& dummy) {
  ReferenceCalendar calendar;
  RandomStream rng(42, "des-hotpath");
  std::unordered_set<std::uint64_t> cancelled;
  std::uint64_t next_seq = 1;
  std::uint64_t checksum = 0;
  double now = 0.0;

  const auto push = [&](double when, bool cancel) {
    const std::uint64_t seq = next_seq++;
    HotCapture capture{seq, seq ^ 0x5a5a, seq >> 3, when, when + 1.0, nullptr};
    calendar.Push(when, seq, [capture, &checksum](Simulator&) {
      checksum ^= MixSeed(capture.job, capture.worker) +
                  static_cast<std::uint64_t>(capture.start);
    });
    if (cancel) cancelled.insert(seq);
  };

  for (std::uint64_t i = 0; i < pending; ++i) {
    push(NextIncrement(rng, spec.increments), false);
  }

  LegResult result;
  const auto start = std::chrono::steady_clock::now();
  while (result.executed < events) {
    ReferenceCalendar::Event event = calendar.PopMin();
    if (!cancelled.empty() && cancelled.erase(event.seq) > 0) continue;
    now = event.when;
    event.cb(dummy);
    ++result.executed;
    push(now + NextIncrement(rng, spec.increments), false);
    if (spec.cancel_heavy) {
      push(now + NextIncrement(rng, spec.increments), true);
    }
  }
  result.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  result.checksum = checksum;
  return result;
}

}  // namespace
}  // namespace scan::bench

static int Main(int argc, char** argv) {
  using namespace scan;
  using namespace scan::bench;

  const Flags flags(argc, argv);
  const auto obs = MakeObsSession(flags);
  const auto events =
      static_cast<std::uint64_t>(flags.GetDouble("events", 1'000'000));
  const auto pending =
      static_cast<std::uint64_t>(flags.GetDouble("pending", 10'000));
  const int reps = flags.GetInt("reps", 3);
  const TableOutput output(flags);
  flags.RejectUnread();

  const std::vector<ScenarioSpec> scenarios = {
      {"des_10kworkers_1mjobs", Increments::kStageLattice, false},
      {"exp_hold", Increments::kExponential, false},
      {"arrival_burst", Increments::kBurst, false},
      {"cancel_heavy", Increments::kStageLattice, true},
  };

  sim::Simulator dummy;  // callbacks take Simulator&; never touched
  CsvTable table({"scenario", "pending", "events", "reference_eps",
                  "ladder_eps", "speedup", "reseeds", "bucket_sorts",
                  "checksum_match"});
  for (const ScenarioSpec& spec : scenarios) {
    // Untimed warm-up pass primes the allocator and branch predictors.
    (void)RunLadderLeg(spec, events / 10, pending, dummy);
    (void)RunReferenceLeg(spec, events / 10, pending, dummy);

    LegResult ladder = RunLadderLeg(spec, events, pending, dummy);
    LegResult reference = RunReferenceLeg(spec, events, pending, dummy);
    for (int rep = 1; rep < reps; ++rep) {
      const LegResult l = RunLadderLeg(spec, events, pending, dummy);
      if (l.seconds < ladder.seconds) ladder = l;
      const LegResult r = RunReferenceLeg(spec, events, pending, dummy);
      if (r.seconds < reference.seconds) reference = r;
    }
    const double ladder_eps =
        static_cast<double>(ladder.executed) / ladder.seconds;
    const double reference_eps =
        static_cast<double>(reference.executed) / reference.seconds;
    const bool match = ladder.checksum == reference.checksum &&
                       ladder.executed == reference.executed;
    table.AddRow({spec.name, StrFormat("%llu", (unsigned long long)pending),
                  StrFormat("%llu", (unsigned long long)events),
                  StrFormat("%.0f", reference_eps),
                  StrFormat("%.0f", ladder_eps),
                  StrFormat("%.2f", ladder_eps / reference_eps),
                  StrFormat("%llu", (unsigned long long)ladder.calendar.reseeds),
                  StrFormat("%llu",
                            (unsigned long long)ladder.calendar.bucket_sorts),
                  match ? "yes" : "DIVERGED"});
    if (!match) {
      std::fprintf(stderr, "FATAL: legs diverged on %s\n", spec.name.c_str());
      return 1;
    }
  }

  Emit(table, output);
  return 0;
}

int main(int argc, char** argv) {
  return scan::bench::RunMain(Main, argc, argv);
}
