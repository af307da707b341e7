#pragma once

// Shared helpers for the exhibit-reproduction binaries: a tiny flag parser
// that refuses flags the binary never reads, a main guard that turns an
// option the platform rejects into exit 2, and common output plumbing.
// Every bench prints the rows/series of its paper table or figure to
// stdout and optionally saves CSV via --csv=PATH or JSON via --json=PATH
// (an array of {column: value} objects, numbers unquoted).

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "scan/common/csv.hpp"
#include "scan/common/str.hpp"
#include "scan/obs/session.hpp"

namespace scan::bench {

/// Minimal --flag=value / --flag parser. Every Has/Get* call marks the
/// flag it names as read, so the binary's own reads are the list of flags
/// it takes: RejectUnread() then refuses any other flag.
class Flags {
 public:
  Flags(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      std::string_view arg = argv[i];
      if (!StartsWith(arg, "--")) {
        std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
        std::exit(2);
      }
      arg.remove_prefix(2);
      const std::size_t eq = arg.find('=');
      if (eq == std::string_view::npos) {
        values_.push_back({std::string(arg), ""});
      } else {
        values_.push_back({std::string(arg.substr(0, eq)),
                           std::string(arg.substr(eq + 1))});
      }
    }
  }

  [[nodiscard]] bool Has(std::string_view name) const {
    return Find(name) != nullptr;
  }

  [[nodiscard]] std::string GetString(std::string_view name,
                                      std::string fallback) const {
    const Flag* flag = Find(name);
    return flag == nullptr ? fallback : flag->value;
  }

  [[nodiscard]] double GetDouble(std::string_view name,
                                 double fallback) const {
    const Flag* flag = Find(name);
    if (flag == nullptr) return fallback;
    const auto parsed = ParseDouble(flag->value);
    if (!parsed) {
      std::fprintf(stderr, "bad value for --%s\n", std::string(name).c_str());
      std::exit(2);
    }
    return *parsed;
  }

  [[nodiscard]] int GetInt(std::string_view name, int fallback) const {
    return static_cast<int>(GetDouble(name, fallback));
  }

  /// Exits 2, naming it, if a flag was given that no Has/Get* call has
  /// read: a misspelt or retired flag must not leave the binary running
  /// its defaults. Call it once every flag the binary takes has been read,
  /// before any work starts.
  void RejectUnread() const {
    for (const Flag& flag : values_) {
      if (!flag.read) {
        std::fprintf(stderr, "unknown flag: --%s\n", flag.name.c_str());
        std::exit(2);
      }
    }
  }

 private:
  struct Flag {
    std::string name;
    std::string value;
    mutable bool read = false;
  };

  /// The first flag called `name` (or nullptr); marks every one read.
  const Flag* Find(std::string_view name) const {
    const Flag* first = nullptr;
    for (const Flag& flag : values_) {
      if (flag.name != name) continue;
      flag.read = true;
      if (first == nullptr) first = &flag;
    }
    return first;
  }

  std::vector<Flag> values_;
};

/// Runs a binary's main body. An option value the platform rejects
/// escapes the body as a std::invalid_argument: its message is printed and
/// the binary exits 2, as for an unknown flag, instead of aborting through
/// std::terminate.
inline int RunMain(int (*body)(int, char**), int argc, char** argv) {
  try {
    return body(argc, argv);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
}

/// Where Emit saves a table besides printing it: --csv=PATH and
/// --json=PATH. Build it with the binary's other flag reads, before
/// Flags::RejectUnread.
struct TableOutput {
  explicit TableOutput(const Flags& flags)
      : csv_path(flags.GetString("csv", "")),
        json_path(flags.GetString("json", "")) {}

  std::string csv_path;
  std::string json_path;
};

/// JSON string literal with the escapes that can appear in table cells.
inline std::string JsonQuote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
  out += '"';
  return out;
}

/// Cells that parse as finite numbers are emitted unquoted so downstream
/// tooling (plotting scripts, jq) gets real JSON numbers.
inline std::string JsonCell(const std::string& cell) {
  const auto parsed = ParseDouble(cell);
  if (parsed && std::isfinite(*parsed)) return cell;
  return JsonQuote(cell);
}

/// Serializes the table as an array of {column: value} objects.
inline bool SaveJson(const CsvTable& table, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  out << "[\n";
  for (std::size_t r = 0; r < table.data().size(); ++r) {
    const auto& row = table.data()[r];
    out << "  {";
    for (std::size_t c = 0; c < table.header().size(); ++c) {
      if (c > 0) out << ", ";
      out << JsonQuote(table.header()[c]) << ": " << JsonCell(row[c]);
    }
    out << (r + 1 < table.data().size() ? "},\n" : "}\n");
  }
  out << "]\n";
  return out.good();
}

/// Prints the table and saves it to the output's CSV and JSON paths, if
/// set.
inline void Emit(const CsvTable& table, const TableOutput& output) {
  table.WritePretty(std::cout);
  if (!output.csv_path.empty()) {
    if (table.SaveCsv(output.csv_path)) {
      std::cout << "\n[csv saved to " << output.csv_path << "]\n";
    } else {
      std::cerr << "failed to save CSV to " << output.csv_path << "\n";
    }
  }
  if (!output.json_path.empty()) {
    if (SaveJson(table, output.json_path)) {
      std::cout << "\n[json saved to " << output.json_path << "]\n";
    } else {
      std::cerr << "failed to save JSON to " << output.json_path << "\n";
    }
  }
}

/// "mean +- stddev" cell.
inline std::string MeanStd(double mean, double stddev) {
  return StrFormat("%.1f +- %.1f", mean, stddev);
}

/// Observability wiring shared by every bench/example binary:
///   --trace=PATH           trace events (.jsonl = JSONL, else Chrome JSON)
///   --metrics=PATH         metrics (.json = snapshot, else Prometheus text)
///   --audit=PATH           scheduler decision audit (JSONL)
///   --trace-capacity=N     per-thread trace ring size (events)
/// Construction enables the requested subsystems; exports happen when the
/// returned session leaves scope (keep it alive for the whole run).
[[nodiscard]] inline obs::ObsSession MakeObsSession(const Flags& flags) {
  obs::ObsOptions opts;
  opts.trace_path = flags.GetString("trace", "");
  opts.metrics_path = flags.GetString("metrics", "");
  opts.audit_path = flags.GetString("audit", "");
  opts.trace_capacity =
      static_cast<std::size_t>(flags.GetDouble("trace-capacity", 0.0));
  return obs::ObsSession(std::move(opts));
}

}  // namespace scan::bench
