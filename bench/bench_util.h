// Shared helpers for the experiment-reproduction benches.
//
// Each bench binary regenerates one experiment row set from DESIGN.md's
// experiment index (EXPERIMENTS.md records the measured output). Protocol
// benches print fixed-width tables: communication is measured exactly by
// net::StarNetwork, wall time by steady_clock around the in-process run.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "net/network.h"
#include "obs/obs.h"

namespace spfe::bench {

// True if `flag` (e.g. "--smoke") appears among the argv strings.
inline bool has_flag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return true;
  }
  return false;
}

// Machine-readable bench output. Rows accumulate in memory; write() emits
// BENCH_<name>.json into $SPFE_BENCH_JSON_DIR (or the working directory) as
// a JSON array of {op, size, ns_per_op, bytes} objects, plus "rounds" on
// protocol rows — the format CI uploads as an artifact and EXPERIMENTS.md
// tables are regenerated from.
class JsonReport {
 public:
  explicit JsonReport(std::string name) : name_(std::move(name)) {}

  void add(const std::string& op, std::uint64_t size, double ns_per_op, std::uint64_t bytes,
           std::optional<double> rounds = std::nullopt) {
    rows_.push_back({op, size, ns_per_op, bytes, rounds});
  }

  // Serializes the report. A NaN/inf ns_per_op (zero-iteration or clock-glitch
  // rows) is emitted as null — "%.1f" would print "nan"/"inf", which are not
  // JSON tokens and break every strict consumer downstream.
  std::string to_json() const {
    std::string out = "[\n";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      const Entry& r = rows_[i];
      char num[64];
      if (std::isfinite(r.ns_per_op)) {
        std::snprintf(num, sizeof num, "%.1f", r.ns_per_op);
      } else {
        std::snprintf(num, sizeof num, "null");
      }
      out += "  {\"op\": \"";
      for (const char c : r.op) {
        if (c == '"' || c == '\\') out += '\\';
        out += c;
      }
      out += "\", \"size\": " + std::to_string(r.size) + ", \"ns_per_op\": " + num +
             ", \"bytes\": " + std::to_string(r.bytes);
      if (r.rounds.has_value()) {
        std::snprintf(num, sizeof num, "%.1f", *r.rounds);
        out += ", \"rounds\": " + std::string(num);
      }
      out += "}";
      if (i + 1 != rows_.size()) out += ',';
      out += '\n';
    }
    out += "]\n";
    return out;
  }

  // Writes BENCH_<name>.json atomically (temp file + rename): a crash or a
  // full disk leaves either the previous report or none, never a truncated
  // one, and every I/O failure is checked and reported. Returns success.
  // A `smoke` run writes only into $SPFE_BENCH_JSON_DIR, never the working
  // directory, so it cannot replace a committed full-run report.
  bool write(bool smoke = false) const {
    const char* dir = std::getenv("SPFE_BENCH_JSON_DIR");
    const bool have_dir = dir != nullptr && *dir != '\0';
    if (smoke && !have_dir) {
      std::printf("\n[json] smoke run: BENCH_%s.json not written (set SPFE_BENCH_JSON_DIR)\n",
                  name_.c_str());
      return true;
    }
    std::string path = have_dir ? std::string(dir) + "/" : std::string();
    path += "BENCH_" + name_ + ".json";
    const std::string tmp = path + ".tmp";
    std::FILE* f = std::fopen(tmp.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "JsonReport: cannot open %s for writing\n", tmp.c_str());
      return false;
    }
    const std::string json = to_json();
    const bool write_ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
    const bool close_ok = std::fclose(f) == 0;
    if (!write_ok || !close_ok) {
      std::fprintf(stderr, "JsonReport: short write to %s\n", tmp.c_str());
      std::remove(tmp.c_str());
      return false;
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
      std::fprintf(stderr, "JsonReport: rename %s -> %s failed\n", tmp.c_str(), path.c_str());
      std::remove(tmp.c_str());
      return false;
    }
    std::printf("\n[json] wrote %s (%zu rows)\n", path.c_str(), rows_.size());
    return true;
  }

 private:
  struct Entry {
    std::string op;
    std::uint64_t size;
    double ns_per_op;
    std::uint64_t bytes;
    std::optional<double> rounds;
  };
  std::string name_;
  std::vector<Entry> rows_;
};

class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  double ms() const {
    return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

inline std::string human_bytes(std::uint64_t b) {
  char buf[32];
  if (b < 10 * 1024) {
    std::snprintf(buf, sizeof buf, "%llu B", static_cast<unsigned long long>(b));
  } else if (b < 10 * 1024 * 1024) {
    std::snprintf(buf, sizeof buf, "%.1f KiB", static_cast<double>(b) / 1024.0);
  } else {
    std::snprintf(buf, sizeof buf, "%.1f MiB", static_cast<double>(b) / (1024.0 * 1024.0));
  }
  return buf;
}

struct Row {
  std::vector<std::string> cells;
};

class Table {
 public:
  explicit Table(std::vector<std::string> header) : header_(std::move(header)) {}

  void add(std::vector<std::string> cells) { rows_.push_back({std::move(cells)}); }

  void print() const {
    std::vector<std::size_t> widths(header_.size());
    for (std::size_t c = 0; c < header_.size(); ++c) widths[c] = header_[c].size();
    for (const Row& r : rows_) {
      for (std::size_t c = 0; c < r.cells.size() && c < widths.size(); ++c) {
        widths[c] = std::max(widths[c], r.cells[c].size());
      }
    }
    auto print_row = [&](const std::vector<std::string>& cells) {
      std::printf("|");
      for (std::size_t c = 0; c < widths.size(); ++c) {
        const std::string& v = c < cells.size() ? cells[c] : std::string();
        std::printf(" %-*s |", static_cast<int>(widths[c]), v.c_str());
      }
      std::printf("\n");
    };
    print_row(header_);
    std::printf("|");
    for (const std::size_t w : widths) std::printf("%s|", std::string(w + 2, '-').c_str());
    std::printf("\n");
    for (const Row& r : rows_) print_row(r.cells);
  }

 private:
  std::vector<std::string> header_;
  std::vector<Row> rows_;
};

inline std::string fmt(const char* f, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, f, v);
  return buf;
}

inline std::string fmt_u(std::uint64_t v) { return std::to_string(v); }

inline std::string rounds_str(const net::CommStats& s) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "%.1f", s.rounds());
  return buf;
}

// Prints the tracer's per-phase summary (wall time + crypto ops per span
// name) followed by the span/global counter consistency check: when every
// counted op ran under some root span, the root-span sums equal the global
// totals. Returns false when they disagree (an op ran outside all spans).
inline bool print_obs_summary() {
  const obs::Tracer& tracer = obs::Tracer::global();
  const std::vector<obs::SpanSummary> rows = tracer.summary();
  if (rows.empty()) {
    std::printf("[obs] no spans recorded\n");
    return true;
  }
  Table table({"phase", "calls", "total ms", "top ops"});
  for (const obs::SpanSummary& s : rows) {
    // Show the three largest counters; the trace JSON has the full set.
    std::vector<std::pair<std::uint64_t, std::size_t>> top;
    for (std::size_t i = 0; i < obs::kNumOps; ++i) {
      if (s.ops[i] != 0) top.push_back({s.ops[i], i});
    }
    std::sort(top.begin(), top.end(), [](const auto& a, const auto& b) {
      return a.first != b.first ? a.first > b.first : a.second < b.second;
    });
    std::string ops;
    for (std::size_t i = 0; i < top.size() && i < 3; ++i) {
      if (!ops.empty()) ops += " ";
      ops += std::string(obs::op_name(static_cast<obs::Op>(top[i].second))) + "=" +
             std::to_string(top[i].first);
    }
    table.add({s.name, fmt_u(s.calls), fmt("%.2f", static_cast<double>(s.total_ns) / 1e6),
               ops});
  }
  table.print();

  const obs::OpCounts roots = tracer.root_totals();
  const obs::OpCounts totals = tracer.totals();
  bool consistent = true;
  for (std::size_t i = 0; i < obs::kNumOps; ++i) {
    if (roots[i] != totals[i]) {
      consistent = false;
      std::printf("[obs] INCONSISTENT %s: root spans=%llu global=%llu\n",
                  obs::op_name(static_cast<obs::Op>(i)),
                  static_cast<unsigned long long>(roots[i]),
                  static_cast<unsigned long long>(totals[i]));
    }
  }
  if (consistent) std::printf("[obs] span/global op counts consistent\n");
  return consistent;
}

}  // namespace spfe::bench
