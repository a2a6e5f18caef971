// Shared types of the end-to-end benchmark (see main.cpp for the run
// structure and run.py for how it is built and invoked).
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "net/network.h"
#include "obs/obs.h"

namespace perfbench {

// What one query of a workload produced, as seen by the client.
struct QueryResult {
  bool correct = false;       // equal to the plaintext oracle
  spfe::net::CommStats comm;  // metered bytes, messages and half-rounds
  std::uint64_t sim_us = 0;   // virtual completion time of the query
  std::uint64_t attempts = 0;  // robust attempts (k-server workload only)
  std::uint64_t errors_corrected = 0;
};

// Probe timings of single public calls at the workload's operand sizes,
// keyed by per-layer metric name (units as in layers.cpp).
using ProbeResults = std::map<std::string, double>;

// One benchmark workload. The constructor generates the inputs from the
// workload seed and is not timed; setup() builds everything the user pays
// for before the first query (keys, protocol and session objects) and is
// timed as setup_s; query(q) runs the q-th query of the seeded schedule
// against the plaintext oracle.
class Workload {
 public:
  virtual ~Workload() = default;

  // Pinned ThreadPool size for the whole run.
  virtual std::size_t threads() const = 0;
  // Queries every run completes, whatever --seconds says. The exact
  // per-query figures (bytes, rounds, virtual completion) are taken over
  // this seed-determined prefix, so a same-seed rerun reproduces them.
  virtual std::size_t exact_queries() const = 0;
  // Queries the traced run replays, once untraced and once traced.
  virtual std::size_t traced_queries() const = 0;
  // True when every query must meter identical bytes whatever cohort it
  // selects (the single-server protocols send fixed-size messages).
  virtual bool fixed_size_queries() const = 0;
  // Bytes of the whole private column: the cost of simply downloading it.
  virtual std::uint64_t column_bytes() const = 0;

  // Builds a fresh instance. `rep` > 0 draws keys from another seed branch
  // (for the setup median); the queries always run on the rep-0 instance.
  virtual void setup(std::size_t rep) = 0;
  virtual QueryResult query(std::size_t q) = 0;
  // Times the workload's per-layer probes on the current instance.
  virtual ProbeResults probe() = 0;
};

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed);

// A reported metric: its unit, which direction is better, and (for the
// per-layer ones) the end-to-end metric and workloads it should move. The
// names and units match BENCHMARK.json, which run.py checks on every run.
struct MetricSpec {
  const char* name;
  const char* unit;
  const char* better;
  const char* moves = "";
  const char* workloads = "";
};

const std::vector<MetricSpec>& per_layer_metrics();

// Everything the traced run hands to the per-layer analysis.
struct TracedRun {
  std::size_t queries = 0;                 // traced (and untraced) queries
  std::vector<spfe::obs::SpanRecord> spans;  // traced phase only
  std::vector<QueryResult> results;        // traced phase, in query order
  ProbeResults probes;
  double untraced_p50_s = 0;
  double traced_p50_s = 0;
  double cpu_util = 0;                     // untraced phase
  double ops_attributed = 0;               // root-span ops / all counted ops
  std::uint64_t column_bytes = 0;
};

// Name of the benchmark's own per-query span; every library span of the
// traced phase nests under it.
inline constexpr const char* kQuerySpan = "perfbench.query";

// Per-layer metric values (every name of per_layer_metrics()).
std::map<std::string, double> layer_values(const TracedRun& run);

// Wall time of each span name minus its child spans, summed over the trace.
std::map<std::string, double> self_seconds_by_name(
    const std::vector<spfe::obs::SpanRecord>& spans);

// Seconds per call of `fn`: the median over `samples` batches, each batch
// repeating the call until it has lasted at least `min_batch_s`.
template <typename Fn>
double probe_seconds(Fn&& fn, std::size_t samples = 5, double min_batch_s = 0.02) {
  using Clock = std::chrono::steady_clock;
  std::vector<double> per_call;
  for (std::size_t s = 0; s < samples; ++s) {
    const auto start = Clock::now();
    std::size_t calls = 0;
    double elapsed = 0;
    do {
      fn();
      ++calls;
      elapsed = std::chrono::duration<double>(Clock::now() - start).count();
    } while (elapsed < min_batch_s);
    per_call.push_back(elapsed / static_cast<double>(calls));
  }
  std::sort(per_call.begin(), per_call.end());
  return per_call[per_call.size() / 2];
}

}  // namespace perfbench
