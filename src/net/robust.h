// Byzantine/crash-tolerant client driver for the one-round star protocols,
// with an optional virtual-time availability policy (deadlines, seeded
// exponential backoff, hedged queries).
//
// All §3.1-style protocols share one shape: the client sends k independent
// queries, every server replies with one point of a degree-d polynomial, and
// the client interpolates at 0. `run_robust_star` runs that exchange against
// an unreliable network: servers that time out (`ServerUnavailable`) or send
// unparseable answers become *erasures*; the surviving points go through
// Berlekamp–Welch, which additionally corrects up to floor((s-d-1)/2) silent
// lies among s survivors. A client provisioned with k >= d + 1 + 2e + c
// servers therefore tolerates any mix of <= e corruptions and <= c crashes
// (a detected fault costs one point, an undetected one costs two).
//
// If an attempt is not decodable the client retries with *fresh randomness*
// (new curve, new SPIR mask seed — query points are never reused, so the
// privacy of the retrieved index is preserved across retries; see DESIGN.md
// "Fault model and robust reconstruction"). After `max_attempts` the driver
// throws `RobustProtocolError` carrying a `RobustnessReport` with the full
// per-attempt verdict history — never a wrong value, never a hang.
//
// Timed mode (`RobustConfig::timing.enabled` over a `net::SimStarNetwork`):
//   * every attempt gets a virtual-time deadline; answers still in flight
//     when it expires are deadline misses, not mystery hangs;
//   * retries wait out a seeded exponential backoff (with jitter) in
//     virtual time before re-querying;
//   * hedged queries: of the k provisioned servers only k - h *primaries*
//     are queried up front; when a primary straggles past the hedge
//     deadline (a latency quantile, see net/health.h), the driver
//     speculatively dispatches the *fresh, independent* query points it
//     already generated for up to h spare servers and decodes from
//     whichever answers land first. Every server still sees at most one
//     point of the attempt's degree-t curve, so t-privacy is untouched
//     (see DESIGN.md "Time, deadlines, and hedging").
// Otherwise the driver runs the untimed robust path: one zero-time round
// per attempt. Over a SimStarNetwork it collects answers with the deadline
// at the attempt's start, so an answer that is not ready then (a delay
// fault, an adversary's delay) is a straggler erasure for that attempt; at
// zero latency the clock never moves.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/error.h"
#include "crypto/prg.h"
#include "field/field.h"
#include "field/reed_solomon.h"
#include "net/network.h"
#include "net/sim.h"
#include "obs/obs.h"

namespace spfe::net {

enum class ServerFate : std::uint8_t {
  kOk,           // answered; answer lay on the decoded polynomial
  kUnavailable,  // crashed / dropped / delayed past the deadline (erasure)
  kMalformed,    // rejected the query or sent an unparseable answer (erasure)
  kCorrected,    // answered in-field but off-polynomial (a corrected lie)
  kSpare,        // held in reserve as a hedge spare; never queried
};

const char* server_fate_name(ServerFate fate);

// *Why* a server earned its fate — the culpability axis the fate alone
// conflates: kUnavailable covers both a crashed channel (nothing will ever
// arrive) and a straggler (the answer is in flight but late), and both
// kMalformed and kCorrected are evidence of a lying server. Operators page
// on byzantine, wait out stragglers, and replace crashes; the health
// tracker (net/health.h) prices the three differently.
enum class Blame : std::uint8_t {
  kNone,       // ok, or held in reserve: no evidence against the server
  kByzantine,  // caught lying: off-polynomial answer, unparseable answer,
               // or a rejected query on a channel that delivered it
  kCrashed,    // silent: nothing in flight when the client gave up
  kStraggler,  // slow: an answer was in flight but missed a deadline
};

const char* blame_name(Blame blame);

struct ServerReport {
  ServerFate fate = ServerFate::kOk;
  std::string detail;
  // Virtual-time answer latency (receive - attempt start), 0 when the
  // answer never arrived or the network is untimed.
  std::uint64_t answer_us = 0;
  Blame blame = Blame::kNone;
};

// One attempt's complete outcome, kept so a failed run is diagnosable from
// the terminal error alone: which servers failed *each* time, not just the
// last time.
struct AttemptRecord {
  std::size_t attempt = 0;
  std::vector<ServerReport> verdicts;
  std::string failure_reason;  // empty when the attempt decoded
  std::uint64_t started_us = 0;  // virtual time; 0 over untimed networks
  std::uint64_t ended_us = 0;

  std::string summary() const;
};

// Diagnostic attached to every robust run (and to the terminal error):
// which servers were excluded and why, what the decoding cost, and the
// verdicts of every attempt along the way.
struct RobustnessReport {
  bool success = false;
  std::size_t attempts = 0;
  std::size_t servers = 0;
  std::size_t erasures = 0;          // final attempt: queried but unusable
  std::size_t errors_corrected = 0;  // final attempt: off-polynomial answers
  std::vector<ServerReport> verdicts;  // final attempt, one per server
  std::string failure_reason;          // empty on success
  std::vector<AttemptRecord> history;  // one record per attempt, in order
  // Virtual time from the first attempt's start to the decode (or to the
  // terminal failure); 0 over untimed networks.
  std::uint64_t completion_us = 0;

  std::string summary() const;
};

// Virtual-time availability policy. Only effective when the run's network
// is a SimStarNetwork; over untimed networks the policy is ignored and the
// driver behaves exactly like the untimed robust path.
struct TimingPolicy {
  bool enabled = false;
  // Per-attempt deadline: answers not decodable by then fail the attempt.
  std::uint64_t attempt_timeout_us = 20'000;
  // Hedge trigger: a primary that has not answered this long after the
  // queries went out is a straggler, and spares are dispatched. Set from a
  // latency quantile when history exists (ServerHealthTracker). 0 disables
  // hedging.
  std::uint64_t hedge_timeout_us = 0;
  // Servers held back as hedge spares (h of the k provisioned).
  std::size_t hedge_spares = 0;
  // Silent-lie budget the early decode must honor: an in-attempt decode is
  // trusted only once degree + 1 + 2*byzantine_budget usable answers are
  // in, because Berlekamp–Welch on s points corrects just
  // floor((s-d-1)/2) lies — at the bare d+1 quorum a single lie decodes
  // to a consistent wrong polynomial. Keep this equal to the e used when
  // provisioning k = d + 1 + 2e + c + spares.
  std::size_t byzantine_budget = 0;
  // Seeded exponential backoff between attempts: wait
  // min(base * 2^(attempt-1), max) plus uniform jitter of up to
  // jitter_permille/1000 of the wait.
  std::uint64_t backoff_base_us = 1'000;
  std::uint64_t backoff_max_us = 32'000;
  std::uint32_t backoff_jitter_permille = 500;
  crypto::Prg::Seed backoff_seed{};
  // Send order: the first k - h entries are primaries, the tail the hedge
  // spares (healthy-first from ServerHealthTracker::ranked_order()).
  // Empty = identity. Must be a permutation of 0..k-1.
  std::vector<std::size_t> send_order;
};

struct RobustConfig {
  // Query rounds before giving up (>= 1). Each retry re-randomizes.
  std::size_t max_attempts = 3;
  TimingPolicy timing;
};

// Servers to provision so degree-`degree` decoding survives <= `byzantine`
// silent lies and <= `crashes` crash faults, with `spares` extra servers
// held back for hedging.
constexpr std::size_t provisioned_servers(std::size_t degree, std::size_t byzantine,
                                          std::size_t crashes, std::size_t spares = 0) {
  return degree + 1 + 2 * byzantine + crashes + spares;
}

class RobustProtocolError : public ProtocolError {
 public:
  RobustProtocolError(const std::string& what, RobustnessReport report)
      : ProtocolError(what + "\n" + report.summary()), report_(std::move(report)) {}

  const RobustnessReport& report() const { return report_; }

 private:
  RobustnessReport report_;
};

// A robust run's result: the honest protocol output plus the diagnostic.
struct RobustResult {
  std::uint64_t value = 0;
  RobustnessReport report;
};

// Discards every queued message so `net.idle()` holds again. Over a
// SimStarNetwork the abandoned messages are dropped without being received,
// so the clock does not move (the client does not wait for answers it no
// longer wants).
void drain_star_network(StarNetwork& net);

namespace detail {

// Backoff wait for retry `attempt` (>= 1): exponential with seeded jitter.
std::uint64_t backoff_wait_us(const TimingPolicy& tp, std::size_t attempt);

// Validated send order: identity when unset.
std::vector<std::size_t> resolve_send_order(const TimingPolicy& tp, std::size_t k);

// Re-ranks `order` by the blame a failed attempt assigned: unblamed servers
// first, then stragglers, then crashed, then caught liars — so a retry's
// primaries (the head of the order) and hedge spares are drawn from
// honest-looking replicas before servers with evidence against them. The
// sort is stable: within one blame class the incoming (healthy-first)
// order is preserved.
std::vector<std::size_t> deprioritize_blamed(const std::vector<std::size_t>& order,
                                             const std::vector<ServerReport>& verdicts);

}  // namespace detail

// Runs one robust exchange. Callbacks:
//   make_queries(attempt, abscissae_out) -> k query messages; must use fresh
//       randomness each attempt and record each server's abscissa;
//   server_eval(server, attempt, query) -> answer bytes; a thrown spfe::Error
//       means the server rejected the (possibly mangled) query;
//   parse_answer(answer) -> field value; a thrown spfe::Error marks the
//       answer malformed (an erasure, not a decoding input).
// Returns the polynomial's value at 0 and the report. Throws
// RobustProtocolError when no attempt decodes.
template <field::FieldLike F, typename MakeQueries, typename ServerEval, typename ParseAnswer>
std::pair<typename F::value_type, RobustnessReport> run_robust_star(
    const F& field, StarNetwork& net, std::size_t degree, const RobustConfig& cfg,
    MakeQueries&& make_queries, ServerEval&& server_eval, ParseAnswer&& parse_answer) {
  using V = typename F::value_type;
  if (cfg.max_attempts == 0) {
    throw InvalidArgument("run_robust_star: max_attempts must be >= 1");
  }
  const std::size_t k = net.num_servers();
  auto* sim = dynamic_cast<SimStarNetwork*>(&net);
  const bool timed = sim != nullptr && cfg.timing.enabled;

  RobustnessReport report;
  report.servers = k;

  // --- shared per-attempt machinery -----------------------------------------
  // One server's full exchange on the server side; failures become verdicts.
  const auto server_phase = [&](std::size_t s, std::size_t attempt) {
    try {
      Bytes query = net.server_receive(s);
      Bytes ans = server_eval(s, attempt, std::move(query));
      net.server_send(s, std::move(ans));
    } catch (const DeadlineMiss& e) {
      report.verdicts[s] = {ServerFate::kUnavailable, e.what(), 0, Blame::kStraggler};
    } catch (const ServerUnavailable& e) {
      report.verdicts[s] = {ServerFate::kUnavailable, e.what(), 0, Blame::kCrashed};
    } catch (const Error& e) {
      // The channel delivered a query this server refused: either the wire
      // corrupted it or the server is lying about it — blamed on the server,
      // matching how FaultPlan::random charges query corruption to its
      // byzantine set.
      report.verdicts[s] = {ServerFate::kMalformed,
                            std::string("server rejected query: ") + e.what(), 0,
                            Blame::kByzantine};
    }
    // Flush duplicate queries so they cannot shadow the next attempt.
    while (net.server_has_message(s)) {
      try {
        net.server_receive(s);
      } catch (const ServerUnavailable&) {
      }
    }
  };

  if (!timed) {
    // ---------------------------- untimed path ---------------------------------
    for (std::size_t attempt = 0; attempt < cfg.max_attempts; ++attempt) {
      obs::Span attempt_span("robust.attempt");
      attempt_span.note("attempt=" + std::to_string(attempt));
      if (attempt > 0) obs::count(obs::Op::kRobustRetry);
      report.attempts = attempt + 1;
      report.verdicts.assign(k, ServerReport{});
      // Stale messages from a previous attempt (delayed answers, duplicates)
      // must never leak into this attempt's decode.
      if (attempt > 0) drain_star_network(net);

      std::vector<V> abscissae;
      const std::vector<Bytes> queries = make_queries(attempt, abscissae);
      if (queries.size() != k || abscissae.size() != k) {
        throw InvalidArgument("run_robust_star: make_queries must cover every server");
      }
      for (std::size_t s = 0; s < k; ++s) net.client_send(s, queries[s]);

      // Server side: evaluate and reply; a server that never saw its query
      // or rejected it sends nothing.
      for (std::size_t s = 0; s < k; ++s) server_phase(s, attempt);

      // Client side: collect whatever arrived. Over a SimStarNetwork that is
      // whatever is ready at the attempt's start; anything later stays
      // queued until the next drain.
      if (sim != nullptr) sim->set_deadline(sim->clock().now_us());
      std::vector<V> xs, ys;
      std::vector<std::size_t> owners;  // survivor -> server index
      for (std::size_t s = 0; s < k; ++s) {
        if (report.verdicts[s].fate == ServerFate::kOk) {
          try {
            const Bytes answer = net.client_receive(s);
            const V y = parse_answer(answer);
            xs.push_back(abscissae[s]);
            ys.push_back(y);
            owners.push_back(s);
          } catch (const DeadlineMiss& e) {
            report.verdicts[s] = {ServerFate::kUnavailable, e.what(), 0, Blame::kStraggler};
          } catch (const ServerUnavailable& e) {
            report.verdicts[s] = {ServerFate::kUnavailable, e.what(), 0, Blame::kCrashed};
          } catch (const Error& e) {
            report.verdicts[s] = {ServerFate::kMalformed,
                                  std::string("unparseable answer: ") + e.what(), 0,
                                  Blame::kByzantine};
          }
        }
      }
      if (sim != nullptr) sim->set_deadline(SimStarNetwork::kNoDeadline);

      if (xs.size() >= degree + 1) {
        const auto decoding = field::decode_with_erasures(field, xs, ys, degree);
        if (decoding.has_value()) {
          for (const std::size_t i : decoding->error_positions()) {
            report.verdicts[owners[i]] = {ServerFate::kCorrected,
                                          "answer did not lie on the decoded polynomial", 0,
                                          Blame::kByzantine};
          }
          report.success = true;
          report.erasures = k - xs.size();
          report.errors_corrected = decoding->num_errors();
          report.failure_reason.clear();
          report.history.push_back({attempt, report.verdicts, "", 0, 0});
          attempt_span.note("ok erasures=" + std::to_string(report.erasures) +
                            " corrected=" + std::to_string(report.errors_corrected));
          drain_star_network(net);
          return {decoding->eval(field, field.zero()), std::move(report)};
        }
        report.failure_reason = "surviving answers not within the correctable error budget (" +
                                std::to_string(xs.size()) + " of " + std::to_string(k) +
                                " usable, degree " + std::to_string(degree) + ")";
      } else {
        report.failure_reason = "only " + std::to_string(xs.size()) + " of " +
                                std::to_string(k) + " answers usable; interpolation needs " +
                                std::to_string(degree + 1);
      }
      report.history.push_back({attempt, report.verdicts, report.failure_reason, 0, 0});
      attempt_span.note("failed: " + report.failure_reason);
    }

    report.success = false;
    drain_star_network(net);
    RobustnessReport thrown = report;
    throw RobustProtocolError("robust protocol failed after " +
                                  std::to_string(report.attempts) + " attempt(s)",
                              std::move(thrown));
  }

  // --------------------------- timed path ------------------------------------
  const TimingPolicy& tp = cfg.timing;
  const std::size_t decode_quorum = degree + 1 + 2 * tp.byzantine_budget;
  if (k < decode_quorum) {
    throw InvalidArgument("run_robust_star: fewer servers than the decode quorum needs");
  }
  std::vector<std::size_t> order = detail::resolve_send_order(tp, k);
  // Hedging never cuts the primaries below the decode quorum.
  const std::size_t spares =
      tp.hedge_timeout_us == 0 ? 0 : std::min(tp.hedge_spares, k - decode_quorum);
  const bool hedging = spares > 0;
  const std::size_t num_primaries = k - spares;
  const std::uint64_t session_start_us = sim->clock().now_us();

  for (std::size_t attempt = 0; attempt < cfg.max_attempts; ++attempt) {
    obs::Span attempt_span("robust.attempt");
    attempt_span.note("attempt=" + std::to_string(attempt) + " timed");
    if (attempt > 0) {
      obs::count(obs::Op::kRobustRetry);
      const std::uint64_t wait = detail::backoff_wait_us(tp, attempt);
      sim->clock().advance_by(wait);
      obs::count(obs::Op::kBackoffWait);
      attempt_span.note("backoff_us=" + std::to_string(wait));
      // Stale in-flight answers from the previous attempt are abandoned
      // without waiting for them.
      sim->discard_in_flight();
      // Retries learn from the failed attempt's blame: servers caught lying
      // or crashed go to the back of the order, so this attempt's primaries
      // and hedge spares come from honest-looking replicas first.
      order = detail::deprioritize_blamed(order, report.history.back().verdicts);
    }
    report.attempts = attempt + 1;
    report.verdicts.assign(k, ServerReport{});
    AttemptRecord rec;
    rec.attempt = attempt;
    rec.started_us = sim->clock().now_us();
    const std::uint64_t attempt_deadline = rec.started_us + tp.attempt_timeout_us;

    std::vector<V> abscissae;
    const std::vector<Bytes> queries = make_queries(attempt, abscissae);
    if (queries.size() != k || abscissae.size() != k) {
      throw InvalidArgument("run_robust_star: make_queries must cover every server");
    }

    std::vector<V> xs, ys;
    std::vector<std::size_t> owners;
    std::vector<char> collected(k, 0);
    std::optional<V> value;

    // Collects one answer; on a parse failure sets the malformed verdict.
    // On a timeout, `timeout_blame` says whether the answer is merely late
    // (in flight past the deadline) or will never come (crashed channel).
    enum class Collect { kGot, kTimeout, kBad };
    const auto collect = [&](std::size_t s, std::string* timeout_detail,
                             Blame* timeout_blame) -> Collect {
      try {
        const Bytes answer = net.client_receive(s);
        const V y = parse_answer(answer);
        xs.push_back(abscissae[s]);
        ys.push_back(y);
        owners.push_back(s);
        collected[s] = 1;
        report.verdicts[s].answer_us = sim->last_delivery_us() - rec.started_us;
        return Collect::kGot;
      } catch (const DeadlineMiss& e) {
        if (timeout_detail != nullptr) *timeout_detail = e.what();
        if (timeout_blame != nullptr) *timeout_blame = Blame::kStraggler;
        return Collect::kTimeout;
      } catch (const ServerUnavailable& e) {
        if (timeout_detail != nullptr) *timeout_detail = e.what();
        if (timeout_blame != nullptr) *timeout_blame = Blame::kCrashed;
        return Collect::kTimeout;
      } catch (const Error& e) {
        report.verdicts[s] = {ServerFate::kMalformed,
                              std::string("unparseable answer: ") + e.what(), 0,
                              Blame::kByzantine};
        return Collect::kBad;
      }
    };
    const auto try_decode = [&]() {
      if (value.has_value() || xs.size() < decode_quorum) return;
      const auto decoding = field::decode_with_erasures(field, xs, ys, degree);
      if (!decoding.has_value()) return;
      for (const std::size_t i : decoding->error_positions()) {
        report.verdicts[owners[i]] = {ServerFate::kCorrected,
                                      "answer did not lie on the decoded polynomial",
                                      report.verdicts[owners[i]].answer_us, Blame::kByzantine};
      }
      report.errors_corrected = decoding->num_errors();
      value = decoding->eval(field, field.zero());
    };

    // Queries go to the primaries; spares keep their (already generated,
    // never reused) points in reserve.
    for (std::size_t i = 0; i < num_primaries; ++i) net.client_send(order[i], queries[order[i]]);
    for (std::size_t i = 0; i < num_primaries; ++i) server_phase(order[i], attempt);

    // Pass 1: primaries, against the hedge deadline (or the full attempt
    // deadline when hedging is off).
    const std::uint64_t hedge_deadline =
        hedging ? std::min(attempt_deadline, rec.started_us + tp.hedge_timeout_us)
                : attempt_deadline;
    sim->set_deadline(hedge_deadline);
    std::vector<std::size_t> stragglers;
    for (std::size_t i = 0; i < num_primaries; ++i) {
      const std::size_t s = order[i];
      if (report.verdicts[s].fate != ServerFate::kOk) continue;
      std::string detail_msg;
      Blame timeout_blame = Blame::kCrashed;
      if (collect(s, &detail_msg, &timeout_blame) == Collect::kTimeout) {
        if (hedging) {
          stragglers.push_back(s);  // the hedge may still beat it
        } else {
          report.verdicts[s] = {ServerFate::kUnavailable, detail_msg, 0, timeout_blame};
        }
      }
    }
    try_decode();

    // Hedge dispatch: enough spares to cover the stragglers (or the quorum
    // deficit left by malformed primaries), spending the points already
    // generated for the spares (fresh and independent — never a reuse).
    std::vector<std::size_t> dispatched;
    const std::size_t quorum_deficit =
        xs.size() < decode_quorum ? decode_quorum - xs.size() : 0;
    const std::size_t hedges_wanted = std::max(stragglers.size(), quorum_deficit);
    if (!value.has_value() && hedging && hedges_wanted > 0) {
      for (std::size_t i = num_primaries; i < k && dispatched.size() < hedges_wanted;
           ++i) {
        const std::size_t s = order[i];
        net.client_send(s, queries[s]);
        obs::count(obs::Op::kHedgeSent);
        server_phase(s, attempt);
        dispatched.push_back(s);
      }
      attempt_span.note("hedged=" + std::to_string(dispatched.size()) +
                        " stragglers=" + std::to_string(stragglers.size()));

      // Wave A: the freshly dispatched spares get their own hedge window —
      // a straggling spare must not stall the quorum either.
      sim->set_deadline(std::min(attempt_deadline,
                                 sim->clock().now_us() + tp.hedge_timeout_us));
      std::vector<std::size_t> pending_spares;
      for (const std::size_t s : dispatched) {
        if (report.verdicts[s].fate != ServerFate::kOk) continue;
        if (value.has_value()) break;
        if (collect(s, nullptr, nullptr) == Collect::kGot) {
          obs::count(obs::Op::kHedgeWon);
          try_decode();
        } else {
          pending_spares.push_back(s);
        }
      }

      // Wave B: still short of a decode — escalate to the attempt deadline,
      // draining the still-owed answers in arrival order (an event-driven
      // client wakes on whichever lands first; a fixed escalation order
      // would block head-of-line on one straggler while a faster answer
      // sits ready).
      sim->set_deadline(attempt_deadline);
      std::vector<std::size_t> waiting = pending_spares;
      for (const std::size_t s : stragglers) {
        if (collected[s] == 0 && report.verdicts[s].fate == ServerFate::kOk) {
          waiting.push_back(s);
        }
      }
      while (!value.has_value() && !waiting.empty()) {
        const std::size_t pos = sim->earliest_client_ready(waiting).value_or(0);
        const std::size_t s = waiting[pos];
        waiting.erase(waiting.begin() + static_cast<std::ptrdiff_t>(pos));
        std::string detail_msg;
        Blame timeout_blame = Blame::kCrashed;
        const Collect got = collect(s, &detail_msg, &timeout_blame);
        if (got == Collect::kGot) {
          const bool was_spare =
              std::find(stragglers.begin(), stragglers.end(), s) == stragglers.end();
          if (was_spare) obs::count(obs::Op::kHedgeWon);
          try_decode();
        } else if (got == Collect::kTimeout) {
          report.verdicts[s] = {ServerFate::kUnavailable, detail_msg, 0, timeout_blame};
        }
      }
    }

    // Final bookkeeping for everything still unresolved. Servers abandoned
    // once the quorum was in were never observed crashed — their answers may
    // still be in flight, so the blame stays "straggler".
    for (const std::size_t s : stragglers) {
      if (collected[s] != 0 || report.verdicts[s].fate != ServerFate::kOk) continue;
      report.verdicts[s] = {ServerFate::kUnavailable,
                            value.has_value()
                                ? "straggler abandoned: quorum reached without it"
                                : "no usable answer before the attempt deadline",
                            0, Blame::kStraggler};
    }
    for (const std::size_t s : dispatched) {
      if (collected[s] != 0 || report.verdicts[s].fate != ServerFate::kOk) continue;
      report.verdicts[s] = {ServerFate::kUnavailable,
                            value.has_value()
                                ? "hedge answer abandoned: quorum reached without it"
                                : "hedge answer missed the attempt deadline",
                            0, Blame::kStraggler};
    }
    for (std::size_t i = num_primaries; i < k; ++i) {
      const std::size_t s = order[i];
      if (std::find(dispatched.begin(), dispatched.end(), s) == dispatched.end()) {
        report.verdicts[s] = {ServerFate::kSpare, "held in reserve; never queried"};
      }
    }
    sim->set_deadline(SimStarNetwork::kNoDeadline);
    rec.ended_us = sim->clock().now_us();

    const std::size_t queried = num_primaries + dispatched.size();
    if (value.has_value()) {
      report.success = true;
      report.erasures = queried - xs.size();
      report.failure_reason.clear();
      report.completion_us = rec.ended_us - session_start_us;
      rec.verdicts = report.verdicts;
      report.history.push_back(std::move(rec));
      attempt_span.note("ok erasures=" + std::to_string(report.erasures) +
                        " corrected=" + std::to_string(report.errors_corrected) +
                        " completion_us=" + std::to_string(report.completion_us));
      drain_star_network(net);
      return {*value, std::move(report)};
    }
    if (xs.size() >= decode_quorum) {
      report.failure_reason = "surviving answers not within the correctable error budget (" +
                              std::to_string(xs.size()) + " of " + std::to_string(queried) +
                              " queried usable, degree " + std::to_string(degree) + ")";
    } else {
      report.failure_reason = "only " + std::to_string(xs.size()) + " of " +
                              std::to_string(queried) +
                              " queried answers usable before the deadline; the decode "
                              "quorum needs " +
                              std::to_string(decode_quorum);
    }
    rec.failure_reason = report.failure_reason;
    rec.verdicts = report.verdicts;
    report.history.push_back(std::move(rec));
    attempt_span.note("failed: " + report.failure_reason);
  }

  report.success = false;
  report.completion_us = sim->clock().now_us() - session_start_us;
  drain_star_network(net);
  RobustnessReport thrown = report;
  throw RobustProtocolError("robust protocol failed after " + std::to_string(report.attempts) +
                                " attempt(s)",
                            std::move(thrown));
}

}  // namespace spfe::net
