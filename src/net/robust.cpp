#include "net/robust.h"

#include <algorithm>

namespace spfe::net {

const char* server_fate_name(ServerFate fate) {
  switch (fate) {
    case ServerFate::kOk:
      return "ok";
    case ServerFate::kUnavailable:
      return "unavailable";
    case ServerFate::kMalformed:
      return "malformed";
    case ServerFate::kCorrected:
      return "corrected";
    case ServerFate::kSpare:
      return "spare";
  }
  return "?";
}

const char* blame_name(Blame blame) {
  switch (blame) {
    case Blame::kNone:
      return "none";
    case Blame::kByzantine:
      return "byzantine";
    case Blame::kCrashed:
      return "crashed";
    case Blame::kStraggler:
      return "straggler";
  }
  return "?";
}

namespace {

void append_verdict_lines(std::string& out, const std::vector<ServerReport>& verdicts,
                          const char* indent) {
  for (std::size_t s = 0; s < verdicts.size(); ++s) {
    if (verdicts[s].fate == ServerFate::kOk) continue;
    out += "\n";
    out += indent;
    out += "server " + std::to_string(s) + ": " + server_fate_name(verdicts[s].fate);
    if (verdicts[s].blame != Blame::kNone) {
      out += " blame=" + std::string(blame_name(verdicts[s].blame));
    }
    if (!verdicts[s].detail.empty()) out += " (" + verdicts[s].detail + ")";
    if (verdicts[s].answer_us > 0) {
      out += " [answer at +" + std::to_string(verdicts[s].answer_us) + "us]";
    }
  }
}

}  // namespace

std::string AttemptRecord::summary() const {
  std::string out = "attempt " + std::to_string(attempt) + ": ";
  out += failure_reason.empty() ? "decoded" : failure_reason;
  if (ended_us > started_us) {
    out += " [" + std::to_string(started_us) + "us..+" + std::to_string(ended_us - started_us) +
           "us]";
  }
  append_verdict_lines(out, verdicts, "    ");
  return out;
}

std::string RobustnessReport::summary() const {
  std::string out = success ? "robust run succeeded" : "robust run FAILED";
  out += " after " + std::to_string(attempts) + " attempt(s): " + std::to_string(servers) +
         " servers, " + std::to_string(erasures) + " erasure(s), " +
         std::to_string(errors_corrected) + " corrected error(s)";
  if (completion_us > 0) out += ", " + std::to_string(completion_us) + "us virtual time";
  if (!failure_reason.empty()) out += "; " + failure_reason;
  append_verdict_lines(out, verdicts, "  ");
  // Earlier attempts (the final attempt's verdicts are already shown above).
  if (history.size() > 1) {
    for (std::size_t i = 0; i + 1 < history.size(); ++i) {
      out += "\n  " + history[i].summary();
    }
  }
  return out;
}

void drain_star_network(StarNetwork& net) {
  // A clocked network discards abandoned traffic without waiting for it —
  // flushing through timed receives would charge the client virtual time
  // for answers it no longer wants.
  if (auto* sim = dynamic_cast<SimStarNetwork*>(&net)) {
    sim->discard_in_flight();
    return;
  }
  // A plain network delivers every queued message.
  for (std::size_t s = 0; s < net.num_servers(); ++s) {
    while (net.server_has_message(s)) net.server_receive(s);
    while (net.client_has_message(s)) net.client_receive(s);
  }
}

namespace detail {

std::uint64_t backoff_wait_us(const TimingPolicy& tp, std::size_t attempt) {
  std::uint64_t wait = tp.backoff_base_us;
  for (std::size_t i = 1; i < attempt && wait < tp.backoff_max_us; ++i) {
    wait *= 2;
  }
  wait = std::min(wait, tp.backoff_max_us);
  const std::uint64_t jitter_cap =
      wait / 1000 * tp.backoff_jitter_permille +
      wait % 1000 * tp.backoff_jitter_permille / 1000;
  if (jitter_cap == 0) return wait;
  crypto::Prg prg(tp.backoff_seed);
  return wait + prg.fork("backoff-" + std::to_string(attempt)).uniform(jitter_cap + 1);
}

std::vector<std::size_t> resolve_send_order(const TimingPolicy& tp, std::size_t k) {
  if (tp.send_order.empty()) {
    std::vector<std::size_t> order(k);
    for (std::size_t s = 0; s < k; ++s) order[s] = s;
    return order;
  }
  if (tp.send_order.size() != k) {
    throw InvalidArgument("TimingPolicy: send_order must cover every server");
  }
  std::vector<char> seen(k, 0);
  for (const std::size_t s : tp.send_order) {
    if (s >= k || seen[s] != 0) {
      throw InvalidArgument("TimingPolicy: send_order must be a permutation of 0..k-1");
    }
    seen[s] = 1;
  }
  return tp.send_order;
}

std::vector<std::size_t> deprioritize_blamed(const std::vector<std::size_t>& order,
                                             const std::vector<ServerReport>& verdicts) {
  // Culpability rank: no evidence < slow < silent < caught lying. A liar is
  // the worst retry candidate — it *will* spend error budget again — while
  // a straggler may simply have been unlucky.
  const auto rank = [&](std::size_t s) -> int {
    if (s >= verdicts.size()) return 0;
    switch (verdicts[s].blame) {
      case Blame::kNone:
        return 0;
      case Blame::kStraggler:
        return 1;
      case Blame::kCrashed:
        return 2;
      case Blame::kByzantine:
        return 3;
    }
    return 0;
  };
  std::vector<std::size_t> out = order;
  std::stable_sort(out.begin(), out.end(),
                   [&](std::size_t a, std::size_t b) { return rank(a) < rank(b); });
  return out;
}

}  // namespace detail

}  // namespace spfe::net
