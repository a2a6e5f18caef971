// Adaptive Byzantine adversary engine: strategic, colluding, content-aware.
//
// Every fault a `FaultPlan` injects is *oblivious* — a seeded
// schedule fixed before the protocol starts, blind to message content. Real
// attacks on deployed PIR-style protocols are not: the Bringer–Chabanne
// EPIR break and the Beimel–Nissim–Omri privacy decomposition both condition
// server misbehavior on what the server *sees*. This layer models that
// adversary class:
//
//   * an `AdversaryStrategy` drives a set of controlled servers. Each
//     controlled server exposes its full local view (`LinkView`): every
//     query received and answer sent on its link, with virtual timestamps
//     and per-direction ordinals (for the one-round star protocols the
//     query ordinal IS the robust attempt counter on that link);
//   * a `Coalition` shares all member views plus free-form scratch slots,
//     so <= e colluders can coordinate (agree on one forged polynomial,
//     crash in the same instant, compare query arrival times to detect
//     hedge dispatches);
//   * the network (`SimStarNetwork`) interposes the engine on the
//     server->client response path: a controlled server's honest answer
//     can be sent, replaced, dropped, or delayed — decided per message,
//     after reading it.
//
// Metering contract: a replaced answer is a real transmission (metered at
// its actual size); a dropped answer is byzantine *silence* — nothing was
// transmitted, nothing is metered (same as a crashed server); a delayed
// answer is metered normally and arrives `delay_us` late (the untimed
// robust path, which collects at the attempt's start, counts any positive
// delay as a straggler for that attempt).
//
// Determinism: strategies are pure functions of (local views, coalition
// state, their own config). No wall clocks, no global randomness — a
// schedule that includes an adversary replays byte-identically at any
// SPFE_THREADS (asserted in tests/adversary_test.cpp).
//
// Shipped strategy library (see DESIGN.md "Threat model matrix"):
//   consistent-lie          colluders answer on P + delta for one shared
//                           nonzero delta: every corrupted point lies on a
//                           common degree-d polynomial — the attack class
//                           that defeats naive d+1 decoding and the reason
//                           the early-decode quorum is d + 1 + 2e
//   crash-at-worst-time     answer honestly until trusted, then all
//                           colluders go silent in the same attempt —
//                           *after* swallowing the query, so the client
//                           burns its full deadline per colluder at the
//                           moment the quorum deficit is maximal
//   equivocate-across-retries  honest on attempt 0, lie on every retry:
//                           probes whether re-randomized retries are
//                           independently protected
//   targeted-straggle       colluders compare query arrival times; a member
//                           whose query arrived long after the coalition's
//                           earliest (i.e. it was dispatched as a hedge
//                           spare) straggles its answer to defeat the
//                           TimingPolicy
//   selective-failure       misbehave only when the observed query bytes
//                           satisfy a predicate — the classic privacy
//                           attack on retry protocols, answered by the
//                           re-randomization harness in
//                           tests/adversary_test.cpp
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/error.h"
#include "crypto/prg.h"

namespace spfe::net {

// One message observed on a controlled server's link, as the server saw it
// (queries post-wire-fault, answers pre-interposition).
struct LinkEvent {
  enum class Dir : std::uint8_t { kQueryIn, kAnswerOut };
  Dir dir = Dir::kQueryIn;
  Bytes payload;
  // Virtual time the message landed on / left the server's local timeline
  // (0 over untimed networks).
  std::uint64_t at_us = 0;
  // Per-direction ordinal on this link. One-round star protocols send one
  // query per attempt per queried server, so for them the query ordinal is
  // the attempt counter as this link experienced it (a hedge spare skips
  // the attempts it was never dispatched in).
  std::size_t ordinal = 0;
};

// Full local view of one controlled server.
struct LinkView {
  std::size_t server = 0;
  std::vector<LinkEvent> events;
  std::size_t queries_seen = 0;
  std::size_t answers_sent = 0;

  // Most recent query on this link, or nullptr before any arrived.
  const LinkEvent* last_query() const;
};

// Shared state of <= e colluding servers: every member reads every other
// member's full view, plus named u64 scratch slots for agreed-on values
// (a forged delta, a crash trigger, ...).
class Coalition {
 public:
  explicit Coalition(std::vector<std::size_t> members);

  const std::vector<std::size_t>& members() const { return members_; }
  std::size_t size() const { return members_.size(); }
  bool contains(std::size_t server) const;

  const LinkView& view_of(std::size_t server) const;

  // Earliest virtual arrival time among the members' *most recent* queries
  // (nullopt until any member has seen a query). Targeted-straggle uses the
  // gap to this time to recognize a hedge dispatch.
  std::optional<std::uint64_t> earliest_last_query_us() const;

  // Named shared scratch; created zero on first access.
  std::uint64_t& slot(const std::string& key) { return slots_[key]; }
  bool has_slot(const std::string& key) const { return slots_.count(key) != 0; }

 private:
  friend class AdversaryEngine;
  std::vector<std::size_t> members_;
  std::map<std::size_t, LinkView> views_;
  std::map<std::string, std::uint64_t> slots_;
};

// What a controlled server does with the honest answer it is about to send.
struct AdversaryAction {
  enum class Kind : std::uint8_t { kSendHonest, kReplace, kDrop, kDelay };
  Kind kind = Kind::kSendHonest;
  Bytes replacement;         // kReplace: the forged wire bytes
  std::uint64_t delay_us = 0;  // kDelay: extra answer latency

  static AdversaryAction honest() { return {}; }
  static AdversaryAction replace(Bytes forged);
  static AdversaryAction drop();
  static AdversaryAction delay(std::uint64_t delay_us);
};

const char* adversary_action_name(AdversaryAction::Kind kind);

class AdversaryStrategy {
 public:
  virtual ~AdversaryStrategy() = default;
  virtual const char* name() const = 0;

  // A controlled server received `link.events.back()` (a query).
  virtual void on_query(const LinkView& link, Coalition& coalition) {
    (void)link;
    (void)coalition;
  }
  // A controlled server is about to send `honest_answer`.
  virtual AdversaryAction on_answer(const LinkView& link, BytesView honest_answer,
                                    Coalition& coalition) = 0;
};

// Per-server interposition tallies (for tests and reports).
struct AdversaryStats {
  std::uint64_t queries_observed = 0;
  std::uint64_t answers_honest = 0;
  std::uint64_t answers_forged = 0;
  std::uint64_t answers_dropped = 0;
  std::uint64_t answers_delayed = 0;
};

// Binds one strategy to one coalition and interposes on a star network.
// The engine outlives the network runs that reference it (the networks hold
// a non-owning pointer; tests stack-allocate engine above network).
class AdversaryEngine {
 public:
  AdversaryEngine(std::shared_ptr<AdversaryStrategy> strategy,
                  std::vector<std::size_t> controlled);

  bool controls(std::size_t server) const { return coalition_.contains(server); }
  const Coalition& coalition() const { return coalition_; }
  const AdversaryStrategy& strategy() const { return *strategy_; }
  const LinkView& view(std::size_t server) const { return coalition_.view_of(server); }
  const AdversaryStats& stats(std::size_t server) const;
  AdversaryStats total_stats() const;

  // Network hooks. Only ever called for controlled servers.
  void observe_query(std::size_t server, BytesView query, std::uint64_t at_us);
  AdversaryAction intercept_answer(std::size_t server, BytesView honest_answer,
                                   std::uint64_t at_us);

 private:
  LinkView& mutable_view(std::size_t server);

  std::shared_ptr<AdversaryStrategy> strategy_;
  Coalition coalition_;
  std::map<std::size_t, AdversaryStats> stats_;
};

// ---------------------------------------------------------------------------
// Strategy library.

// Reads the leading 8-byte little-endian field element of `honest`, adds
// `delta` mod `modulus`, and returns the re-serialized answer (trailing
// bytes preserved). Nullopt when the answer is too short to forge.
std::optional<Bytes> forge_field_answer(BytesView honest, std::uint64_t modulus,
                                        std::uint64_t delta);

// Colluders answer y + delta(x) for one shared polynomial offset. The
// shipped offset is the constant delta (degree 0): whatever the honest
// answers' polynomial P is, every corrupted point lies on P + delta — a
// *consistent* degree-d polynomial, indistinguishable from honest points by
// any per-point check. At the bare d+1 interpolation quorum a single such
// lie decodes to a wrong-but-consistent polynomial (the tightness witness
// in tests/adversary_test.cpp); at d + 1 + 2e, Berlekamp–Welch corrects up
// to e of them.
class ConsistentLieStrategy : public AdversaryStrategy {
 public:
  ConsistentLieStrategy(std::uint64_t modulus, std::uint64_t delta);

  const char* name() const override { return "consistent-lie"; }
  AdversaryAction on_answer(const LinkView& link, BytesView honest_answer,
                            Coalition& coalition) override;

 private:
  std::uint64_t modulus_;
  std::uint64_t delta_;
};

// Answer honestly for `honest_attempts` queries (earning healthy-first send
// priority), then every colluder goes silent in the same attempt — the
// coalition-wide maximum query ordinal arms the trigger, so a member that
// was held back as a spare crashes in lockstep with the members that were
// queried. Silence happens *after* the query is swallowed: the client has
// already committed an attempt deadline to this server, which is the worst
// virtual instant to learn nothing is coming (crash-at-worst-time).
class CrashAtWorstTimeStrategy : public AdversaryStrategy {
 public:
  explicit CrashAtWorstTimeStrategy(std::size_t honest_attempts = 1);

  const char* name() const override { return "crash-at-worst-time"; }
  void on_query(const LinkView& link, Coalition& coalition) override;
  AdversaryAction on_answer(const LinkView& link, BytesView honest_answer,
                            Coalition& coalition) override;

 private:
  std::size_t honest_attempts_;
};

// Honest on each link's first query, forged (consistent-lie style) on every
// later one: probes whether the re-randomized retry path is as protected as
// the first attempt.
class EquivocateAcrossRetriesStrategy : public AdversaryStrategy {
 public:
  EquivocateAcrossRetriesStrategy(std::uint64_t modulus, std::uint64_t delta);

  const char* name() const override { return "equivocate-across-retries"; }
  AdversaryAction on_answer(const LinkView& link, BytesView honest_answer,
                            Coalition& coalition) override;

 private:
  std::uint64_t modulus_;
  std::uint64_t delta_;
};

// Straggle only hedge dispatches: a colluder whose query arrived more than
// `spare_gap_us` after the coalition's earliest concurrent query was
// dispatched late — i.e. it is a hedge spare sent to rescue the attempt —
// and delays its answer by `straggle_us` to defeat the TimingPolicy's
// rescue. Primaries answer honestly (no budget spent, nothing for the
// health tracker to demote). Needs virtual timestamps; over untimed
// networks every arrival time is 0 and the strategy stays honest.
class TargetedStraggleStrategy : public AdversaryStrategy {
 public:
  TargetedStraggleStrategy(std::uint64_t spare_gap_us, std::uint64_t straggle_us);

  const char* name() const override { return "targeted-straggle"; }
  AdversaryAction on_answer(const LinkView& link, BytesView honest_answer,
                            Coalition& coalition) override;

 private:
  std::uint64_t spare_gap_us_;
  std::uint64_t straggle_us_;
};

// Misbehave only when the observed query bytes satisfy `predicate` — the
// classic selective-failure privacy attack on retry protocols: if retries
// were not re-randomized, which attempts the adversary kills would be
// correlated with the client's secret. The harness in
// tests/adversary_test.cpp verifies the kill pattern is statistically
// independent of the retrieved index.
class SelectiveFailureStrategy : public AdversaryStrategy {
 public:
  using Predicate = std::function<bool(BytesView query)>;

  SelectiveFailureStrategy(Predicate predicate, AdversaryAction on_match);

  // Canonical content predicate: true when `query[byte_index] & mask` is
  // nonzero (byte_index reduced mod the query size; empty queries never
  // match).
  static Predicate byte_mask(std::size_t byte_index, std::uint8_t mask = 0x01);

  const char* name() const override { return "selective-failure"; }
  AdversaryAction on_answer(const LinkView& link, BytesView honest_answer,
                            Coalition& coalition) override;

  // How often the predicate matched (kills) vs not — the adversary's whole
  // observable decision sequence, exposed for the independence harness.
  std::uint64_t matches() const { return matches_; }
  std::uint64_t misses() const { return misses_; }

 private:
  Predicate predicate_;
  AdversaryAction on_match_;
  std::uint64_t matches_ = 0;
  std::uint64_t misses_ = 0;
};

// ---------------------------------------------------------------------------
// Seeded strategy sampling for chaos-style sweeps.

enum class StrategyKind : std::uint8_t {
  kConsistentLie,
  kCrashAtWorstTime,
  kEquivocateAcrossRetries,
  kTargetedStraggle,
  kSelectiveFailure,
};
inline constexpr std::size_t kNumStrategyKinds = 5;

const char* strategy_kind_name(StrategyKind kind);

// Materializes `kind` with parameters drawn from `prg` (lie deltas in
// [1, modulus), probe bytes, straggle latencies). Deterministic per seed.
std::shared_ptr<AdversaryStrategy> make_strategy(StrategyKind kind, std::uint64_t modulus,
                                                 crypto::Prg& prg);

// True when every behavior `kind` can exhibit stays within the *byzantine*
// budget accounting (a lie costs 2 points); crash/straggle/selective-drop
// strategies only cost erasures and fit either budget.
bool strategy_lies(StrategyKind kind);

}  // namespace spfe::net
