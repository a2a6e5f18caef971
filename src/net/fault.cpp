#include "net/fault.h"

#include <utility>

namespace spfe::net {

const char* fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kDrop:
      return "drop";
    case FaultKind::kCorruptByte:
      return "corrupt-byte";
    case FaultKind::kTruncate:
      return "truncate";
    case FaultKind::kDuplicate:
      return "duplicate";
    case FaultKind::kDelayHalfRound:
      return "delay-half-round";
  }
  return "?";
}

void FaultPlan::add(Direction direction, std::size_t server, std::size_t ordinal, Fault fault) {
  if (direction == Direction::kNone) {
    throw InvalidArgument("FaultPlan: faults must target a concrete direction");
  }
  if (fault.kind == FaultKind::kCorruptByte && fault.xor_mask == 0) {
    throw InvalidArgument("FaultPlan: corrupt-byte fault needs a nonzero mask");
  }
  faults_.emplace(Key{static_cast<int>(direction), server, ordinal}, fault);
}

void FaultPlan::crash_after(std::size_t server, std::size_t ops) {
  crash_points_.emplace(server, ops);
}

const Fault* FaultPlan::find(Direction direction, std::size_t server, std::size_t ordinal) const {
  auto it = faults_.find(Key{static_cast<int>(direction), server, ordinal});
  return it == faults_.end() ? nullptr : &it->second;
}

std::optional<std::size_t> FaultPlan::crash_point(std::size_t server) const {
  auto it = crash_points_.find(server);
  if (it == crash_points_.end()) return std::nullopt;
  return it->second;
}

FaultPlan FaultPlan::random(crypto::Prg& prg, std::size_t num_servers, std::size_t byzantine,
                            std::size_t unavailable, std::size_t rounds) {
  if (byzantine + unavailable > num_servers) {
    throw InvalidArgument("FaultPlan::random: more faulty servers than servers");
  }
  FaultPlan plan;

  // Fisher-Yates over server indices; the first `byzantine` entries corrupt,
  // the next `unavailable` entries crash/drop — disjoint by construction.
  std::vector<std::size_t> order(num_servers);
  for (std::size_t i = 0; i < num_servers; ++i) order[i] = i;
  for (std::size_t i = num_servers; i > 1; --i) {
    std::swap(order[i - 1], order[prg.uniform(i)]);
  }
  plan.byzantine_.assign(order.begin(), order.begin() + static_cast<std::ptrdiff_t>(byzantine));
  plan.unavailable_.assign(order.begin() + static_cast<std::ptrdiff_t>(byzantine),
                           order.begin() + static_cast<std::ptrdiff_t>(byzantine + unavailable));

  for (std::size_t b : plan.byzantine_) {
    for (std::size_t r = 0; r < rounds; ++r) {
      Fault f;
      switch (prg.uniform(3)) {
        case 0:
          // Flip a low-order byte of the answer: the corrupted value usually
          // stays inside the field, i.e. a silent lie only Berlekamp-Welch
          // can catch.
          f.kind = FaultKind::kCorruptByte;
          f.byte_index = prg.uniform(6);
          f.xor_mask = static_cast<std::uint8_t>(1 + prg.uniform(255));
          plan.add(Direction::kServerToClient, b, r, f);
          break;
        case 1:
          // Truncated answer: detected at the parser, costs an erasure.
          f.kind = FaultKind::kTruncate;
          f.keep_bytes = prg.uniform(8);
          plan.add(Direction::kServerToClient, b, r, f);
          break;
        default:
          // Corrupt the query instead: the server answers honestly on a
          // mangled query, which surfaces as either a rejection or a silently
          // wrong answer.
          f.kind = FaultKind::kCorruptByte;
          f.byte_index = prg.uniform(64);
          f.xor_mask = static_cast<std::uint8_t>(1 + prg.uniform(255));
          plan.add(Direction::kClientToServer, b, r, f);
          break;
      }
    }
  }

  for (std::size_t u : plan.unavailable_) {
    switch (prg.uniform(3)) {
      case 0:
        plan.crash_after(u, prg.uniform(3));
        break;
      case 1:
        // Answers never arrive (or arrive a half-round late).
        for (std::size_t r = 0; r < rounds; ++r) {
          Fault f;
          f.kind = prg.coin() ? FaultKind::kDrop : FaultKind::kDelayHalfRound;
          plan.add(Direction::kServerToClient, u, r, f);
        }
        break;
      default:
        // Queries never arrive: the server times out waiting.
        for (std::size_t r = 0; r < rounds; ++r) {
          plan.add(Direction::kClientToServer, u, r, Fault{FaultKind::kDrop, 0, 0x01, 0});
        }
        break;
    }
  }

  // Benign duplicates anywhere: cost nothing from the e/c budget, so robust
  // decoding must shrug them off. emplace keeps any fault already scheduled.
  std::size_t dups = prg.uniform(num_servers + 1);
  for (std::size_t i = 0; i < dups; ++i) {
    Direction dir = prg.coin() ? Direction::kClientToServer : Direction::kServerToClient;
    plan.faults_.emplace(
        Key{static_cast<int>(dir), prg.uniform(num_servers), prg.uniform(rounds)},
        Fault{FaultKind::kDuplicate, 0, 0x01, 0});
  }
  return plan;
}

}  // namespace spfe::net
