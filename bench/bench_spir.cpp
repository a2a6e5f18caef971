// Experiment E5 — SPIR primitive costs, backing the paper's §1.2
// qualitative facts:
//   (1) SPIR(n,m,l) can be implemented more efficiently than m independent
//       SPIR(n,1,l) invocations — measured as batch (cuckoo) vs per-item;
//       per-item server computation is Omega(mn), batch is ~3n.
//   (2) recursion-depth trade-off for single-server cPIR (up-traffic
//       n^(1/d) per dimension vs response expansion 3^(d-1));
//   (3) multi-server IT PIR is computationally far cheaper than cPIR and
//       has lower communication at practical sizes;
//   (4) the multi-exponentiation fold kernel vs the naive per-row fold
//       (same bytes, shared squaring chains + window tables);
//   (5) the offline/online split for client query generation — a warm
//       randomness pool (he/precomp.h) turns every query encryption into
//       one modular multiplication, with a byte-identical transcript.
//
// `--smoke` shrinks every size so CI can run the full flow in seconds.
// Emits BENCH_spir.json (see bench_util.h JsonReport) next to the tables.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench_util.h"
#include "common/parallel.h"
#include "common/serialize.h"
#include "he/paillier.h"
#include "he/precomp.h"
#include "pir/batch_pir.h"
#include "pir/cpir.h"
#include "pir/itpir.h"
#include "pir_reference.h"

int main(int argc, char** argv) {
  using namespace spfe;

  const bool smoke = bench::has_flag(argc, argv, "--smoke");
  bench::JsonReport json("spir");

  std::printf("== E5: SPIR primitive costs%s ==\n\n", smoke ? " (--smoke)" : "");
  crypto::Prg prg("e5");
  const he::PaillierPrivateKey sk = he::paillier_keygen(prg, smoke ? 256 : 512);

  // --- cPIR depth ablation ---------------------------------------------------
  const std::size_t ablate_n = smoke ? 256 : 4096;
  std::printf("--- single-server cPIR recursion depth (n = %zu, one item) ---\n", ablate_n);
  {
    const std::size_t kN = ablate_n;
    std::vector<std::uint64_t> db(kN);
    for (std::size_t i = 0; i < kN; ++i) db[i] = (i * 29 + 1) % 100000;
    bench::Table table({"depth", "query", "answer", "total", "server ms", "client ms", "ok"});
    for (const std::size_t depth : {1u, 2u, 3u}) {
      const pir::PaillierPir p(sk.public_key(), kN, depth);
      pir::PaillierPir::ClientState state;
      const Bytes query = p.make_query(kN / 3, state, sk, prg);
      bench::Stopwatch s_server;
      const Bytes answer = p.answer_u64(db, query, prg);
      const double server_ms = s_server.ms();
      bench::Stopwatch s_client;
      const std::uint64_t got = p.decode_u64(sk, answer);
      table.add({std::to_string(depth), bench::human_bytes(query.size()),
                 bench::human_bytes(answer.size()),
                 bench::human_bytes(query.size() + answer.size()),
                 bench::fmt("%.0f", server_ms), bench::fmt("%.1f", s_client.ms()),
                 got == db[kN / 3] ? "yes" : "WRONG"});
      json.add("cpir_answer_d" + std::to_string(depth), kN, server_ms * 1e6,
               query.size() + answer.size());
    }
    table.print();
  }

  // --- offline/online query generation ---------------------------------------
  // The PR 7 acceptance gate: client query generation with a warm randomness
  // pool (all factors precomputed offline) vs a cold pool (every draw is a
  // synchronous miss). The transcript must not depend on warmth.
  std::printf("\n--- client query generation: cold vs warm randomness pool ---\n");
  {
    bench::Table table({"scheme", "n", "pool", "client ms", "speedup", "identical"});

    // Single-item depth-1 cPIR at full key size. Every PRG draw in
    // make_query is encryption randomness, so the pooled transcripts are
    // byte-identical to the plain-Prg one at the same seed (the precomp.h
    // determinism contract), warm or cold.
    {
      const std::size_t kN = smoke ? 256 : 4096;
      const he::PaillierPrivateKey qsk = smoke ? sk : he::paillier_keygen(prg, 1024);
      const he::PaillierPublicKey qpk = qsk.public_key();
      const pir::PaillierPir p(qpk, kN, 1);

      pir::PaillierPir::ClientState st_plain, st_cold, st_warm;
      crypto::Prg uprg("e5-qgen");
      const Bytes q_plain = p.make_query(kN / 3, st_plain, qsk, uprg);

      he::PoolConfig cfg;
      cfg.capacity = kN;  // a depth-1 query over n items consumes n factors
      he::PaillierRandomnessPool cold(qpk, crypto::Prg("e5-qgen"), cfg);
      bench::Stopwatch sw_cold;
      const Bytes q_cold = p.make_query(kN / 3, st_cold, cold);
      const double cold_ms = sw_cold.ms();

      he::PaillierRandomnessPool warm(qpk, crypto::Prg("e5-qgen"), cfg);
      warm.refill();  // offline phase, untimed
      bench::Stopwatch sw_warm;
      const Bytes q_warm = p.make_query(kN / 3, st_warm, warm);
      const double warm_ms = sw_warm.ms();

      const bool identical = q_plain == q_cold && q_plain == q_warm;
      const std::string scheme = "cPIR d1 (" + std::to_string(qpk.n().bit_length()) + "b)";
      table.add({scheme, std::to_string(kN), "cold", bench::fmt("%.0f", cold_ms), "1.00x",
                 identical ? "yes" : "NO (BUG)"});
      table.add({scheme, std::to_string(kN), "warm", bench::fmt("%.1f", warm_ms),
                 bench::fmt("%.1fx", cold_ms / warm_ms), identical ? "yes" : "NO (BUG)"});
      json.add("cpir_query_gen_cold", kN, cold_ms * 1e6, q_cold.size());
      json.add("cpir_query_gen_warm", kN, warm_ms * 1e6, q_warm.size());
    }

    // Batch SPIR query. The caller Prg also drives cuckoo seed selection
    // and eviction, so pooled differs from unpooled — but the transcript
    // depends only on the two seeds, never on warmth: cold-pool and
    // warm-pool bytes must match, and the warm run must be all hits.
    {
      const std::size_t n = smoke ? 256 : 1024;
      const std::size_t m = smoke ? 4 : 16;
      const pir::CuckooBatchPir p(sk.public_key(), n, m, 1);
      std::vector<std::size_t> indices;
      for (std::size_t j = 0; j < m; ++j) indices.push_back((j * 919 + 77) % n);

      pir::CuckooBatchPir::ClientState st_cold, st_warm;
      he::PaillierRandomnessPool cold(sk.public_key(), crypto::Prg("e5-qgen-pool"), {});
      crypto::Prg cprg("e5-qgen-batch");
      bench::Stopwatch sw_cold;
      const Bytes q_cold = p.make_query(indices, st_cold, sk, cprg, &cold);
      const double cold_ms = sw_cold.ms();

      he::PoolConfig wcfg;
      wcfg.capacity = static_cast<std::size_t>(cold.stats().draws);
      he::PaillierRandomnessPool warm(sk.public_key(), crypto::Prg("e5-qgen-pool"), wcfg);
      warm.refill();
      crypto::Prg wprg("e5-qgen-batch");
      bench::Stopwatch sw_warm;
      const Bytes q_warm = p.make_query(indices, st_warm, sk, wprg, &warm);
      const double warm_ms = sw_warm.ms();

      const bool identical = q_cold == q_warm && warm.stats().misses == 0;
      table.add({"batch SPIR d1", std::to_string(n), "cold", bench::fmt("%.0f", cold_ms),
                 "1.00x", identical ? "yes" : "NO (BUG)"});
      table.add({"batch SPIR d1", std::to_string(n), "warm", bench::fmt("%.1f", warm_ms),
                 bench::fmt("%.1fx", cold_ms / warm_ms), identical ? "yes" : "NO (BUG)"});
      json.add("spir_query_gen_cold", n, cold_ms * 1e6, q_cold.size());
      json.add("spir_query_gen_warm", n, warm_ms * 1e6, q_warm.size());
    }
    table.print();
  }

  // --- fold kernel ablation --------------------------------------------------
  // The multi-exp fold vs the original per-row mul_scalar/add fold (the
  // reference in tests/pir_reference.h), single-threaded so the win is
  // purely algorithmic.
  std::printf("\n--- cPIR fold kernel: multi-exp vs naive (n = %zu, 1 thread) ---\n", ablate_n);
  {
    const std::size_t kN = ablate_n;
    std::vector<std::uint64_t> db(kN);
    for (std::size_t i = 0; i < kN; ++i) db[i] = (i * 29 + 1) % 100000;
    common::ThreadPool::set_global_threads(1);
    bench::Table table({"depth", "kernel", "server ms", "speedup", "answer identical"});
    for (const std::size_t depth : {1u, 2u}) {
      const pir::PaillierPir multi(sk.public_key(), kN, depth);
      pir::PaillierPir::ClientState state;
      crypto::Prg qprg("e5-kernel-query");
      const Bytes query = multi.make_query(kN / 3, state, sk, qprg);
      // Identically seeded server PRGs: the kernels must emit the same bytes.
      crypto::Prg prg_naive("e5-kernel-answer"), prg_multi("e5-kernel-answer");
      bench::Stopwatch sw_naive;
      const Bytes a_naive = reference::naive_answer_u64(multi, db, query, prg_naive);
      const double naive_ms = sw_naive.ms();
      bench::Stopwatch sw_multi;
      const Bytes a_multi = multi.answer_u64(db, query, prg_multi);
      const double multi_ms = sw_multi.ms();
      const bool identical = a_naive == a_multi && multi.decode_u64(sk, a_multi) == db[kN / 3];
      table.add({std::to_string(depth), "naive", bench::fmt("%.0f", naive_ms), "1.00x",
                 identical ? "yes" : "NO (BUG)"});
      table.add({std::to_string(depth), "multi-exp", bench::fmt("%.0f", multi_ms),
                 bench::fmt("%.2fx", naive_ms / multi_ms), identical ? "yes" : "NO (BUG)"});
      json.add("cpir_answer_d" + std::to_string(depth) + "_kernel_naive", kN, naive_ms * 1e6,
               a_naive.size());
      json.add("cpir_answer_d" + std::to_string(depth) + "_kernel_multiexp", kN, multi_ms * 1e6,
               a_multi.size());
    }
    common::ThreadPool::set_global_threads(0);
    table.print();
  }

  // --- threaded server fold --------------------------------------------------
  std::printf("\n--- cPIR server answer vs thread count (n = %zu, depth 2) ---\n", ablate_n);
  {
    const std::size_t kN = ablate_n;
    std::vector<std::uint64_t> db(kN);
    for (std::size_t i = 0; i < kN; ++i) db[i] = (i * 29 + 1) % 100000;
    const pir::PaillierPir p(sk.public_key(), kN, 2);
    pir::PaillierPir::ClientState state;
    crypto::Prg qprg("e5-threads-query");
    const Bytes query = p.make_query(kN / 3, state, sk, qprg);
    bench::Table table({"threads", "server ms", "speedup", "answer identical"});
    double serial_ms = 0;
    Bytes serial_answer;
    for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
      common::ThreadPool::set_global_threads(threads);
      // Identically seeded per run: the transcript must not depend on the
      // thread count (randomness is pre-drawn serially in the fold).
      crypto::Prg aprg("e5-threads-answer");
      bench::Stopwatch sw;
      const Bytes answer = p.answer_u64(db, query, aprg);
      const double ms = sw.ms();
      if (threads == 1) {
        serial_ms = ms;
        serial_answer = answer;
      }
      table.add({std::to_string(threads), bench::fmt("%.0f", ms),
                 bench::fmt("%.2fx", serial_ms / ms),
                 answer == serial_answer ? "yes" : "NO (BUG)"});
      json.add("cpir_answer_d2_threads" + std::to_string(threads), kN, ms * 1e6, answer.size());
    }
    common::ThreadPool::set_global_threads(0);  // back to SPFE_THREADS / hw default
    table.print();
  }

  // --- batch vs per-item -----------------------------------------------------
  std::printf("\n--- SPIR(n,m): cuckoo batch vs m x SPIR(n,1)  (depth 1 buckets) ---\n");
  bench::Table batch_table({"n", "m", "variant", "up", "down", "server ms", "ok"});
  const std::vector<std::size_t> batch_ns = smoke ? std::vector<std::size_t>{256}
                                                  : std::vector<std::size_t>{1024, 4096};
  const std::vector<std::size_t> batch_ms = smoke ? std::vector<std::size_t>{4}
                                                  : std::vector<std::size_t>{4, 16};
  for (const std::size_t n : batch_ns) {
    for (const std::size_t m : batch_ms) {
      std::vector<std::uint64_t> db(n);
      for (std::size_t i = 0; i < n; ++i) db[i] = (i * 7 + 11) % 65536;
      std::vector<std::size_t> indices;
      for (std::size_t j = 0; j < m; ++j) indices.push_back((j * 919 + 77) % n);

      {  // m independent per-item queries (depth 2, the sensible single config).
        const pir::PaillierPir p(sk.public_key(), n, 2);
        std::uint64_t up = 0, down = 0;
        double server_ms = 0;
        bool ok = true;
        for (const std::size_t idx : indices) {
          pir::PaillierPir::ClientState state;
          const Bytes q = p.make_query(idx, state, sk, prg);
          up += q.size();
          bench::Stopwatch sw;
          const Bytes a = p.answer_u64(db, q, prg);
          server_ms += sw.ms();
          down += a.size();
          ok = ok && p.decode_u64(sk, a) == db[idx];
        }
        batch_table.add({std::to_string(n), std::to_string(m), "m x SPIR(n,1) d2",
                         bench::human_bytes(up), bench::human_bytes(down),
                         bench::fmt("%.0f", server_ms), ok ? "yes" : "WRONG"});
        json.add("spir_per_item_m" + std::to_string(m), n, server_ms * 1e6, up + down);
      }
      for (const std::size_t depth : {1u, 2u}) {  // cuckoo-batched query
        const pir::CuckooBatchPir p(sk.public_key(), n, m, depth);
        pir::CuckooBatchPir::ClientState state;
        const Bytes q = p.make_query(indices, state, sk, prg);
        bench::Stopwatch sw;
        const Bytes a = p.answer_u64(db, q, prg);
        const double server_ms = sw.ms();
        const auto got = p.decode_u64(sk, a, state);
        bool ok = true;
        for (std::size_t j = 0; j < m; ++j) ok = ok && got[j] == db[indices[j]];
        batch_table.add({std::to_string(n), std::to_string(m),
                         "SPIR(n,m) cuckoo d" + std::to_string(depth),
                         bench::human_bytes(q.size()), bench::human_bytes(a.size()),
                         bench::fmt("%.0f", server_ms), ok ? "yes" : "WRONG"});
        json.add("spir_batch_m" + std::to_string(m) + "_d" + std::to_string(depth), n,
                 server_ms * 1e6, q.size() + a.size());
      }
    }
  }
  batch_table.print();

  // --- cuckoo batch answer: waves vs one bucket at a time ----------------------
  // The survey's server answer (n = 4096, m = 16, depth-2 buckets, 768-bit
  // N, 2 threads): CuckooBatchPir::answer_u64 folds its 32 buckets in waves;
  // the baseline answers the same buckets one PaillierPir::answer_u64 call
  // at a time. Same bytes; five repetitions, median and stddev.
  {
    const std::size_t n = smoke ? 256 : 4096, m = smoke ? 4 : 16;
    constexpr int kReps = 5;
    std::printf("\n--- cuckoo batch answer: waves vs per-bucket calls (n = %zu, m = %zu, d2, "
                "2 threads, %d reps) ---\n", n, m, kReps);
    const he::PaillierPrivateKey wsk = smoke ? sk : he::paillier_keygen(prg, 768);
    const pir::CuckooBatchPir p(wsk.public_key(), n, m, 2);
    std::vector<std::uint64_t> db(n);
    for (std::size_t i = 0; i < n; ++i) db[i] = (i * 7 + 11) % 65536;
    std::vector<std::size_t> indices;
    for (std::size_t j = 0; j < m; ++j) indices.push_back((j * 919 + 77) % n);
    pir::CuckooBatchPir::ClientState state;
    crypto::Prg qprg("e5-batch-waves-query");
    const Bytes q = p.make_query(indices, state, wsk, qprg);
    // The per-bucket baseline: the same wire format, bucket by bucket.
    const auto per_bucket = [&](crypto::Prg& sprg) {
      Reader r(q);
      pir::CuckooParams params = state.params;
      params.hash_seed = r.u64();
      const std::size_t cap = params.bucket_capacity();
      const pir::PaillierPir bucket_pir(wsk.public_key(), cap, 2);
      const auto contents = params.all_bucket_contents();
      Writer w;
      for (std::size_t b = 0; b < params.num_buckets; ++b) {
        std::vector<std::uint64_t> bucket(cap, 0);
        for (std::size_t pos = 0; pos < contents[b].size(); ++pos) bucket[pos] = db[contents[b][pos]];
        w.bytes(bucket_pir.answer_u64(bucket, r.bytes(), sprg));
      }
      return w.take();
    };
    common::ThreadPool::set_global_threads(2);
    std::vector<double> wave_ms, bucket_ms;
    bool identical = true;
    Bytes answer;
    for (int rep = 0; rep < kReps; ++rep) {
      crypto::Prg s1("e5-batch-waves-answer"), s2("e5-batch-waves-answer");
      bench::Stopwatch sw_wave;
      answer = p.answer_u64(db, q, s1);
      wave_ms.push_back(sw_wave.ms());
      bench::Stopwatch sw_bucket;
      const Bytes baseline = per_bucket(s2);
      bucket_ms.push_back(sw_bucket.ms());
      identical = identical && baseline == answer;
    }
    common::ThreadPool::set_global_threads(0);
    const auto got = p.decode_u64(wsk, answer, state);
    for (std::size_t j = 0; j < m; ++j) identical = identical && got[j] == db[indices[j]];
    const auto median = [](std::vector<double> v) {
      std::sort(v.begin(), v.end());
      return v[v.size() / 2];
    };
    const auto stddev = [](const std::vector<double>& v) {
      double mean = 0, var = 0;
      for (const double x : v) mean += x / static_cast<double>(v.size());
      for (const double x : v) var += (x - mean) * (x - mean) / static_cast<double>(v.size() - 1);
      return std::sqrt(var);
    };
    bench::Table table({"variant", "median ms", "stddev ms", "answer identical"});
    table.add({"waves (answer_u64)", bench::fmt("%.1f", median(wave_ms)),
               bench::fmt("%.1f", stddev(wave_ms)), identical ? "yes" : "NO (BUG)"});
    table.add({"per-bucket calls", bench::fmt("%.1f", median(bucket_ms)),
               bench::fmt("%.1f", stddev(bucket_ms)), identical ? "yes" : "NO (BUG)"});
    table.print();
    json.add("spir_batch_answer_waves_median", n, median(wave_ms) * 1e6, answer.size());
    json.add("spir_batch_answer_waves_stddev", n, stddev(wave_ms) * 1e6, answer.size());
    json.add("spir_batch_answer_per_bucket_median", n, median(bucket_ms) * 1e6, answer.size());
    json.add("spir_batch_answer_per_bucket_stddev", n, stddev(bucket_ms) * 1e6, answer.size());
  }

  // --- IT PIR vs cPIR ----------------------------------------------------------
  std::printf("\n--- multi-server IT SPIR (t = 1) vs single-server cPIR, one item ---\n");
  bench::Table it_table({"n", "scheme", "servers", "total comm", "server(s) ms", "ok"});
  const field::Fp64 field(field::Fp64::kMersenne61);
  const auto spir_seed = crypto::Prg::random_seed();
  const std::vector<std::size_t> it_ns = smoke ? std::vector<std::size_t>{1024}
                                               : std::vector<std::size_t>{4096, 65536};
  for (const std::size_t n : it_ns) {
    std::vector<std::uint64_t> db(n);
    for (std::size_t i = 0; i < n; ++i) db[i] = i * 3 + 1;
    {
      const std::size_t k = pir::PolyItPir::min_servers(n, 1);
      const pir::PolyItPir p(field, n, k, 1);
      pir::PolyItPir::ClientState state;
      const auto queries = p.make_queries(n / 3, state, prg);
      std::uint64_t comm = 0;
      double ms = 0;
      std::vector<Bytes> answers;
      for (std::size_t h = 0; h < k; ++h) {
        comm += queries[h].size();
        bench::Stopwatch sw;
        answers.push_back(p.answer(h, db, queries[h], &spir_seed));
        ms += sw.ms();
        comm += answers.back().size();
      }
      const bool ok = p.decode(answers, state) == db[n / 3];
      it_table.add({std::to_string(n), "PolyItPir (IT)", std::to_string(k),
                    bench::human_bytes(comm), bench::fmt("%.1f", ms), ok ? "yes" : "WRONG"});
      json.add("itpir_poly_answer", n, ms * 1e6, comm);
    }
    {
      const pir::TwoServerXorPir p(n, 8);
      std::vector<Bytes> bytes_db(n);
      for (std::size_t i = 0; i < n; ++i) {
        bytes_db[i] = Bytes(8, static_cast<std::uint8_t>(i));
      }
      pir::TwoServerXorPir::ClientState state;
      const auto [q0, q1] = p.make_queries(n / 3, state, prg);
      bench::Stopwatch sw;
      const Bytes a0 = p.answer(bytes_db, q0);
      const Bytes a1 = p.answer(bytes_db, q1);
      const double ms = sw.ms();
      const bool ok = p.decode(a0, a1, state) == bytes_db[n / 3];
      it_table.add({std::to_string(n), "2-server XOR (sqrt n)", "2",
                    bench::human_bytes(q0.size() + q1.size() + a0.size() + a1.size()),
                    bench::fmt("%.1f", ms), ok ? "yes" : "WRONG"});
      json.add("itpir_xor_answer", n, ms * 1e6, q0.size() + q1.size() + a0.size() + a1.size());
    }
    {
      const pir::PaillierPir p(sk.public_key(), n, 2);
      pir::PaillierPir::ClientState state;
      const Bytes q = p.make_query(n / 3, state, sk, prg);
      bench::Stopwatch sw;
      const Bytes a = p.answer_u64(db, q, prg);
      const double ms = sw.ms();
      const bool ok = p.decode_u64(sk, a) == db[n / 3];
      it_table.add({std::to_string(n), "Paillier cPIR d2", "1",
                    bench::human_bytes(q.size() + a.size()), bench::fmt("%.0f", ms),
                    ok ? "yes" : "WRONG"});
      json.add("cpir_answer_d2_vs_it", n, ms * 1e6, q.size() + a.size());
    }
  }
  it_table.print();
  std::printf("\nShape check: batch SPIR's server time is ~flat in m while per-item is\n"
              "~linear in m (Omega(mn) vs ~3n); multi-server IT schemes are orders of\n"
              "magnitude cheaper computationally, at the price of k servers (§1.1).\n");
  json.write(smoke);
  return 0;
}
