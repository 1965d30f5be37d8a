// Metadata-plane throughput vs manager sharding — the headline for the
// sharded metadata plane (meta_shards) and the lock-free resolve path.
//
// After the run RPCs collapsed the data plane to one request and one
// device queueing slot per batch, the manager's single metadata timeline
// became the scalability wall for many-client workloads: every resolve,
// prepare, and completion queued on one modelled service resource (and one
// mutex).  Sharding the chunk namespace gives each shard its own service
// lane and its own locks, and the resolve fast path reads an atomically-
// swapped replica snapshot without any shard lock at all.
//
// This bench measures the two hot metadata loops under N concurrent
// client threads (real threads, each with its own virtual clock, talking
// straight to the manager — no data-plane traffic dilutes the numbers):
//
//   resolves     batched GetReadLocations over the thread's own files:
//                chunk locations resolved per virtual second
//   write cycles PrepareWriteBatch + CompleteWrites of a flush window:
//                prepare/complete cycles per virtual second
//
// sweeping meta_shards x threads over {1, 4, 16}.  With one shard every
// thread queues on the same lane, so aggregate throughput is flat no
// matter how many clients pile on; with 16 shards the lanes serve
// different files independently and throughput scales with the client
// count.  SHAPE: at 16 threads, 16 shards must beat 1 shard by >= 2x on
// both loops (the observed win is close to the full lane count).
//
// `--quick` shrinks the op counts for CI smoke runs; every SHAPE check
// still executes.
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "sim/clock.hpp"
#include "store/store.hpp"

using namespace nvm;
using namespace nvm::bench;

namespace {

constexpr uint64_t kChunk = 64_KiB;
constexpr int kBenefactors = 4;
constexpr size_t kFilesPerThread = 4;   // smooths file->lane hash collisions
constexpr uint32_t kChunksPerFile = 32;
constexpr uint32_t kPrepareWindow = 16;  // flush-window size per cycle

uint64_t g_resolve_rounds = 2'000;  // GetReadLocations calls per thread
uint64_t g_cycle_rounds = 1'000;    // prepare+complete cycles per thread

struct Rig {
  net::Cluster cluster;
  store::AggregateStore store;
  // files[t] holds thread t's private file set.
  std::vector<std::vector<store::FileId>> files;
  int64_t setup_end_ns = 0;

  Rig(size_t meta_shards, size_t threads)
      : cluster(MakeClusterConfig()), store(cluster, Finish(meta_shards)) {
    sim::CurrentClock().Reset();
    store::Manager& m = store.manager();
    sim::VirtualClock clock(0);
    files.resize(threads);
    for (size_t t = 0; t < threads; ++t) {
      for (size_t f = 0; f < kFilesPerThread; ++f) {
        auto id = m.CreateFile(clock, "/meta/t" + std::to_string(t) + "/f" +
                                          std::to_string(f));
        NVM_CHECK(id.ok());
        NVM_CHECK(m.Fallocate(clock, *id, kChunksPerFile * kChunk).ok());
        files[t].push_back(*id);
      }
    }
    setup_end_ns = clock.now();
  }

  static net::ClusterConfig MakeClusterConfig() {
    net::ClusterConfig cc;
    cc.num_nodes = kBenefactors + 1;
    return cc;
  }
  static store::AggregateStoreConfig Finish(size_t meta_shards) {
    store::AggregateStoreConfig sc;
    sc.store.chunk_bytes = kChunk;
    sc.store.meta_shards = meta_shards;
    for (int b = 0; b < kBenefactors; ++b) {
      sc.benefactor_nodes.push_back(b + 1);
    }
    sc.contribution_bytes = 64_MiB;
    sc.manager_node = 1;
    return sc;
  }
};

struct Throughput {
  double resolves_per_s = 0;  // chunk locations resolved / virtual second
  double cycles_per_s = 0;    // prepare+complete windows / virtual second
};

// Resolve loop for one thread: `g_resolve_rounds` batched
// GetReadLocations calls over the thread's own files, starting at
// virtual `t0`.  Returns chunk locations resolved and the virtual end.
void HammerResolves(store::Manager& m, const std::vector<store::FileId>& mine,
                    int64_t t0, uint64_t* resolved, int64_t* end_ns) {
  sim::VirtualClock clock(t0);
  uint64_t ops = 0;
  for (uint64_t r = 0; r < g_resolve_rounds; ++r) {
    const store::FileId id = mine[r % mine.size()];
    auto locs = m.GetReadLocations(clock, id, 0, kChunksPerFile);
    NVM_CHECK(locs.ok());
    ops += locs->size();
  }
  *resolved = ops;
  *end_ns = clock.now();
}

// Write-cycle loop for one thread: `g_cycle_rounds` flush-window
// PrepareWriteBatch + CompleteWrites cycles starting at virtual `t0`.
void HammerCycles(store::Manager& m, const std::vector<store::FileId>& mine,
                  int64_t t0, uint64_t* cycled, int64_t* end_ns) {
  sim::VirtualClock clock(t0);
  std::vector<uint32_t> window(kPrepareWindow);
  for (uint32_t i = 0; i < kPrepareWindow; ++i) window[i] = i;
  uint64_t cycles = 0;
  for (uint64_t r = 0; r < g_cycle_rounds; ++r) {
    const store::FileId id = mine[r % mine.size()];
    auto locs = m.PrepareWriteBatch(clock, id, window);
    NVM_CHECK(locs.ok());
    m.CompleteWrites(clock, *locs);
    ++cycles;
  }
  *cycled = cycles;
  *end_ns = clock.now();
}

// Launch one thread per file set, all starting at virtual `t0`, and
// return total ops over the makespan (common start to last virtual
// finish).  The common start matters: a clock can never acquire service
// time before its own now(), so no thread's ops can land before t0 and
// the denominator is honest.  `*phase_end` gets the makespan endpoint.
template <typename Loop>
double Span(Loop loop, size_t threads, int64_t t0, int64_t* phase_end) {
  std::vector<uint64_t> ops(threads, 0);
  std::vector<int64_t> end(threads, t0);
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] { loop(t, t0, &ops[t], &end[t]); });
  }
  for (std::thread& w : workers) w.join();
  uint64_t total = 0;
  int64_t done = t0;
  for (size_t t = 0; t < threads; ++t) {
    total += ops[t];
    done = std::max(done, end[t]);
  }
  *phase_end = done;
  return static_cast<double>(total) /
         (static_cast<double>(done - t0) / 1e9);
}

Throughput Run(size_t meta_shards, size_t threads) {
  Rig rig(meta_shards, threads);
  store::Manager& m = rig.store.manager();

  Throughput out;
  int64_t resolves_done = 0;
  out.resolves_per_s = Span(
      [&](size_t t, int64_t t0, uint64_t* ops, int64_t* end) {
        HammerResolves(m, rig.files[t], t0, ops, end);
      },
      threads, rig.setup_end_ns, &resolves_done);
  int64_t cycles_done = 0;
  out.cycles_per_s = Span(
      [&](size_t t, int64_t t0, uint64_t* ops, int64_t* end) {
        HammerCycles(m, rig.files[t], t0, ops, end);
      },
      threads, resolves_done, &cycles_done);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") quick = true;
  }
  if (quick) {
    g_resolve_rounds = 400;
    g_cycle_rounds = 200;
  }

  Title("Manager metadata throughput vs meta_shards",
        Fmt("%zu files x %u chunks per thread; batched resolves and "
            "%u-chunk prepare/complete windows, manager_op_ns=3000",
            kFilesPerThread, kChunksPerFile, kPrepareWindow));

  const size_t sweep[] = {1, 4, 16};
  // results[s][t]
  Throughput results[3][3];
  for (size_t s = 0; s < 3; ++s) {
    for (size_t t = 0; t < 3; ++t) {
      results[s][t] = Run(sweep[s], sweep[t]);
    }
  }

  Table rt({"meta_shards", "1 thread (Mres/s)", "4 threads (Mres/s)",
            "16 threads (Mres/s)"});
  for (size_t s = 0; s < 3; ++s) {
    rt.AddRow({Fmt("%zu", sweep[s]),
               Fmt("%.2f", results[s][0].resolves_per_s / 1e6),
               Fmt("%.2f", results[s][1].resolves_per_s / 1e6),
               Fmt("%.2f", results[s][2].resolves_per_s / 1e6)});
  }
  rt.Print();

  Table ct({"meta_shards", "1 thread (kcyc/s)", "4 threads (kcyc/s)",
            "16 threads (kcyc/s)"});
  for (size_t s = 0; s < 3; ++s) {
    ct.AddRow({Fmt("%zu", sweep[s]),
               Fmt("%.1f", results[s][0].cycles_per_s / 1e3),
               Fmt("%.1f", results[s][1].cycles_per_s / 1e3),
               Fmt("%.1f", results[s][2].cycles_per_s / 1e3)});
  }
  ct.Print();
  Note("resolves ride the lock-free snapshot path (one service-lane "
       "charge per batch, no shard mutex); cycles pay the prepare's "
       "ascending-order shard locking on top.");

  const double r1 = results[0][2].resolves_per_s;   // shards=1, 16 threads
  const double r16 = results[2][2].resolves_per_s;  // shards=16, 16 threads
  const double c1 = results[0][2].cycles_per_s;
  const double c16 = results[2][2].cycles_per_s;
  bool ok = true;
  ok &= Shape(r16 >= 2.0 * r1,
              "16 shards resolve >= 2x faster than 1 shard at 16 threads "
              "(%.2f vs %.2f Mres/s)",
              r16 / 1e6, r1 / 1e6);
  ok &= Shape(c16 >= 2.0 * c1,
              "16 shards cycle >= 2x faster than 1 shard at 16 threads "
              "(%.1f vs %.1f kcyc/s)",
              c16 / 1e3, c1 / 1e3);
  ok &= Shape(results[0][2].resolves_per_s <=
                  1.25 * results[0][0].resolves_per_s,
              "one shard is a wall: 16 threads buy <= 25%% over 1 thread "
              "(%.2f vs %.2f Mres/s)",
              results[0][2].resolves_per_s / 1e6,
              results[0][0].resolves_per_s / 1e6);

  JsonReport json("meta_ops");
  json.Add("quick", quick);
  for (size_t s = 0; s < 3; ++s) {
    for (size_t t = 0; t < 3; ++t) {
      const std::string tag =
          "s" + std::to_string(sweep[s]) + "_t" + std::to_string(sweep[t]);
      json.Add(tag + "_resolves_per_s", results[s][t].resolves_per_s);
      json.Add(tag + "_cycles_per_s", results[s][t].cycles_per_s);
    }
  }
  json.Add("speedup_resolves_16t", r16 / r1);
  json.Add("speedup_cycles_16t", c16 / c1);
  json.Add("shape_ok", ok);
  json.Print();
  return ok ? 0 : 1;
}
