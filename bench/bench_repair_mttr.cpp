// Repair MTTR vs foreground interference — an extension beyond the paper.
//
// The paper's store runs replication-free and repair-free; our maintenance
// service adds background re-replication governed by a repair_bw_fraction
// duty-cycle knob.  This bench quantifies the trade that knob controls: a
// benefactor holding ~1/4 of a replicated dataset dies, and we measure
//   (a) MTTR — virtual time from the death to the service's convergence
//       (detection via missed heartbeats + queued re-replication), and
//   (b) foreground interference — the bandwidth a STREAM-style cold read
//       of the same dataset achieves while repair traffic occupies the
//       surviving devices (the repair is scheduled first, then the read
//       runs from the same virtual start; sim::Resource's gap backfilling
//       lets the foreground soak up whatever the throttle left idle).
// Aggressive repair (f=1.0) minimises MTTR but steals device time;
// f=0.1 cedes ~90% of it back to the foreground at the cost of a longer
// window of reduced redundancy.
//
// A second experiment measures corruption MTTR: one replica silently rots
// (a single flipped bit — no reader touches it, no failure is reported)
// and only the scrub's incremental checksum verification can find it.  We
// sweep scrub_verify_bytes and measure the virtual time from the flip to
// detection (quarantine) and to the healed, fully-replicated state.  The
// budget bounds how much of the store each scrub pass re-checksums, so a
// larger budget finds silent rot in fewer passes.
//
// `--quick` shrinks the dataset for CI smoke runs; every SHAPE check
// still executes.
#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "sim/clock.hpp"
#include "store/store.hpp"

using namespace nvm;
using namespace nvm::bench;

namespace {

constexpr uint64_t kChunk = 64_KiB;
constexpr int kBenefactors = 4;
constexpr int64_t kMs = 1'000'000;

uint32_t g_chunks = 256;  // 16 MiB dataset, r=2 (64 with --quick)

struct Rig {
  net::Cluster cluster;
  store::AggregateStore store;
  store::FileId id = 0;
  std::vector<uint8_t> data;

  explicit Rig(const store::AggregateStoreConfig& sc_in,
               int benefactors = kBenefactors)
      : cluster(MakeClusterConfig(benefactors)),
        store(cluster, Finish(sc_in, benefactors)) {
    sim::CurrentClock().Reset();
    store::StoreClient& client = store.ClientForNode(0);
    sim::VirtualClock clock(0);
    auto created = client.Create(clock, "/mttr");
    NVM_CHECK(created.ok());
    id = *created;
    NVM_CHECK(client.Fallocate(clock, id, g_chunks * kChunk).ok());
    data.resize(g_chunks * kChunk);
    Xoshiro256 rng(17);
    for (auto& b : data) b = static_cast<uint8_t>(rng.Next());
    Bitmap all(kChunk / client.config().page_bytes);
    all.SetAll();
    for (uint32_t i = 0; i < g_chunks; ++i) {
      NVM_CHECK(client.WriteChunkPages(clock, id, i, all,
                                       {data.data() + i * kChunk, kChunk})
                    .ok());
    }
    populate_end_ns = clock.now();
    // The service replays the populate phase's heartbeats on its own
    // thread.  Wait for that replay to finish, so that each experiment
    // reads its virtual t0 and kills its benefactor after it, not during
    // it.  A deadline of 0 never moves the schedule (RunUntil only raises
    // its target), so this only waits.
    store.maintenance()->RunUntil(0);
  }

  int64_t populate_end_ns = 0;

  static net::ClusterConfig MakeClusterConfig(int benefactors) {
    net::ClusterConfig cc;
    cc.num_nodes = benefactors + 1;
    return cc;
  }
  static store::AggregateStoreConfig Finish(store::AggregateStoreConfig sc,
                                            int benefactors) {
    sc.store.chunk_bytes = kChunk;
    sc.store.replication = 2;
    sc.store.maintenance = true;
    for (int b = 0; b < benefactors; ++b) {
      sc.benefactor_nodes.push_back(b + 1);
    }
    sc.contribution_bytes = 256_MiB;
    sc.manager_node = 1;
    return sc;
  }

  // Full STREAM-style cold read from virtual `t0`; checks every byte and
  // returns the achieved bandwidth.
  double ColdRead(int64_t t0) {
    store::StoreClient& client = store.ClientForNode(0);
    sim::VirtualClock fg(t0);
    std::vector<uint8_t> buf(kChunk);
    for (uint32_t i = 0; i < g_chunks; ++i) {
      NVM_CHECK(client.ReadChunk(fg, id, i, buf).ok());
      NVM_CHECK(
          std::memcmp(buf.data(), data.data() + i * kChunk, kChunk) == 0,
          "read-back mismatch");
    }
    const double secs = static_cast<double>(fg.now() - t0) / 1e9;
    return static_cast<double>(g_chunks) * static_cast<double>(kChunk) /
           secs / 1e9;
  }
};

struct RunResult {
  double mttr_ms = 0;        // death -> converged (detection + repair)
  double busy_ms = 0;        // repair transfer time
  double idle_ms = 0;        // throttle-injected idle
  double fg_gbps = 0;        // foreground cold-read bandwidth
  uint64_t recreated = 0;
};

RunResult RunWith(double fraction, bool kill) {
  store::AggregateStoreConfig sc;
  sc.store.heartbeat_period_ms = 1;
  sc.store.heartbeat_misses = 3;
  sc.store.repair_bw_fraction = fraction;
  sc.store.scrub_period_ms = 1'000'000;  // out of the measurement window
  Rig rig(sc);
  store::MaintenanceService& ms = *rig.store.maintenance();

  // The common virtual "present": the moment the benefactor dies (or, in
  // the baseline, the moment the foreground read starts).
  const int64_t t0 = std::max(rig.populate_end_ns, ms.now_ns());

  RunResult r;
  if (kill) {
    rig.store.benefactor(1).Kill();
    // Let the service detect, queue, and drain; repair traffic lands on
    // the surviving device/NIC timelines starting a few heartbeats in.
    ms.RunUntil(t0 + 2'000 * kMs);
    const store::MaintenanceStats s = ms.stats();
    NVM_CHECK(ms.QueueEmpty());
    NVM_CHECK(s.converged_at_ns >= t0);
    r.mttr_ms = static_cast<double>(s.converged_at_ns - t0) / 1e6;
    r.busy_ms = static_cast<double>(s.repair_busy_ns) / 1e6;
    r.idle_ms = static_cast<double>(s.throttle_idle_ns) / 1e6;
    r.recreated = s.replicas_recreated;
  }

  // Foreground STREAM-style cold read, launched from the same virtual t0
  // the repair started at: its requests contend with whatever device/NIC
  // time the repair already claimed, and backfill the throttle's gaps.
  r.fg_gbps = rig.ColdRead(t0);
  return r;
}

struct CorruptResult {
  double detect_ms = -1;  // flip -> replica quarantined
  double heal_ms = -1;    // flip -> back at full replication, queue empty
  uint64_t scrub_passes = 0;
};

// Silent single-bit rot on one replica; only scrub verification (budget
// `verify_bytes` per pass) can find it.  The scrub period is long enough
// that population finishes before the first pass, so every budget starts
// its sweep from the same cursor position and detection latency depends
// only on how many passes the budget needs to reach the rotten key.
CorruptResult RunCorrupt(uint64_t verify_bytes) {
  // Long enough that populating even the full dataset (~335 ms of virtual
  // time) finishes before the first pass.
  constexpr int64_t kScrubPeriodMs = 400;
  store::AggregateStoreConfig sc;
  sc.store.heartbeat_period_ms = 1;
  sc.store.heartbeat_misses = 3;
  sc.store.repair_bw_fraction = 0.5;
  sc.store.scrub_period_ms = kScrubPeriodMs;
  sc.store.scrub_verify = true;
  sc.store.scrub_verify_bytes = verify_bytes;
  Rig rig(sc);
  store::Manager& m = rig.store.manager();
  store::MaintenanceService& ms = *rig.store.maintenance();

  const int64_t t0 = std::max(rig.populate_end_ns, ms.now_ns());
  NVM_CHECK(t0 < kScrubPeriodMs * kMs,
            "population outlived the first scrub period; raise the period");

  // Flip one bit in the middle of the keyspace — no reader sees it, no
  // failure is reported, the manager still believes the chunk is healthy.
  sim::VirtualClock mc(t0);
  auto loc = m.GetReadLocation(mc, rig.id, g_chunks / 2);
  NVM_CHECK(loc.ok());
  NVM_CHECK(rig.store.benefactor(static_cast<size_t>(loc->benefactors[0]))
                .CorruptChunk(loc->key, /*byte_offset=*/4097, /*xor_mask=*/0x40)
                .ok());

  CorruptResult r;
  const int64_t step = 100 * kMs;  // detection resolution: 100 ms
  for (int64_t k = 1; k <= 400; ++k) {
    ms.RunUntil(t0 + k * step);
    if (r.detect_ms < 0 && m.corrupt_detected() > 0) {
      r.detect_ms = static_cast<double>(k * step) / 1e6;
    }
    if (r.detect_ms >= 0 && m.corrupt_repaired() > 0 && ms.QueueEmpty()) {
      r.heal_ms = static_cast<double>(k * step) / 1e6;
      break;
    }
  }
  NVM_CHECK(r.detect_ms >= 0, "scrub never detected the flipped bit");
  NVM_CHECK(r.heal_ms >= 0, "quarantined replica was never re-replicated");
  r.scrub_passes = ms.stats().scrub_passes;

  // Zero wrong bytes: after healing, every replica serves the original
  // data (the cold read fails over and re-verifies on the way).
  rig.ColdRead(ms.now_ns());
  return r;
}

// --- Repair traffic: re-replication vs fragment re-encode. -------------
//
// One benefactor dies and the service heals the store.  Replication reads
// the lost chunk once from its survivor and writes one copy: 2 device
// bytes moved per lost byte.  RS(4,2) must read k=4 verified fragments to
// re-encode ONE missing fragment and writes that fragment: k+1 = 5 device
// bytes per lost byte — erasure coding trades steady-state space for
// repair amplification, and this experiment pins both constants.
struct TrafficResult {
  double mttr_ms = 0;
  uint64_t lost_bytes = 0;     // payload the dead benefactor held
  uint64_t traffic_bytes = 0;  // device data moved during the repair
  uint64_t repaired = 0;       // members recreated (replicas or fragments)
  double per_lost = 0;         // traffic_bytes / lost_bytes
};

TrafficResult RunRepairTraffic(bool ec) {
  store::AggregateStoreConfig sc;
  sc.store.heartbeat_period_ms = 1;
  sc.store.heartbeat_misses = 3;
  sc.store.repair_bw_fraction = 0.5;
  sc.store.scrub_period_ms = 1'000'000;  // out of the measurement window
  int benefactors = kBenefactors;
  if (ec) {
    sc.store.redundancy = store::RedundancyMode::kErasure;
    sc.store.ec_k = 4;
    sc.store.ec_m = 2;
    benefactors = 8;  // six failure domains per stripe + repair spares
  }
  Rig rig(sc, benefactors);
  store::MaintenanceService& ms = *rig.store.maintenance();
  const int64_t t0 = std::max(rig.populate_end_ns, ms.now_ns());

  auto device_traffic = [&]() {
    uint64_t sum = 0;
    for (int b = 0; b < benefactors; ++b) {
      const store::Benefactor& ben =
          rig.store.benefactor(static_cast<size_t>(b));
      sum += ben.data_bytes_in() + ben.data_bytes_out();
    }
    return sum;
  };

  TrafficResult r;
  r.lost_bytes = rig.store.benefactor(1).bytes_used();
  const uint64_t before = device_traffic();
  rig.store.benefactor(1).Kill();
  ms.RunUntil(t0 + 2'000 * kMs);
  NVM_CHECK(ms.QueueEmpty());
  const store::MaintenanceStats s = ms.stats();
  NVM_CHECK(s.converged_at_ns >= t0);
  r.mttr_ms = static_cast<double>(s.converged_at_ns - t0) / 1e6;
  r.traffic_bytes = device_traffic() - before;
  r.repaired = ec ? rig.store.manager().ec_fragments_repaired()
                  : s.replicas_recreated;
  r.per_lost = static_cast<double>(r.traffic_bytes) /
               static_cast<double>(r.lost_bytes);
  // Byte-exactness after the heal (reads fail over past the dead holder).
  rig.ColdRead(ms.now_ns());
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") quick = true;
  }
  if (quick) g_chunks = 64;  // 4 MiB dataset for CI smoke runs

  Title("Repair MTTR vs foreground interference",
        Fmt("%u MiB dataset, r=2 over 4 benefactors; one dies; background "
            "repair at varying repair_bw_fraction",
            static_cast<unsigned>(g_chunks * kChunk >> 20)));

  const RunResult baseline = RunWith(0.5, /*kill=*/false);
  const double fractions[] = {0.1, 0.5, 1.0};
  std::vector<RunResult> results;
  for (double f : fractions) results.push_back(RunWith(f, /*kill=*/true));

  Table t({"repair_bw_fraction", "MTTR (ms)", "Repair busy (ms)",
           "Throttle idle (ms)", "Replicas recreated", "Foreground (GB/s)",
           "vs baseline"});
  t.AddRow({"no failure", "-", "-", "-", "-", Fmt("%.2f", baseline.fg_gbps),
            "100.0%"});
  for (size_t i = 0; i < results.size(); ++i) {
    const RunResult& r = results[i];
    t.AddRow({Fmt("%.1f", fractions[i]), Fmt("%.2f", r.mttr_ms),
              Fmt("%.2f", r.busy_ms), Fmt("%.2f", r.idle_ms),
              Fmt("%llu", static_cast<unsigned long long>(r.recreated)),
              Fmt("%.2f", r.fg_gbps),
              Fmt("%.1f%%", 100.0 * r.fg_gbps / baseline.fg_gbps)});
  }
  t.Print();
  Note("MTTR includes ~3 ms of heartbeat detection (1 ms period, "
       "3 misses) before the first repair batch runs.");

  bool ok = true;
  ok &= Shape(results[0].mttr_ms >= results[1].mttr_ms &&
                  results[1].mttr_ms >= results[2].mttr_ms,
              "MTTR falls as the repair fraction rises (%.2f >= %.2f >= "
              "%.2f ms)",
              results[0].mttr_ms, results[1].mttr_ms, results[2].mttr_ms);
  ok &= Shape(results[0].fg_gbps >= results[2].fg_gbps,
              "throttled repair (f=0.1) leaves the foreground more "
              "bandwidth than aggressive repair (f=1.0): %.2f vs %.2f GB/s",
              results[0].fg_gbps, results[2].fg_gbps);
  ok &= Shape(results[0].fg_gbps >= 0.8 * baseline.fg_gbps,
              "f=0.1 keeps the foreground within 20%% of the no-failure "
              "baseline (%.2f vs %.2f GB/s)",
              results[0].fg_gbps, baseline.fg_gbps);
  ok &= Shape(results[0].recreated == results[2].recreated,
              "every fraction recreates the same replica set (%llu)",
              static_cast<unsigned long long>(results[0].recreated));

  // --- Corruption MTTR: silent bit rot vs the scrub verification budget.
  const uint64_t total = static_cast<uint64_t>(g_chunks) * kChunk;
  const uint64_t budgets[] = {total / 64, total / 16, total / 4};
  std::vector<CorruptResult> rot;
  for (uint64_t b : budgets) rot.push_back(RunCorrupt(b));

  Table ct({"scrub_verify_bytes", "Detect (ms)", "Heal (ms)",
            "Scrub passes"});
  for (size_t i = 0; i < rot.size(); ++i) {
    ct.AddRow({Fmt("%llu KiB", static_cast<unsigned long long>(
                                   budgets[i] >> 10)),
               Fmt("%.0f", rot[i].detect_ms), Fmt("%.0f", rot[i].heal_ms),
               Fmt("%llu",
                   static_cast<unsigned long long>(rot[i].scrub_passes))});
  }
  ct.Print();
  Note("one flipped bit on one replica; detection = quarantine by the "
       "checksum scrub (400 ms pass period), heal = full replication "
       "restored.");

  ok &= Shape(rot[0].detect_ms >= rot[1].detect_ms &&
                  rot[1].detect_ms >= rot[2].detect_ms,
              "a larger verification budget finds silent rot sooner "
              "(%.0f >= %.0f >= %.0f ms)",
              rot[0].detect_ms, rot[1].detect_ms, rot[2].detect_ms);
  for (const CorruptResult& r : rot) {
    ok &= Shape(r.heal_ms >= r.detect_ms,
                "healing completes after detection (%.0f >= %.0f ms)",
                r.heal_ms, r.detect_ms);
  }

  // --- Repair traffic: replication vs RS(4,2) fragment re-encode.
  const TrafficResult t_repl = RunRepairTraffic(/*ec=*/false);
  const TrafficResult t_ec = RunRepairTraffic(/*ec=*/true);
  Table et({"mode", "MTTR (ms)", "Lost (MiB)", "Repair traffic (MiB)",
            "Members recreated", "Bytes moved / lost byte"});
  et.AddRow({"replication r=2", Fmt("%.2f", t_repl.mttr_ms),
             Fmt("%.2f", static_cast<double>(t_repl.lost_bytes) / 1048576.0),
             Fmt("%.2f", static_cast<double>(t_repl.traffic_bytes) / 1048576.0),
             Fmt("%llu", static_cast<unsigned long long>(t_repl.repaired)),
             Fmt("%.2f", t_repl.per_lost)});
  et.AddRow({"RS(4,2)", Fmt("%.2f", t_ec.mttr_ms),
             Fmt("%.2f", static_cast<double>(t_ec.lost_bytes) / 1048576.0),
             Fmt("%.2f", static_cast<double>(t_ec.traffic_bytes) / 1048576.0),
             Fmt("%llu", static_cast<unsigned long long>(t_ec.repaired)),
             Fmt("%.2f", t_ec.per_lost)});
  et.Print();
  Note("replication repairs a lost chunk with one read + one write "
       "(2 bytes/byte); RS(4,2) re-encodes a lost fragment from k=4 "
       "verified survivors (k reads + 1 write = 5 bytes/byte).");

  ok &= Shape(t_repl.per_lost >= 1.7 && t_repl.per_lost <= 2.3,
              "replicated repair moves ~2 device bytes per lost byte "
              "(%.2f)",
              t_repl.per_lost);
  ok &= Shape(t_ec.per_lost >= 4.2 && t_ec.per_lost <= 5.8,
              "RS(4,2) repair moves ~k+1 = 5 device bytes per lost byte "
              "(%.2f)",
              t_ec.per_lost);
  ok &= Shape(t_ec.mttr_ms > 0 && t_ec.repaired > 0,
              "the service re-encoded every missing fragment (%llu) in "
              "%.2f ms",
              static_cast<unsigned long long>(t_ec.repaired), t_ec.mttr_ms);

  JsonReport json("repair_mttr");
  json.Add("quick", quick);
  json.Add("baseline_fg_gbps", baseline.fg_gbps);
  const char* tags[] = {"f0.1", "f0.5", "f1.0"};
  for (size_t i = 0; i < results.size(); ++i) {
    json.Add(std::string(tags[i]) + "_mttr_ms", results[i].mttr_ms);
    json.Add(std::string(tags[i]) + "_busy_ms", results[i].busy_ms);
    json.Add(std::string(tags[i]) + "_idle_ms", results[i].idle_ms);
    json.Add(std::string(tags[i]) + "_fg_gbps", results[i].fg_gbps);
    json.Add(std::string(tags[i]) + "_recreated", results[i].recreated);
  }
  const char* ctags[] = {"vb_small", "vb_mid", "vb_large"};
  for (size_t i = 0; i < rot.size(); ++i) {
    json.Add(std::string(ctags[i]) + "_budget_bytes", budgets[i]);
    json.Add(std::string(ctags[i]) + "_detect_ms", rot[i].detect_ms);
    json.Add(std::string(ctags[i]) + "_heal_ms", rot[i].heal_ms);
  }
  json.Add("repl_repair_traffic_per_lost", t_repl.per_lost);
  json.Add("ec_repair_traffic_per_lost", t_ec.per_lost);
  json.Add("repl_repair_mttr_ms", t_repl.mttr_ms);
  json.Add("ec_repair_mttr_ms", t_ec.mttr_ms);
  json.Add("ec_fragments_repaired", t_ec.repaired);
  json.Add("shape_ok", ok);
  json.Print();
  return ok ? 0 : 1;
}
