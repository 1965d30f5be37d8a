// nvmsim — config-driven experiment runner.
//
// Runs any of the paper's workloads on a testbed described by key=value
// arguments (or a config file via config=<path>), printing the result and
// an nvmstat-style store report.  This is the tool for exploring the
// design space beyond the canned benchmarks.
//
// Usage examples:
//   ./nvmsim workload=stream arrays=BC remote=1
//   ./nvmsim workload=mm x=8 y=8 z=4 remote=1 column_major=1 tile=32
//   ./nvmsim workload=sort mode=hybrid nodes=8 dram_fraction=0.25
//   ./nvmsim workload=randwrite writes=65536 page_writeback=0
//   ./nvmsim config=experiment.cfg
//
// Common keys: nodes, benefactors, remote, chunk=64K, cache=2M, pool=4M,
// replication, readahead, readahead_max, cache_shards, page_writeback,
// report (print store status),
// maintenance (background failure detection/repair/scrub), plus its knobs
// heartbeat_period_ms, heartbeat_misses, repair_bw_fraction, scrub_period_ms,
// and the integrity knobs verify_reads, scrub_verify, scrub_verify_bytes,
// checksum_bw_gbps (per-chunk CRC32C: verifying reads + checksum scrub),
// meta_shards (manager metadata-plane shard count), the crash-
// consistency knobs wal, checkpoint_period_ms, wal_segment, wal_device,
// wal_device_wear_leveling (durable manager metadata: WAL + checkpoints),
// and the placement-engine knobs placement_avoid_suspected (steer
// striping/COW/repair around suspected and correlated-loss benefactors)
// and placement_wear_weight (bias placement away from worn devices), and
// the redundancy knobs redundancy=replicate|erasure, ec_k, ec_m,
// ec_encode_bw_gbps (RS(k,m) striping with degraded reads + fragment
// repair instead of whole-chunk replication), and the QoS knobs qos
// (multi-tenant admission scheduling), qos_burst_ms, qos_window_ms and
// tenant=<id>:<weight>:<share>:<priority>[,...] (per-tenant policy;
// maintenance is tenant 1 and inherits repair_bw_fraction by default).
// A key that neither the testbed nor the chosen workload reads is an error
// (exit 2), so a typo or a retired option never silently runs the default.
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "store/report.hpp"
#include "workloads/ckpt.hpp"
#include "workloads/matmul.hpp"
#include "workloads/psort.hpp"
#include "workloads/randwrite.hpp"
#include "workloads/stream.hpp"

using namespace nvm;
using namespace nvm::workloads;

namespace {

TestbedOptions BuildTestbed(const Config& cfg) {
  TestbedOptions to;
  to.compute_nodes = static_cast<size_t>(cfg.GetInt("nodes", 16));
  to.benefactors = static_cast<size_t>(
      cfg.GetInt("benefactors", static_cast<int64_t>(to.compute_nodes)));
  to.remote_benefactors = cfg.GetBool("remote", false);
  to.dram_per_node = cfg.GetBytes("node_dram", to.dram_per_node);
  to.store.chunk_bytes = cfg.GetBytes("chunk", to.store.chunk_bytes);
  to.store.replication =
      static_cast<int>(cfg.GetInt("replication", to.store.replication));
  to.fuse.cache_bytes = cfg.GetBytes("cache", to.fuse.cache_bytes);
  to.fuse.readahead = cfg.GetBool("readahead", to.fuse.readahead);
  to.fuse.dirty_page_writeback =
      cfg.GetBool("page_writeback", to.fuse.dirty_page_writeback);
  to.fuse.cache_shards = static_cast<size_t>(
      cfg.GetInt("cache_shards", static_cast<int64_t>(to.fuse.cache_shards)));
  to.fuse.readahead_max_chunks = static_cast<uint32_t>(
      cfg.GetInt("readahead_max", to.fuse.readahead_max_chunks));
  to.store.maintenance = cfg.GetBool("maintenance", to.store.maintenance);
  to.store.heartbeat_period_ms =
      cfg.GetInt("heartbeat_period_ms", to.store.heartbeat_period_ms);
  to.store.heartbeat_misses = static_cast<int>(
      cfg.GetInt("heartbeat_misses", to.store.heartbeat_misses));
  to.store.repair_bw_fraction =
      cfg.GetDouble("repair_bw_fraction", to.store.repair_bw_fraction);
  to.store.scrub_period_ms =
      cfg.GetInt("scrub_period_ms", to.store.scrub_period_ms);
  to.store.verify_reads = cfg.GetBool("verify_reads", to.store.verify_reads);
  to.store.scrub_verify = cfg.GetBool("scrub_verify", to.store.scrub_verify);
  to.store.scrub_verify_bytes =
      cfg.GetBytes("scrub_verify_bytes", to.store.scrub_verify_bytes);
  to.store.checksum_bw_gbps =
      cfg.GetDouble("checksum_bw_gbps", to.store.checksum_bw_gbps);
  to.store.meta_shards = static_cast<size_t>(
      cfg.GetInt("meta_shards", static_cast<int64_t>(to.store.meta_shards)));
  to.store.wal = cfg.GetBool("wal", to.store.wal);
  to.store.checkpoint_period_ms =
      cfg.GetInt("checkpoint_period_ms", to.store.checkpoint_period_ms);
  to.store.wal_segment_bytes =
      cfg.GetBytes("wal_segment", to.store.wal_segment_bytes);
  to.store.wal_device = cfg.GetString("wal_device", to.store.wal_device);
  to.store.wal_device_wear_leveling = cfg.GetBool(
      "wal_device_wear_leveling", to.store.wal_device_wear_leveling);
  to.store.placement_avoid_suspected = cfg.GetBool(
      "placement_avoid_suspected", to.store.placement_avoid_suspected);
  to.store.placement_wear_weight = cfg.GetDouble(
      "placement_wear_weight", to.store.placement_wear_weight);
  const std::string redundancy = cfg.GetString(
      "redundancy",
      to.store.redundancy == store::RedundancyMode::kErasure ? "erasure"
                                                             : "replicate");
  to.store.redundancy = redundancy == "erasure"
                            ? store::RedundancyMode::kErasure
                            : store::RedundancyMode::kReplicate;
  to.store.ec_k = static_cast<uint32_t>(cfg.GetInt("ec_k", to.store.ec_k));
  to.store.ec_m = static_cast<uint32_t>(cfg.GetInt("ec_m", to.store.ec_m));
  to.store.ec_encode_bw_gbps =
      cfg.GetDouble("ec_encode_bw_gbps", to.store.ec_encode_bw_gbps);
  to.store.qos = cfg.GetBool("qos", to.store.qos);
  to.store.qos_burst_ms = cfg.GetInt("qos_burst_ms", to.store.qos_burst_ms);
  to.store.qos_window_ms =
      cfg.GetInt("qos_window_ms", to.store.qos_window_ms);
  // tenant=<id>:<weight>:<share>:<priority>, comma-separated.  Trailing
  // fields may be omitted (defaults: weight 1, share 0, priority 1).
  if (cfg.Has("tenant")) {
    const std::string spec = cfg.GetString("tenant");
    size_t pos = 0;
    while (pos < spec.size()) {
      size_t end = spec.find(',', pos);
      if (end == std::string::npos) end = spec.size();
      const std::string one = spec.substr(pos, end - pos);
      pos = end + 1;
      if (one.empty()) continue;
      store::QosTenant t;
      char* cur = nullptr;
      t.id = static_cast<store::TenantId>(
          std::strtoul(one.c_str(), &cur, 10));
      if (cur != nullptr && *cur == ':') t.weight = std::strtod(cur + 1, &cur);
      if (cur != nullptr && *cur == ':') {
        t.bw_share = std::strtod(cur + 1, &cur);
      }
      if (cur != nullptr && *cur == ':') {
        t.priority = static_cast<int>(std::strtol(cur + 1, &cur, 10));
      }
      to.store.qos_tenants.push_back(t);
    }
  }
  to.page_pool_bytes = cfg.GetBytes("pool", to.page_pool_bytes);
  return to;
}

// Snapshot every compute node's mount cache for the status report.
std::vector<store::MountCacheStats> CollectMountStats(Testbed& tb,
                                                      size_t compute_nodes) {
  std::vector<store::MountCacheStats> mounts;
  mounts.reserve(compute_nodes);
  for (size_t n = 0; n < compute_nodes; ++n) {
    auto& cache = tb.runtime(static_cast<int>(n)).mount().cache();
    const fuselite::CacheTraffic& t = cache.traffic();
    store::MountCacheStats m;
    m.node = static_cast<int>(n);
    m.resident_chunks = cache.resident_chunks();
    m.hit_chunks = t.hit_chunks.load();
    m.fetched_chunks = t.fetched_chunks.load();
    m.prefetched_chunks = t.prefetched_chunks.load();
    m.evictions = t.evictions.load();
    m.dropped_dirty = t.dropped_dirty.load();
    m.flush_batches = t.flush_batches.load();
    m.degraded_writes =
        tb.runtime(static_cast<int>(n)).mount().client().degraded_writes();
    mounts.push_back(m);
  }
  return mounts;
}

// Each workload command reads its options up front and returns the run, so
// every key is accounted for before the testbed is built.
using WorkloadRun = std::function<int(Testbed&)>;

WorkloadRun StreamCmd(const Config& cfg) {
  StreamOptions o;
  o.array_bytes = cfg.GetBytes("array", ScaledBytes(2_GiB));
  o.iterations = static_cast<int>(cfg.GetInt("iterations", 10));
  o.threads = static_cast<size_t>(cfg.GetInt("threads", 8));
  const std::string arrays = cfg.GetString("arrays", "C");
  o.a_on_nvm = arrays.find('A') != std::string::npos;
  o.b_on_nvm = arrays.find('B') != std::string::npos;
  o.c_on_nvm = arrays.find('C') != std::string::npos;
  return [o, arrays](Testbed& tb) {
    auto r = RunStream(tb, o);
    std::printf("STREAM (arrays %s on NVM, %zu threads):\n", arrays.c_str(),
                o.threads);
    for (int k = 0; k < 4; ++k) {
      std::printf("  %-6s %10.1f MB/s  (%s)\n", kStreamKernelNames[k],
                  r.mbps[k], FormatDuration(r.duration_ns[k]).c_str());
    }
    std::printf("  verified: %s\n", r.verified ? "yes" : "NO");
    return r.verified ? 0 : 1;
  };
}

WorkloadRun MmCmd(const Config& cfg) {
  MatmulOptions o;
  o.matrix_bytes = cfg.GetBytes("matrix", o.matrix_bytes);
  o.procs_per_node = static_cast<size_t>(cfg.GetInt("x", 8));
  o.nodes = static_cast<size_t>(cfg.GetInt("y", 16));
  o.b_on_nvm = cfg.GetInt("z", 16) > 0;
  o.shared_mmap = cfg.GetBool("shared", true);
  o.column_major = cfg.GetBool("column_major", false);
  o.tile = static_cast<size_t>(cfg.GetInt("tile", 64));
  return [o](Testbed& tb) {
    auto r = RunMatmul(tb, o);
    if (!r.feasible) {
      std::printf("MM: infeasible (B replicas exceed the DRAM budget)\n");
      return 1;
    }
    std::printf(
        "MM %s %s tile=%zu:\n  A %.2fs | inB %.2fs | bcast %.2fs | compute "
        "%.2fs | C %.2fs | total %.2fs\n  B traffic: app %s, FUSE %s, SSD "
        "%s\n  verified: %s\n",
        o.column_major ? "column-major" : "row-major",
        o.shared_mmap ? "shared" : "individual", o.tile, r.input_split_a_s,
        r.input_b_s, r.broadcast_b_s, r.compute_s, r.collect_output_c_s,
        r.total_s, FormatBytes(r.app_b_bytes).c_str(),
        FormatBytes(r.fuse_b_bytes).c_str(),
        FormatBytes(r.ssd_b_bytes).c_str(), r.verified ? "yes" : "NO");
    return r.verified ? 0 : 1;
  };
}

WorkloadRun SortCmd(const Config& cfg) {
  PsortOptions o;
  o.list_bytes = cfg.GetBytes("list", SortScaledBytes(200_GiB));
  o.procs_per_node = static_cast<size_t>(cfg.GetInt("x", 8));
  o.nodes = static_cast<size_t>(cfg.GetInt("y", 16));
  o.mode = cfg.GetString("mode", "hybrid") == "hybrid"
               ? PsortOptions::Mode::kHybridNvm
               : PsortOptions::Mode::kDramTwoPass;
  o.dram_fraction = cfg.GetDouble("dram_fraction", 0.5);
  return [o](Testbed& tb) {
    auto r = RunPsort(tb, o);
    std::printf(
        "SORT %s: %.2f s, %d pass(es), %llu elements, verified: %s\n",
        o.mode == PsortOptions::Mode::kHybridNvm ? "hybrid" : "two-pass",
        r.seconds, r.passes, static_cast<unsigned long long>(r.elements),
        r.verified ? "yes" : "NO");
    return r.verified ? 0 : 1;
  };
}

WorkloadRun RandWriteCmd(const Config& cfg) {
  RandWriteOptions o;
  o.region_bytes = cfg.GetBytes("region", ScaledBytes(2_GiB));
  o.num_writes = static_cast<uint64_t>(cfg.GetInt("writes", 131072));
  return [o](Testbed& tb) {
    auto r = RunRandWrite(tb, o);
    std::printf(
        "RANDWRITE %llu writes into %s: to FUSE %s, to SSD %s, %.3f s, "
        "verified: %s\n",
        static_cast<unsigned long long>(o.num_writes),
        FormatBytes(o.region_bytes).c_str(),
        FormatBytes(r.bytes_to_fuse).c_str(),
        FormatBytes(r.bytes_to_ssd).c_str(), r.seconds,
        r.verified ? "yes" : "NO");
    return r.verified ? 0 : 1;
  };
}

WorkloadRun CkptCmd(const Config& cfg) {
  CkptOptions o;
  o.dram_bytes = cfg.GetBytes("dram", o.dram_bytes);
  o.nvm_bytes = cfg.GetBytes("nvm", o.nvm_bytes);
  o.dirty_fraction = cfg.GetDouble("dirty", 0.1);
  o.timesteps = static_cast<int>(cfg.GetInt("steps", 3));
  o.link_nvm = cfg.GetBool("link", true);
  return [o](Testbed& tb) {
    auto r = RunCheckpointStudy(tb, o);
    std::printf("CHECKPOINT (%s):\n", o.link_nvm ? "linked" : "full-copy");
    for (size_t s = 0; s < r.steps.size(); ++s) {
      std::printf("  t%zu: %.3f s, SSD writes %s\n", s, r.steps[s].seconds,
                  FormatBytes(r.steps[s].ssd_bytes_written).c_str());
    }
    std::printf("  restart verified: %s; old checkpoint intact: %s\n",
                r.restart_verified ? "yes" : "NO",
                r.old_checkpoint_intact ? "yes" : "NO");
    return (r.restart_verified && r.old_checkpoint_intact) ? 0 : 1;
  };
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  auto parsed = Config::FromArgs(args);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
    return 2;
  }
  Config cfg = *parsed;
  if (cfg.Has("config")) {
    auto from_file = Config::FromFile(cfg.GetString("config"));
    if (!from_file.ok()) {
      std::fprintf(stderr, "%s\n", from_file.status().ToString().c_str());
      return 2;
    }
    // Command-line keys override file keys.
    Config merged = *from_file;
    for (const auto& [k, v] : cfg.values()) {
      if (k != "config") merged.Set(k, v);
    }
    cfg = merged;
  }

  const std::string workload = cfg.GetString("workload", "stream");
  // For MM, the paper's z doubles as the benefactor count.
  if (workload == "mm" && cfg.Has("z") && !cfg.Has("benefactors")) {
    cfg.Set("benefactors", cfg.GetString("z"));
  }
  const TestbedOptions options = BuildTestbed(cfg);

  WorkloadRun run;
  if (workload == "stream") {
    run = StreamCmd(cfg);
  } else if (workload == "mm") {
    run = MmCmd(cfg);
  } else if (workload == "sort") {
    run = SortCmd(cfg);
  } else if (workload == "randwrite") {
    run = RandWriteCmd(cfg);
  } else if (workload == "checkpoint") {
    run = CkptCmd(cfg);
  } else {
    std::fprintf(stderr,
                 "unknown workload '%s' (stream|mm|sort|randwrite|"
                 "checkpoint)\n",
                 workload.c_str());
    return 2;
  }
  const bool report = cfg.GetBool("report", true);

  const std::vector<std::string> unread = cfg.UnreadKeys();
  if (!unread.empty()) {
    for (const std::string& key : unread) {
      std::fprintf(stderr, "unknown key '%s' for workload '%s'\n",
                   key.c_str(), workload.c_str());
    }
    return 2;
  }

  Testbed tb(options);
  const int rc = run(tb);
  if (report) {
    const auto mounts = CollectMountStats(tb, options.compute_nodes);
    std::printf("\nstore status:\n%s",
                store::StatusReport(tb.store(), mounts).c_str());
  }
  return rc;
}
