#include <algorithm>
#include <cmath>
#include <cstring>
#include <ctime>

#include "common/rng.hpp"
#include "nvmbench.hpp"
#include "store/store.hpp"
#include "trace_hooks.hpp"

namespace nvmbench {

nvm::workloads::TestbedOptions BaseTestbedOptions() {
  nvm::workloads::TestbedOptions o;
  o.compute_nodes = 6;
  o.benefactors = kBenefactors;
  o.remote_benefactors = true;
  o.ssd_profile = nvm::sim::IntelX25E();
  o.store.chunk_bytes = kChunk;
  o.store.page_bytes = kPage;
  o.fuse.cache_bytes = 2 * 1024 * 1024;
  o.fuse.dirty_page_writeback = true;
  o.fuse.async_writeback = true;
  o.page_pool_bytes = 4 * 1024 * 1024;
  return o;
}

double HostSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

int64_t Percentile(const std::vector<int64_t>& sorted, double p) {
  if (sorted.empty()) return 0;
  const auto rank = static_cast<size_t>(
      std::ceil(p * static_cast<double>(sorted.size())));
  return sorted[std::clamp<size_t>(rank, 1, sorted.size()) - 1];
}

void RunClosedLoop(std::vector<ExecutionContext>& clients,
                   const std::function<bool(size_t)>& step) {
  std::vector<char> done(clients.size(), 0);
  for (;;) {
    size_t pick = clients.size();
    for (size_t i = 0; i < clients.size(); ++i) {
      if (done[i]) continue;
      if (pick == clients.size() ||
          clients[i].clock.now() < clients[pick].clock.now()) {
        pick = i;
      }
    }
    if (pick == clients.size()) break;
    nvm::sim::SetCurrentContext(&clients[pick]);
    if (!step(pick)) done[pick] = 1;
  }
  nvm::sim::SetCurrentContext(nullptr);
}

int64_t AlignClocks(std::vector<ExecutionContext>& clients) {
  int64_t t = 0;
  for (const auto& c : clients) t = std::max(t, c.clock.now());
  for (auto& c : clients) c.clock.AdvanceTo(t);
  return t;
}

std::vector<ExecutionContext> MakeClients(size_t n, int64_t t0) {
  std::vector<ExecutionContext> clients(n);
  for (size_t i = 0; i < n; ++i) {
    clients[i].clock.Reset(t0);
    clients[i].node_id = static_cast<int>(i);
    clients[i].rank = static_cast<int>(i);
    clients[i].name = "client" + std::to_string(i);
  }
  return clients;
}

double Counters::operator[](const std::string& k) const {
  auto it = v.find(k);
  return it == v.end() ? 0.0 : it->second;
}

namespace {

void AddResource(std::map<std::string, double>& v, const std::string& group,
                 const nvm::sim::Resource& r) {
  v[group + ".busy_ns"] += static_cast<double>(r.busy_ns());
  v[group + ".queue_ns"] += static_cast<double>(r.queue_delay_ns());
  v[group + ".requests"] += static_cast<double>(r.num_requests());
}

// Counters that are levels at capture time rather than running totals.
bool IsLevel(const std::string& key) {
  return key.starts_with("level.");
}

}  // namespace

Counters Capture(nvm::workloads::Testbed& tb) {
  Counters c;
  auto& v = c.v;
  auto& cluster = tb.cluster();
  auto& store = tb.store();
  const auto& opts = tb.options();

  for (size_t n = 0; n < cluster.num_nodes(); ++n) {
    const int node = static_cast<int>(n);
    auto& rt = tb.runtime(node);
    v["pool.faults"] += static_cast<double>(rt.pool().faults());
    v["pool.evictions"] += static_cast<double>(rt.pool().evictions());
    auto& cache = rt.mount().cache();
    const auto t = cache.traffic();
    v["cache.app_bytes_read"] += static_cast<double>(t.app_bytes_read);
    v["cache.app_bytes_written"] += static_cast<double>(t.app_bytes_written);
    v["cache.hit_chunks"] += static_cast<double>(t.hit_chunks);
    v["cache.fetched_chunks"] += static_cast<double>(t.fetched_chunks);
    v["cache.prefetched_chunks"] += static_cast<double>(t.prefetched_chunks);
    v["cache.evictions"] += static_cast<double>(t.evictions);
    v["cache.flushed_pages"] += static_cast<double>(t.flushed_pages);
    v["cache.flush_batches"] += static_cast<double>(t.flush_batches);
    v["cache.flush_batched_chunks"] +=
        static_cast<double>(t.flush_batched_chunks);
    v["cache.batched_chunks"] += static_cast<double>(t.batched_chunks);
    for (int lane = 0; lane < std::max(1, opts.fuse.daemon_threads); ++lane) {
      AddResource(v, "fuse-daemon", cache.daemon(static_cast<size_t>(lane)));
    }
    auto& client = rt.mount().client();
    v["client.meta_rtts"] += static_cast<double>(client.meta_round_trips());
    v["client.run_rpcs"] += static_cast<double>(client.run_rpcs());
    v["client.write_run_rpcs"] += static_cast<double>(client.write_run_rpcs());
    v["client.bytes_fetched"] += static_cast<double>(client.bytes_fetched());
    v["client.bytes_flushed"] += static_cast<double>(client.bytes_flushed());
    v["client.degraded_writes"] +=
        static_cast<double>(client.degraded_writes());
    v["client.ec_degraded_reads"] +=
        static_cast<double>(client.ec_degraded_reads());
    AddResource(v, "nic", cluster.network().nic(node));
    auto& nd = cluster.node(node);
    if (nd.has_ssd()) {
      auto& ssd = nd.ssd();
      AddResource(v, "ssd", ssd.channel());
      v["ssd.bytes_programmed"] +=
          static_cast<double>(ssd.device_bytes_programmed());
      v["level.ssd.max_wear_fraction"] =
          std::max(v["level.ssd.max_wear_fraction"], ssd.wear_fraction());
      v["ssd" + std::to_string(node) + ".busy_ns"] =
          static_cast<double>(ssd.channel().busy_ns());
    }
  }
  v["net.bytes_transferred"] =
      static_cast<double>(cluster.network().bytes_transferred());

  for (size_t b = 0; b < store.num_benefactors(); ++b) {
    auto& ben = store.benefactor(b);
    v["benefactor.read_requests"] += static_cast<double>(ben.read_requests());
    v["benefactor.write_requests"] +=
        static_cast<double>(ben.write_requests());
    v["benefactor.verify_requests"] +=
        static_cast<double>(ben.verify_requests());
    v["level.benefactor.bytes_used"] += static_cast<double>(ben.bytes_used());
  }
  auto& mgr = store.manager();
  v["manager.ec_parity_bytes"] = static_cast<double>(mgr.ec_parity_bytes());
  if (auto* wal = store.wal()) {
    v["wal.appends"] = static_cast<double>(wal->appends());
    v["level.wal.bytes"] = static_cast<double>(wal->wal_bytes());
    AddResource(v, "manager-wal", wal->device().channel());
    v["wal.bytes_programmed"] =
        static_cast<double>(wal->device().device_bytes_programmed());
  }
  for (const auto& t : store.qos().Snapshot().tenants) {
    const std::string p = "qos.t" + std::to_string(t.id);
    v[p + ".admitted"] = static_cast<double>(t.admitted);
    v[p + ".delayed"] = static_cast<double>(t.delayed);
    v[p + ".delay_ns"] = static_cast<double>(t.delay_ns);
  }
  return c;
}

Counters Delta(const Counters& begin, const Counters& end) {
  Counters d;
  for (const auto& [k, val] : end.v) {
    d.v[k] = IsLevel(k) ? val : val - begin[k];
  }
  return d;
}

void Accumulate(Counters& into, const Counters& add) {
  for (const auto& [k, val] : add.v) {
    if (IsLevel(k)) {
      into.v[k] = std::max(into.v[k], val);
    } else {
      into.v[k] += val;
    }
  }
}

namespace {

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

void AddLayerMetrics(Metrics& out, const Counters& d, uint64_t ops,
                     uint64_t app_bytes, int64_t span_ns,
                     const nvm::store::MaintenanceStats* maint) {
  const auto n = static_cast<double>(ops);
  const auto put = [&out](const std::string& name, double value,
                          const char* unit) { out[name] = {value, unit}; };
  put("nvmalloc.page_faults_per_op", Ratio(d["pool.faults"], n), "1/op");
  put("nvmalloc.page_evictions_per_op", Ratio(d["pool.evictions"], n),
      "1/op");

  put("fuselite.hit_ratio",
      Ratio(d["cache.hit_chunks"],
            d["cache.hit_chunks"] + d["cache.fetched_chunks"]),
      "ratio");
  put("fuselite.fetched_chunks", d["cache.fetched_chunks"], "count");
  put("fuselite.prefetched_chunks", d["cache.prefetched_chunks"], "count");
  put("fuselite.evictions", d["cache.evictions"], "count");
  put("fuselite.flushed_pages", d["cache.flushed_pages"], "count");
  put("fuselite.chunks_per_flush_batch",
      Ratio(d["cache.flush_batched_chunks"], d["cache.flush_batches"]),
      "count");
  put("fuselite.daemon.service_ms", d["fuse-daemon.busy_ns"] / 1e6, "ms");
  put("fuselite.daemon.queue_ms", d["fuse-daemon.queue_ns"] / 1e6, "ms");

  put("store.client.meta_rtts_per_op", Ratio(d["client.meta_rtts"], n),
      "1/op");
  put("store.client.chunks_per_read_run",
      Ratio(d["cache.batched_chunks"], d["client.run_rpcs"]), "count");
  put("store.client.write_runs", d["client.write_run_rpcs"], "count");
  put("store.client.bytes_fetched", d["client.bytes_fetched"], "B");
  put("store.client.bytes_flushed", d["client.bytes_flushed"], "B");
  put("store.client.degraded_writes", d["client.degraded_writes"], "count");
  put("store.client.ec_degraded_reads", d["client.ec_degraded_reads"],
      "count");

  put("store.wal.appends", d["wal.appends"], "count");
  put("store.wal.bytes", d["level.wal.bytes"], "B");
  put("store.wal.device.service_ms", d["manager-wal.busy_ns"] / 1e6, "ms");

  put("store.erasure.parity_bytes", d["manager.ec_parity_bytes"], "B");

  put("store.benefactor.read_requests_per_op",
      Ratio(d["benefactor.read_requests"], n), "1/op");
  put("store.benefactor.write_requests_per_op",
      Ratio(d["benefactor.write_requests"], n), "1/op");
  put("store.benefactor.verify_requests", d["benefactor.verify_requests"],
      "count");

  put("net.nic.service_ms", d["nic.busy_ns"] / 1e6, "ms");
  put("net.nic.queue_ms", d["nic.queue_ns"] / 1e6, "ms");
  put("net.bytes_per_app_byte",
      Ratio(d["net.bytes_transferred"], static_cast<double>(app_bytes)),
      "ratio");

  double max_busy = 0;
  for (size_t b = 0; b < kBenefactors; ++b) {
    const std::string key =
        "ssd" + std::to_string(kFirstBenefactorNode + static_cast<int>(b)) +
        ".busy_ns";
    max_busy = std::max(max_busy, d[key]);
  }
  put("sim.ssd.service_ms", d["ssd.busy_ns"] / 1e6, "ms");
  put("sim.ssd.queue_ms", d["ssd.queue_ns"] / 1e6, "ms");
  put("sim.ssd.requests", d["ssd.requests"], "count");
  put("sim.ssd.max_util", Ratio(max_busy, static_cast<double>(span_ns)),
      "ratio");
  put("sim.ssd.bytes_programmed", d["ssd.bytes_programmed"], "B");
  put("sim.ssd.max_wear_fraction", d["level.ssd.max_wear_fraction"],
      "ratio");

  const nvm::store::MaintenanceStats m =
      maint != nullptr ? *maint : nvm::store::MaintenanceStats{};
  put("store.maintenance.replicas_recreated",
      static_cast<double>(m.replicas_recreated), "count");
  put("store.maintenance.repair_busy_ms",
      static_cast<double>(m.repair_busy_ns) / 1e6, "ms");
  put("store.maintenance.throttle_idle_ms",
      static_cast<double>(m.throttle_idle_ns) / 1e6, "ms");
  put("store.maintenance.repairs_requeued",
      static_cast<double>(m.repairs_requeued), "count");
  put("store.maintenance.heartbeat_sweeps",
      static_cast<double>(m.heartbeat_sweeps), "count");

  // QoS tenants: 0 foreground, 1 maintenance, 2 reader, 3 writer.
  static const std::pair<int, const char*> kTenants[] = {
      {1, "maintenance"}, {2, "reader"}, {3, "writer"}};
  for (const auto& [id, name] : kTenants) {
    const std::string p = "qos.t" + std::to_string(id);
    put(std::string("store.qos.") + name + ".delay_ms",
        d[p + ".delay_ns"] / 1e6, "ms");
    put(std::string("store.qos.") + name + ".delayed_frac",
        Ratio(d[p + ".delayed"], d[p + ".admitted"]), "ratio");
  }
}

void AddEndToEndMetrics(Metrics& out, std::vector<int64_t> latencies,
                        const PhaseTotals& t) {
  std::sort(latencies.begin(), latencies.end());
  out["app_mbps"] = {
      Ratio(static_cast<double>(t.app_bytes),
            static_cast<double>(t.span_ns)) * 1e3,
      "MB/s"};
  out["op_p50_us"] = {static_cast<double>(Percentile(latencies, 0.50)) / 1e3,
                      "us"};
  out["op_p99_us"] = {static_cast<double>(Percentile(latencies, 0.99)) / 1e3,
                      "us"};
  // The 99.9th percentile rests on only 10-25 samples here, so it swings
  // with the seed; it is reported, without a bound, among the app metrics.
  out["app.op_p999_us"] = {
      static_cast<double>(Percentile(latencies, 0.999)) / 1e3, "us"};
  out["op_samples"] = {static_cast<double>(latencies.size()), "count"};
  out["ssd_write_amp"] = {
      Ratio(static_cast<double>(t.device_bytes_programmed),
            static_cast<double>(t.app_bytes_written)),
      "ratio"};
  out["space_amp"] = {Ratio(static_cast<double>(t.benefactor_bytes_used),
                            static_cast<double>(t.live_user_bytes)),
                      "ratio"};
}

void AddAppMetrics(Metrics& out, const AppMetrics& a) {
  out["app.ckpt_step_ms"] = {a.ckpt_step_ms, "ms"};
  out["app.restart_mbps"] = {a.restart_mbps, "MB/s"};
  out["app.mttr_ms"] = {a.mttr_ms, "ms"};
  out["app.max_rate_ops"] = {a.max_rate_ops, "1/s"};
}

std::map<std::string, GroupTime> GetterTimes(nvm::workloads::Testbed& tb) {
  const Counters c = Capture(tb);
  std::map<std::string, GroupTime> g;
  for (const char* group : {"ssd", "nic", "fuse-daemon", "manager-wal"}) {
    const std::string p = group;
    if (!c.v.contains(p + ".busy_ns")) continue;  // no WAL device
    g[p] = {static_cast<int64_t>(c[p + ".busy_ns"]),
            static_cast<int64_t>(c[p + ".queue_ns"])};
  }
  return g;
}

int64_t ThinkNs(nvm::Xoshiro256& rng) {
  constexpr double kMeanNs = 2'000;
  return static_cast<int64_t>(-kMeanNs * std::log(1.0 - rng.NextDouble()));
}

void FillBytes(uint8_t* out, size_t n, uint64_t seed, uint64_t a,
               uint64_t b) {
  nvm::SplitMix64 rng(seed ^ (a * 0x9e3779b97f4a7c15ULL) ^
                      (b * 0xc2b2ae3d27d4eb4fULL));
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const uint64_t x = rng.Next();
    std::memcpy(out + i, &x, 8);
  }
  if (i < n) {
    const uint64_t x = rng.Next();
    std::memcpy(out + i, &x, n - i);
  }
}

void Fail(Iteration& it, const std::string& what) {
  ++it.failed;
  if (it.errors.size() < 8) it.errors.push_back(what);
}

}  // namespace nvmbench
