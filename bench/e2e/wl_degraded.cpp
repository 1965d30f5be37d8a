// degraded — open loop: independent tenants on a store that just lost a
// benefactor.  Replication 2, the maintenance service on with its
// defaults, QoS on.  Each rung builds a fresh testbed, populates four
// 24 MiB files, kills one benefactor at t0 and lets the maintenance
// service book detection and repair first (RunUntil past the foreground
// window, as bench_repair_mttr does), so its worker is idle while the
// foreground runs.  From t0 a reader tenant on each client node issues
// Poisson-arrival 64 KiB ReadChunks, each on its own clock starting at its
// due time (the generator is never late), and a checkpoint-writer tenant
// sends a burst of 32 chunk writes every 200 ms.  The read rate climbs by
// x1.5 per rung from 400 reads/s per client; the first rung is the nominal
// one, and the top rung must break the latency limit.  The failure
// detector, the repair engine and its throttle, QoS admission, the
// replicated write fork/join and NIC queueing do the work; the fuselite
// cache is bypassed entirely.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>

#include "common/rng.hpp"
#include "nvmbench.hpp"
#include "store/store.hpp"
#include "trace_hooks.hpp"

namespace nvmbench {
namespace {

using nvm::store::TenantId;

constexpr int64_t kMs = 1'000'000;
constexpr uint64_t kFileBytes = 24 * 1024 * 1024;
constexpr uint32_t kFileChunks = kFileBytes / kChunk;
constexpr uint32_t kBurstChunks = 32;
constexpr int64_t kBurstPeriodNs = 200 * kMs;
constexpr TenantId kReader = 2;
constexpr TenantId kWriter = 3;
constexpr int kWriterNode = 4;
constexpr int kLoaderNode = 5;
constexpr size_t kKilledBenefactor = 1;
// Population finishes well before this virtual instant; the benefactor
// dies at it.
constexpr int64_t kKillAt = 4'000 * kMs;
constexpr int64_t kSlackNs = 1'000 * kMs;
constexpr double kBaseRate = 400;  // reads/s per client on the first rung
constexpr double kRateStep = 1.5;
constexpr int kRungs = 5;
constexpr int64_t kNominalWindowNs = 6'400 * kMs;
constexpr int64_t kRungWindowNs = 1'600 * kMs;
constexpr int64_t kLatencyLimitNs = 5 * kMs;

// Highest rung rule: p99 within the limit and no growing backlog (the
// median of the last tenth of reads at most twice that of the first).
bool MeetsLimit(const std::vector<int64_t>& in_order) {
  if (in_order.size() < 20) return false;
  std::vector<int64_t> sorted = in_order;
  std::sort(sorted.begin(), sorted.end());
  if (Percentile(sorted, 0.99) > kLatencyLimitNs) return false;
  const size_t tenth = in_order.size() / 10;
  std::vector<int64_t> first(in_order.begin(), in_order.begin() + tenth);
  std::vector<int64_t> last(in_order.end() - tenth, in_order.end());
  std::sort(first.begin(), first.end());
  std::sort(last.begin(), last.end());
  return Percentile(last, 0.5) <= 2 * Percentile(first, 0.5);
}

}  // namespace

Iteration RunDegraded(uint64_t seed) {
  Iteration it;
  double setup_host = 0;

  // The files' contents, shared by every rung of the iteration.
  std::vector<std::vector<uint8_t>> files(kClients);
  for (size_t c = 0; c < kClients; ++c) {
    files[c].resize(kFileBytes);
    FillBytes(files[c].data(), kFileBytes, seed, c, 3);
  }
  nvm::Bitmap all_pages(kChunk / kPage);
  all_pages.SetAll();

  AppMetrics app;
  nvm::store::MaintenanceStats nominal_maint;
  Counters total;
  uint64_t total_written = 0;
  uint64_t total_app_bytes = 0;
  int64_t total_window = 0;
  uint64_t request = 0;
  int passed_rungs = 0;

  for (int rung = 0; rung < kRungs; ++rung) {
    const double rate = kBaseRate * std::pow(kRateStep, rung);
    const int64_t window = rung == 0 ? kNominalWindowNs : kRungWindowNs;
    const int64_t t0 = kKillAt;
    const double setup_start = HostSeconds();
    TracedTestbed traced;
    auto opts = BaseTestbedOptions();
    opts.store.replication = 2;
    opts.store.maintenance = true;
    opts.store.qos = true;
    opts.store.qos_tenants = {{kReader, 4.0, 0.5, 2}, {kWriter, 1.0, 0.15, 1}};
    auto tb = std::make_unique<nvm::workloads::Testbed>(opts);
    auto& store = tb->store();
    auto& ms = *store.maintenance();
    // Book the detector and scrubber up to the kill first, so no client
    // metadata round-trip can wake the worker while the harness runs.
    ms.RunUntil(t0);

    // Population in 32-chunk write windows: the reader files from a loader
    // node, so the readers start with cold location caches and resolve the
    // repaired placement; the writer's file from the writer node.
    std::vector<nvm::store::FileId> fid(kClients);
    auto ctx = MakeClients(kClients);
    std::vector<uint32_t> next(kClients, 0);
    auto& loader = store.ClientForNode(kLoaderNode);
    RunClosedLoop(ctx, [&](size_t c) {
      auto& clock = ctx[c].clock;
      if (fid[c] == 0) {
        auto id = loader.Create(clock, "/degraded/f" + std::to_string(c));
        if (!id.ok() || !loader.Fallocate(clock, *id, kFileBytes).ok()) {
          Fail(it, "populate create failed");
          return false;
        }
        fid[c] = *id;
      }
      if (next[c] == kFileChunks) return false;
      std::vector<nvm::store::StoreClient::ChunkWrite> w(kBurstChunks);
      for (uint32_t i = 0; i < kBurstChunks; ++i) {
        const uint32_t idx = next[c] + i;
        w[i].index = idx;
        w[i].dirty = &all_pages;
        w[i].image = {files[c].data() + uint64_t{idx} * kChunk, kChunk};
      }
      next[c] += kBurstChunks;
      if (!loader.WriteChunks(clock, fid[c], w).ok()) {
        Fail(it, "populate write failed");
      }
      return true;
    });
    auto& writer = store.ClientForNode(kWriterNode);
    writer.SetTenant(kWriter);
    std::vector<uint8_t> burst(uint64_t{kBurstChunks} * kChunk);
    // Returns the number of chunks the store did not acknowledge.
    const auto write_burst = [&](VirtualClock& clock, nvm::store::FileId id,
                                 uint64_t burst_no) {
      FillBytes(burst.data(), burst.size(), seed, 100 + burst_no, 4);
      std::vector<nvm::store::StoreClient::ChunkWrite> w(kBurstChunks);
      for (uint32_t i = 0; i < kBurstChunks; ++i) {
        w[i].index = i;
        w[i].dirty = &all_pages;
        w[i].image = {burst.data() + uint64_t{i} * kChunk, kChunk};
      }
      if (!writer.WriteChunks(clock, id, w).ok()) return uint64_t{kBurstChunks};
      uint64_t bad = 0;
      for (const auto& x : w) bad += x.status.ok() ? 0 : 1;
      return bad;
    };
    VirtualClock wclock(0);
    nvm::store::FileId wfile = 0;
    if (auto id = writer.Create(wclock, "/degraded/ckpt");
        id.ok() &&
        writer.Fallocate(wclock, *id, uint64_t{kBurstChunks} * kChunk).ok()) {
      wfile = *id;
    }
    if (wfile == 0 || write_burst(wclock, wfile, 0) != 0) {
      Fail(it, "writer set-up failed");
    }
    for (const auto& c : ctx) {
      if (c.clock.now() >= t0) Fail(it, "population ran past the kill time");
    }
    if (wclock.now() >= t0) Fail(it, "population ran past the kill time");
    for (size_t c = 0; c < kClients; ++c) {
      store.ClientForNode(static_cast<int>(c)).SetTenant(kReader);
    }
    // Counted from here, so the rung's deltas include the repair I/O booked
    // into its window.
    const Counters c0 = Capture(*tb);

    // The failure, then detection and repair booked past the window.
    store.benefactor(kKilledBenefactor).Kill();
    ms.RunUntil(t0 + window + kSlackNs);
    const auto maint = ms.stats();
    if (rung == 0) {
      nominal_maint = maint;
      app.mttr_ms =
          maint.converged_at_ns >= t0
              ? static_cast<double>(maint.converged_at_ns - t0) / 1e6
              : 0.0;
    }
    setup_host += HostSeconds() - setup_start;

    // Foreground: merge the four Poisson readers and the writer's bursts
    // in due order (ties: lowest source).
    const double measure_start = HostSeconds();
    nvm::Xoshiro256 rng(seed * 977 + static_cast<uint64_t>(rung));
    const auto gap = [&] {
      return static_cast<int64_t>(-std::log(1.0 - rng.NextDouble()) / rate *
                                  1e9);
    };
    std::vector<int64_t> due(kClients + 1);
    for (size_t c = 0; c < kClients; ++c) due[c] = t0 + gap();
    due[kClients] = t0;
    const int64_t end = t0 + window;
    std::vector<int64_t> latencies;  // reads, in due order
    uint64_t reads = 0;
    uint64_t writes = 0;
    std::vector<uint8_t> buf(kChunk);
    uint64_t bursts = 0;
    int64_t last_due = t0;
    PhaseBegin(static_cast<uint64_t>(rate * kClients * window / 1e9) +
               static_cast<uint64_t>(window / kBurstPeriodNs));
    for (;;) {
      const size_t src = static_cast<size_t>(
          std::min_element(due.begin(), due.end()) - due.begin());
      const int64_t at = due[src];
      if (at >= end) break;
      if (at < last_due) Fail(it, "open-loop generator ran late");
      last_due = at;
      Request req(request++);
      VirtualClock vc(at);
      if (src == kClients) {
        it.attempted += kBurstChunks;
        const uint64_t bad = write_burst(vc, wfile, ++bursts);
        for (uint64_t i = 0; i < bad; ++i) Fail(it, "writer burst failed");
        writes += kBurstChunks;
        due[src] = at + kBurstPeriodNs;
        continue;
      }
      ++it.attempted;
      const uint32_t idx = static_cast<uint32_t>(rng.NextBelow(kFileChunks));
      auto& client = store.ClientForNode(static_cast<int>(src));
      if (!client.ReadChunk(vc, fid[src], idx, buf).ok()) {
        Fail(it, "read failed");
      } else if (std::memcmp(buf.data(),
                             files[src].data() + uint64_t{idx} * kChunk,
                             kChunk) != 0) {
        Fail(it, "read returned wrong bytes");
      }
      latencies.push_back(vc.now() - at);
      ++reads;
      due[src] = at + gap();
    }
    PhaseEnd();
    it.measured_s += HostSeconds() - measure_start;
    it.measured_ops += reads + writes;
    const Counters d = Delta(c0, Capture(*tb));
    if (ms.stats().heartbeat_sweeps != maint.heartbeat_sweeps) {
      Fail(it, "maintenance ran during the foreground");
    }

    // The writer's file holds the last burst.
    std::vector<uint8_t> want(burst.size());
    FillBytes(want.data(), want.size(), seed, 100 + bursts, 4);
    VirtualClock vclock(end);
    for (uint32_t i = 0; i < kBurstChunks; ++i) {
      if (!writer.ReadChunk(vclock, wfile, i, buf).ok() ||
          std::memcmp(buf.data(), want.data() + uint64_t{i} * kChunk,
                      kChunk) != 0) {
        Fail(it, "writer file verification failed");
        break;
      }
    }

    // The answer is the last rung of the passing prefix; a rung that passes
    // above a failed one does not count.
    const bool meets = MeetsLimit(latencies);
    if (meets && rung == passed_rungs) {
      app.max_rate_ops = rate * kClients;
      ++passed_rungs;
    }
    if (meets && rung == kRungs - 1) {
      Fail(it, "the top rung met the latency limit; widen the ladder");
    }
    const uint64_t app_bytes = (reads + writes) * kChunk;
    total_written += writes * kChunk;
    total_app_bytes += app_bytes;
    total_window += window;
    Accumulate(total, d);
    if (rung == 0) {
      it.latencies_ns = latencies;
      PhaseTotals t;
      t.app_bytes = app_bytes;
      t.span_ns = window;
      t.benefactor_bytes_used =
          static_cast<uint64_t>(d["level.benefactor.bytes_used"]);
      t.live_user_bytes = kClients * kFileBytes + kBurstChunks * kChunk;
      AddEndToEndMetrics(it.exact, latencies, t);
    }
    traced.End(*tb, it);
  }
  it.setup_s = setup_host;
  it.exact["ssd_write_amp"] = {
      total_written > 0 ? (total["ssd.bytes_programmed"] /
                           static_cast<double>(total_written))
                        : 0.0,
      "ratio"};
  AddLayerMetrics(it.exact, total, it.measured_ops, total_app_bytes,
                  total_window, &nominal_maint);
  AddAppMetrics(it.exact, app);
  return it;
}

}  // namespace nvmbench
