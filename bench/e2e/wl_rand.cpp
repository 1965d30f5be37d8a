// rand — closed loop.  Each client owns a 16 MiB NVM region and runs
// transactions of four 4 KiB-page accesses: 70% read 64 bytes, 30% modify
// 64 bytes, each after an exponentially distributed virtual think time of
// mean 2 us.  80% of accesses go to a hot 10% of the region, which fits the
// chunk cache and page pool; the other 20% are uniform and miss.  This
// exercises page-pool faults, the single-chunk miss path, partial-page
// merges that re-verify and re-hash a 64 KiB chunk, and fragmented resource
// timelines, while read-ahead and run batching do nothing.  A transaction,
// think times included, is the op: most single accesses hit DRAM and cost
// no modelled time at all, so per-access percentiles would show only the
// hit path.
#include <cstring>
#include <memory>

#include "common/rng.hpp"
#include "nvmbench.hpp"
#include "store/store.hpp"
#include "trace_hooks.hpp"

namespace nvmbench {
namespace {

constexpr uint64_t kRegionBytes = 16 * 1024 * 1024;
constexpr uint64_t kPages = kRegionBytes / kPage;
constexpr uint64_t kHotPages = kPages / 10;
constexpr uint64_t kAccessBytes = 64;
constexpr int kAccessesPerOp = 4;
constexpr uint64_t kMeasuredOpsPerClient = 6'400;
constexpr uint64_t kWarmupOpsPerClient = kMeasuredOpsPerClient / 10;

struct Client {
  nvm::NvmRegion* region = nullptr;
  std::vector<uint8_t> shadow;  // what the region must hold
  nvm::Xoshiro256 rng{0};
  uint64_t hot_first = 0;  // first page of the hot set
  uint64_t done = 0;       // ops (or set-up chunks) completed in the phase
  uint64_t writes = 0;     // modifying accesses in the measured phase
};

}  // namespace

Iteration RunRand(uint64_t seed) {
  Iteration it;
  const double setup_start = HostSeconds();
  TracedTestbed traced;
  auto tb = std::make_unique<nvm::workloads::Testbed>(BaseTestbedOptions());
  auto ctx = MakeClients(kClients);
  std::vector<Client> cl(kClients);
  for (size_t c = 0; c < kClients; ++c) {
    cl[c].rng = nvm::Xoshiro256(seed * kClients + c);
    cl[c].hot_first = cl[c].rng.NextBelow(kPages - kHotPages);
    cl[c].shadow.resize(kRegionBytes);
    FillBytes(cl[c].shadow.data(), kRegionBytes, seed, c, 0);
  }

  // Set-up: allocate and write every chunk of the region.
  RunClosedLoop(ctx, [&](size_t c) {
    Client& me = cl[c];
    if (me.region == nullptr) {
      auto r = tb->runtime(static_cast<int>(c)).SsdMalloc(kRegionBytes);
      if (!r.ok()) {
        Fail(it, "ssdmalloc failed");
        return false;
      }
      me.region = *r;
    }
    if (me.done == kRegionBytes / kChunk) {
      if (!me.region->Sync().ok()) Fail(it, "set-up sync failed");
      return false;
    }
    const uint64_t off = me.done++ * kChunk;
    if (!me.region->Write(off, {me.shadow.data() + off, kChunk}).ok()) {
      Fail(it, "set-up write failed");
      return false;
    }
    return true;
  });

  uint64_t request = 0;
  const auto phase = [&](uint64_t ops_per_client, bool measured) {
    for (auto& c : cl) c.done = 0;
    RunClosedLoop(ctx, [&](size_t c) {
      Client& me = cl[c];
      auto& clock = ctx[c].clock;
      if (me.done == ops_per_client) {
        if (!me.region->Sync().ok()) Fail(it, "sync failed");
        return false;
      }
      ++me.done;
      ++it.attempted;
      Request req(request);
      const int64_t start = clock.now();
      for (int a = 0; a < kAccessesPerOp; ++a) {
        clock.Advance(ThinkNs(me.rng));
        const bool hot = me.rng.NextBelow(10) < 8;
        const uint64_t page = hot ? me.hot_first + me.rng.NextBelow(kHotPages)
                                  : me.rng.NextBelow(kPages);
        const uint64_t off =
            page * kPage + me.rng.NextBelow(kPage / kAccessBytes) *
                               kAccessBytes;
        const bool write = me.rng.NextBelow(10) < 3;
        auto pin = me.region->Pin(off, kAccessBytes, write);
        if (!pin.ok()) {
          Fail(it, "pin failed: " + pin.status().ToString());
          continue;
        }
        uint8_t* shadow = me.shadow.data() + off;
        if (write) {
          FillBytes(shadow, kAccessBytes, seed, c, request * 8 + a + 1);
          std::memcpy(pin->data(), shadow, kAccessBytes);
          if (measured) ++me.writes;
        } else if (std::memcmp(pin->data(), shadow, kAccessBytes) != 0) {
          Fail(it, "read returned wrong bytes on client " + std::to_string(c));
        }
      }
      if (measured) it.latencies_ns.push_back(clock.now() - start);
      ++request;
      return true;
    });
  };

  phase(kWarmupOpsPerClient, false);
  const int64_t t_begin = AlignClocks(ctx);
  const Counters c0 = Capture(*tb);
  const uint64_t ops = kMeasuredOpsPerClient * kClients;
  it.setup_s = HostSeconds() - setup_start;

  const double measure_start = HostSeconds();
  PhaseBegin(ops);
  phase(kMeasuredOpsPerClient, true);
  PhaseEnd();
  it.measured_s = HostSeconds() - measure_start;
  it.measured_ops = ops;
  const int64_t t_end = AlignClocks(ctx);
  const Counters d = Delta(c0, Capture(*tb));

  uint64_t writes = 0;
  for (const auto& c : cl) writes += c.writes;
  PhaseTotals t;
  t.app_bytes = ops * kAccessesPerOp * kAccessBytes;
  t.app_bytes_written = writes * kAccessBytes;
  t.span_ns = t_end - t_begin;
  t.device_bytes_programmed =
      static_cast<uint64_t>(d["ssd.bytes_programmed"]);
  t.benefactor_bytes_used =
      static_cast<uint64_t>(d["level.benefactor.bytes_used"]);
  t.live_user_bytes = kClients * kRegionBytes;
  AddEndToEndMetrics(it.exact, it.latencies_ns, t);
  AddLayerMetrics(it.exact, d, ops, t.app_bytes, t.span_ns);
  AddAppMetrics(it.exact, {});

  // Verification: every chunk read straight from the store must equal the
  // shadow copy.
  std::vector<uint8_t> buf(kChunk);
  for (size_t c = 0; c < kClients; ++c) {
    auto& client = tb->store().ClientForNode(static_cast<int>(c));
    VirtualClock vc(t_end);
    for (uint32_t i = 0; i < kRegionBytes / kChunk; ++i) {
      if (!client.ReadChunk(vc, cl[c].region->file_id(), i, buf).ok() ||
          std::memcmp(buf.data(), cl[c].shadow.data() + i * kChunk,
                      kChunk) != 0) {
        Fail(it, "rand verification failed on client " + std::to_string(c));
        break;
      }
    }
  }
  traced.End(*tb, it);
  return it;
}

}  // namespace nvmbench
