// stream — closed loop.  Each client sweeps TRIAD-style over two private
// 16 MiB NVM arrays, reading B and writing A = 3*B + sweep, one 64 KiB
// block (16 pages of each array) per op.  The four clients' 128 MiB are
// about 5x every cache combined, so read-ahead, batched run RPCs, flush
// windows and SSD/NIC bandwidth do the work; the manager and the timeline
// gap search do almost nothing (intervals coalesce, locations are cached).
// The seed picks each client's starting block and its think times before
// each block, which change how the clients' requests interleave at the
// benefactors; an op's latency covers its think time.
#include <cstring>
#include <memory>

#include "common/rng.hpp"
#include "nvmbench.hpp"
#include "store/store.hpp"
#include "trace_hooks.hpp"

namespace nvmbench {
namespace {

constexpr uint64_t kArrayBytes = 16 * 1024 * 1024;
constexpr uint32_t kBlocks = kArrayBytes / kChunk;  // ops per sweep
constexpr uint32_t kWarmupSweeps = 1;
constexpr uint32_t kMeasuredSweeps = 10;
constexpr size_t kElems = kChunk / sizeof(double);
constexpr double kScalar = 3.0;

// B's initial contents: small integers, so every A = 3*B + s is exact.
double InitialB(uint64_t seed, size_t client, uint64_t index) {
  nvm::SplitMix64 m(seed ^ (client << 48) ^ index);
  return static_cast<double>(m.Next() >> 44);
}

struct Client {
  nvm::Xoshiro256 rng{0};
  nvm::NvmRegion* a = nullptr;
  nvm::NvmRegion* b = nullptr;
  uint32_t phase = 0;  // first block of every sweep
  uint32_t done = 0;   // blocks completed in the current phase
};

}  // namespace

Iteration RunStream(uint64_t seed) {
  Iteration it;
  const double setup_start = HostSeconds();
  TracedTestbed traced;
  auto tb = std::make_unique<nvm::workloads::Testbed>(BaseTestbedOptions());
  auto ctx = MakeClients(kClients);
  std::vector<Client> cl(kClients);
  for (size_t c = 0; c < kClients; ++c) {
    cl[c].rng = nvm::Xoshiro256(seed * kClients + c);
    cl[c].phase = static_cast<uint32_t>(cl[c].rng.NextBelow(kBlocks));
  }

  // Set-up: allocate both arrays and write B through the mapping.
  RunClosedLoop(ctx, [&](size_t c) {
    Client& me = cl[c];
    auto& rt = tb->runtime(static_cast<int>(c));
    if (me.a == nullptr) {
      auto a = rt.SsdMalloc(kArrayBytes);
      auto b = rt.SsdMalloc(kArrayBytes);
      if (!a.ok() || !b.ok()) {
        Fail(it, "ssdmalloc failed");
        return false;
      }
      me.a = *a;
      me.b = *b;
    }
    if (me.done == kBlocks) {
      if (!me.b->Sync().ok()) Fail(it, "sync of B failed");
      me.done = 0;
      return false;
    }
    const uint64_t block = me.done++;
    auto pb = me.b->Pin(block * kChunk, kChunk, true);
    if (!pb.ok()) {
      Fail(it, "B pin failed: " + pb.status().ToString());
      return false;
    }
    auto* b = reinterpret_cast<double*>(pb->data());
    for (size_t i = 0; i < kElems; ++i) {
      b[i] = InitialB(seed, c, block * kElems + i);
    }
    return true;
  });

  // One sweep-phase of `sweeps` passes; `first_sweep` numbers the passes.
  uint64_t request = 0;
  const auto sweep_phase = [&](uint32_t first_sweep, uint32_t sweeps,
                               bool measured) {
    for (auto& c : cl) c.done = 0;
    const uint32_t total = sweeps * kBlocks;
    RunClosedLoop(ctx, [&](size_t c) {
      Client& me = cl[c];
      auto& clock = ctx[c].clock;
      if (me.done == total) {
        // End of phase: make the store current.
        if (!me.a->Sync().ok()) Fail(it, "sync of A failed");
        return false;
      }
      const double s = first_sweep + me.done / kBlocks;
      const uint64_t block = (me.phase + me.done % kBlocks) % kBlocks;
      ++me.done;
      Request req(request);
      const int64_t t0 = clock.now();
      clock.Advance(ThinkNs(me.rng));
      ++it.attempted;
      auto pb = me.b->Pin(block * kChunk, kChunk, false);
      auto pa = me.a->Pin(block * kChunk, kChunk, true);
      if (!pb.ok() || !pa.ok()) {
        Fail(it, "TRIAD pin failed");
        return true;
      }
      const auto* b = reinterpret_cast<const double*>(pb->data());
      auto* a = reinterpret_cast<double*>(pa->data());
      for (size_t i = 0; i < kElems; ++i) a[i] = kScalar * b[i] + s;
      // The streamed bytes cross the node's memory channel, and the
      // kernel's arithmetic is charged on its core.
      auto& node = tb->cluster().node(static_cast<int>(c));
      node.dram().ChargeRead(clock, kChunk);
      node.dram().ChargeWrite(clock, kChunk);
      tb->cluster().cpu().ChargeFlops(clock, 2 * kElems);
      if (measured) it.latencies_ns.push_back(clock.now() - t0);
      ++request;
      return true;
    });
  };

  sweep_phase(1, kWarmupSweeps, false);
  const int64_t t_begin = AlignClocks(ctx);
  const Counters c0 = Capture(*tb);
  const uint64_t ops = uint64_t{kMeasuredSweeps} * kBlocks * kClients;
  it.setup_s = HostSeconds() - setup_start;

  const double measure_start = HostSeconds();
  PhaseBegin(ops);
  sweep_phase(1 + kWarmupSweeps, kMeasuredSweeps, true);
  PhaseEnd();
  it.measured_s = HostSeconds() - measure_start;
  it.measured_ops = ops;
  const int64_t t_end = AlignClocks(ctx);
  const Counters d = Delta(c0, Capture(*tb));

  PhaseTotals t;
  t.app_bytes = ops * 2 * kChunk;
  t.app_bytes_written = ops * kChunk;
  t.span_ns = t_end - t_begin;
  t.device_bytes_programmed =
      static_cast<uint64_t>(d["ssd.bytes_programmed"]);
  t.benefactor_bytes_used =
      static_cast<uint64_t>(d["level.benefactor.bytes_used"]);
  t.live_user_bytes = kClients * 2 * kArrayBytes;
  AddEndToEndMetrics(it.exact, it.latencies_ns, t);
  AddLayerMetrics(it.exact, d, ops, t.app_bytes, t.span_ns);
  AddAppMetrics(it.exact, {});

  // Verification: read both arrays back from the store, bypassing every
  // cache, and compare with the closed-form expectation.
  const double last = kWarmupSweeps + kMeasuredSweeps;
  std::vector<uint8_t> buf(kChunk);
  for (size_t c = 0; c < kClients; ++c) {
    auto& client = tb->store().ClientForNode(static_cast<int>(c));
    VirtualClock vc(t_end);
    for (uint32_t blk = 0; blk < kBlocks; ++blk) {
      for (int arr = 0; arr < 2; ++arr) {
        nvm::NvmRegion* r = arr == 0 ? cl[c].a : cl[c].b;
        if (!client.ReadChunk(vc, r->file_id(), blk, buf).ok()) {
          Fail(it, "verification read failed");
          continue;
        }
        const auto* v = reinterpret_cast<const double*>(buf.data());
        for (size_t i = 0; i < kElems; ++i) {
          const double b0 = InitialB(seed, c, blk * kElems + i);
          const double want = arr == 0 ? kScalar * b0 + last : b0;
          if (v[i] != want) {
            Fail(it, "stream verification mismatch on client " +
                         std::to_string(c));
            break;
          }
        }
      }
    }
  }
  traced.End(*tb, it);
  return it;
}

}  // namespace nvmbench
