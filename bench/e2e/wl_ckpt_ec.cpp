// ckpt-ec — closed loop: the application waits for ssdcheckpoint.  The
// store runs RS(4,2) erasure coding with the metadata WAL on.  Each client
// keeps 4 MiB of DRAM state and a 16 MiB NVM variable; every timestep
// dirties 10% random pages of the variable (one op per page, think time
// included) and then, in lock step with the other clients, calls
// SsdCheckpoint, which copies the DRAM state and links the variable.
// Every 4th step restarts into a fresh region and verifies it byte-exact;
// two checkpoints stay live and older ones are released; the manager
// checkpoints its metadata every 8 timesteps.  Manager metadata
// (create, link, copy-on-write PrepareWriteBatch), WAL appends, EC encoding,
// partial-stripe read-modify-write and EC I/O that skips the run RPCs do
// the work; restart measures EC read throughput.
#include <algorithm>
#include <cstring>
#include <memory>

#include "common/rng.hpp"
#include "nvmbench.hpp"
#include "store/store.hpp"
#include "trace_hooks.hpp"

namespace nvmbench {
namespace {

constexpr uint64_t kDramBytes = 4 * 1024 * 1024;
constexpr uint64_t kVarBytes = 16 * 1024 * 1024;
constexpr uint64_t kVarPages = kVarBytes / kPage;
constexpr uint64_t kDirtyPages = kVarPages / 10;
constexpr int kWarmupSteps = 2;
constexpr int kMeasuredSteps = 8;
constexpr int kRestartEvery = 4;
constexpr int kLiveCheckpoints = 2;
constexpr int kManagerCheckpointEvery = 8;
// DRAM state rewritten per step (the compute phase's output).
constexpr uint64_t kDramDirtyBytes = 256 * 1024;

std::string CkptName(size_t client, int step) {
  return "/ckpt/c" + std::to_string(client) + "/t" + std::to_string(step);
}

struct Client {
  nvm::NvmRegion* var = nullptr;
  std::vector<uint8_t> dram;    // the application's DRAM state
  std::vector<uint8_t> shadow;  // what the variable must hold
  nvm::Xoshiro256 rng{0};
  uint64_t page_ops = 0;  // pages dirtied in the current step
  uint64_t setup_chunks = 0;
};

}  // namespace

Iteration RunCkptEc(uint64_t seed) {
  Iteration it;
  const double setup_start = HostSeconds();
  TracedTestbed traced;
  auto opts = BaseTestbedOptions();
  opts.store.redundancy = nvm::store::RedundancyMode::kErasure;
  opts.store.ec_k = 4;
  opts.store.ec_m = 2;
  opts.store.wal = true;
  auto tb = std::make_unique<nvm::workloads::Testbed>(opts);
  auto ctx = MakeClients(kClients);
  std::vector<Client> cl(kClients);
  for (size_t c = 0; c < kClients; ++c) {
    cl[c].rng = nvm::Xoshiro256(seed * kClients + c);
    cl[c].dram.resize(kDramBytes);
    FillBytes(cl[c].dram.data(), kDramBytes, seed, c, 1);
    cl[c].shadow.resize(kVarBytes);
    FillBytes(cl[c].shadow.data(), kVarBytes, seed, c, 2);
  }

  // Set-up: allocate and write the variable.
  RunClosedLoop(ctx, [&](size_t c) {
    Client& me = cl[c];
    if (me.var == nullptr) {
      auto r = tb->runtime(static_cast<int>(c)).SsdMalloc(kVarBytes);
      if (!r.ok()) {
        Fail(it, "ssdmalloc failed");
        return false;
      }
      me.var = *r;
    }
    if (me.setup_chunks == kVarBytes / kChunk) {
      if (!me.var->Sync().ok()) Fail(it, "set-up sync failed");
      return false;
    }
    const uint64_t off = me.setup_chunks++ * kChunk;
    if (!me.var->Write(off, {me.shadow.data() + off, kChunk}).ok()) {
      Fail(it, "set-up write failed");
      return false;
    }
    return true;
  });

  bool measured = false;
  uint64_t request = 0;
  uint64_t app_bytes = 0;
  uint64_t app_bytes_written = 0;
  std::vector<int64_t> ckpt_ns;
  int64_t restart_ns = 0;
  uint64_t restart_bytes = 0;

  const auto restart = [&](size_t c, int step) {
    Client& me = cl[c];
    auto& clock = ctx[c].clock;
    auto& rt = tb->runtime(static_cast<int>(c));
    auto fresh = rt.SsdMalloc(kVarBytes);
    if (!fresh.ok()) {
      Fail(it, "restart ssdmalloc failed");
      return;
    }
    std::vector<uint8_t> dram(kDramBytes, 0);
    nvm::RestoreSpec spec;
    spec.dram.push_back({dram.data(), dram.size()});
    spec.nvm.push_back(*fresh);
    ++it.attempted;
    const int64_t t0 = clock.now();
    const nvm::Status s = rt.SsdRestart(CkptName(c, step), spec);
    if (!s.ok()) {
      Fail(it, "SsdRestart failed: " + s.ToString());
    } else {
      if (measured) {
        restart_ns += clock.now() - t0;
        restart_bytes += kDramBytes + kVarBytes;
        app_bytes += kDramBytes + kVarBytes;
      }
      std::vector<uint8_t> back(kVarBytes);
      if (dram != me.dram || !(*fresh)->Read(0, back).ok() ||
          back != me.shadow) {
        Fail(it, "restart is not byte-exact on client " + std::to_string(c));
      }
    }
    if (!rt.SsdFree(*fresh).ok()) Fail(it, "ssdfree failed");
  };

  const auto checkpoint = [&](size_t c, int step) {
    Client& me = cl[c];
    auto& rt = tb->runtime(static_cast<int>(c));
    ++it.attempted;
    // The step's DRAM output, then the checkpoint of DRAM + variable.
    const uint64_t slab =
        me.rng.NextBelow(kDramBytes / kDramDirtyBytes) * kDramDirtyBytes;
    FillBytes(me.dram.data() + slab, kDramDirtyBytes, seed, c, request);
    nvm::CheckpointSpec spec;
    spec.dram.push_back({me.dram.data(), me.dram.size()});
    spec.nvm.push_back(me.var);
    auto info = rt.SsdCheckpoint(spec, CkptName(c, step));
    if (!info.ok()) {
      Fail(it, "SsdCheckpoint failed: " + info.status().ToString());
    } else if (measured) {
      ckpt_ns.push_back(info->duration_ns);
      app_bytes += info->dram_bytes_copied;
      app_bytes_written += info->dram_bytes_copied;
    }
    if (step >= kLiveCheckpoints) {
      if (!rt.ReleaseCheckpoint(CkptName(c, step - kLiveCheckpoints)).ok()) {
        Fail(it, "release failed");
      }
    }
  };

  // One bulk-synchronous timestep, as an MPI application checkpoints: every
  // client dirties its pages, the clients meet at a barrier, checkpoint,
  // meet again and (every 4th step) restart and meet once more.  Every 8th
  // step the manager checkpoints its metadata after the clients' checkpoints,
  // on its own clock.
  int step = 0;
  const auto timestep = [&] {
    for (auto& c : cl) c.page_ops = 0;
    RunClosedLoop(ctx, [&](size_t c) {
      Client& me = cl[c];
      if (me.page_ops == kDirtyPages) return false;
      ++me.page_ops;
      auto& clock = ctx[c].clock;
      Request req(request++);
      ++it.attempted;
      const uint64_t page = me.rng.NextBelow(kVarPages);
      uint8_t* bytes = me.shadow.data() + page * kPage;
      FillBytes(bytes, kPage, seed, c, request);
      const int64_t t0 = clock.now();
      clock.Advance(ThinkNs(me.rng));
      if (!me.var->Write(page * kPage, {bytes, kPage}).ok()) {
        Fail(it, "page write failed");
      }
      if (measured) {
        it.latencies_ns.push_back(clock.now() - t0);
        app_bytes += kPage;
        app_bytes_written += kPage;
      }
      return true;
    });
    const auto collective = [&](const auto& op) {
      AlignClocks(ctx);
      RunClosedLoop(ctx, [&](size_t c) {
        Request req(request++);
        op(c, step);
        return false;
      });
    };
    collective(checkpoint);
    if (step % kManagerCheckpointEvery == kManagerCheckpointEvery - 1) {
      VirtualClock mc(AlignClocks(ctx));
      tb->store().manager().Checkpoint(mc);
    }
    if (step % kRestartEvery == kRestartEvery - 1) collective(restart);
    AlignClocks(ctx);
    ++step;
  };

  for (int i = 0; i < kWarmupSteps; ++i) timestep();
  const int64_t t_begin = AlignClocks(ctx);
  const Counters c0 = Capture(*tb);
  it.setup_s = HostSeconds() - setup_start;

  const double measure_start = HostSeconds();
  const uint64_t first_request = request;
  measured = true;
  // Page writes plus one checkpoint op per client and step, and the
  // restarts.
  const uint64_t planned =
      kClients * (kMeasuredSteps * (kDirtyPages + 1) +
                  kMeasuredSteps / kRestartEvery);
  PhaseBegin(planned);
  for (int i = 0; i < kMeasuredSteps; ++i) timestep();
  PhaseEnd();
  it.measured_s = HostSeconds() - measure_start;
  it.measured_ops = request - first_request;
  const int64_t t_end = AlignClocks(ctx);
  const Counters d = Delta(c0, Capture(*tb));

  PhaseTotals t;
  t.app_bytes = app_bytes;
  t.app_bytes_written = app_bytes_written;
  t.span_ns = t_end - t_begin;
  t.device_bytes_programmed = static_cast<uint64_t>(
      d["ssd.bytes_programmed"] + d["wal.bytes_programmed"]);
  t.benefactor_bytes_used =
      static_cast<uint64_t>(d["level.benefactor.bytes_used"]);
  // Logical bytes of every live file: the variable plus the live
  // checkpoints (header chunk, DRAM copy, linked variable).
  t.live_user_bytes =
      kClients *
      (kVarBytes + kLiveCheckpoints * (kChunk + kDramBytes + kVarBytes));
  AddEndToEndMetrics(it.exact, it.latencies_ns, t);
  AddLayerMetrics(it.exact, d, it.measured_ops, t.app_bytes, t.span_ns);
  std::sort(ckpt_ns.begin(), ckpt_ns.end());
  AppMetrics app;
  app.ckpt_step_ms = static_cast<double>(Percentile(ckpt_ns, 0.5)) / 1e6;
  app.restart_mbps = restart_ns > 0 ? static_cast<double>(restart_bytes) /
                                          static_cast<double>(restart_ns) * 1e3
                                    : 0.0;
  AddAppMetrics(it.exact, app);

  // Verification: the variable, made current by the last checkpoint, read
  // straight from the store (through its erasure stripes) must equal the
  // shadow.
  std::vector<uint8_t> buf(kChunk);
  for (size_t c = 0; c < kClients; ++c) {
    auto& client = tb->store().ClientForNode(static_cast<int>(c));
    VirtualClock vc(t_end);
    for (uint32_t i = 0; i < kVarBytes / kChunk; ++i) {
      if (!client.ReadChunk(vc, cl[c].var->file_id(), i, buf).ok() ||
          std::memcmp(buf.data(), cl[c].shadow.data() + i * kChunk,
                      kChunk) != 0) {
        Fail(it, "ckpt-ec verification failed on client " +
                     std::to_string(c));
        break;
      }
    }
  }
  traced.End(*tb, it);
  return it;
}

}  // namespace nvmbench
