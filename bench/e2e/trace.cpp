// Link-time tracer, linked only into nvmbench_traced.
//
// The traced binary is linked with -Wl,--wrap=<symbol> for every entry
// point in trace_symbols.txt, so each call that crosses a translation-unit
// boundary into one of them lands in the matching __wrap_ function below,
// which opens a span and forwards to __real_<symbol>.  No library source
// changes.  A span records its name, layer, host start and end, its parent
// (a thread-local stack), the harness's request id and, for calls that take
// a VirtualClock, virtual start and end.  Self time is the span's duration
// minus the time its child spans cover.
//
// Spans are aggregated only inside the measured phase.  The first measured
// phase also keeps up to kMaxEvents spans in memory for the Chrome
// trace-event file written at exit (open it in Perfetto or about:tracing).
// The Resource::Schedule/Acquire wrappers additionally split virtual time
// into service and queueing per resource, keyed by Resource::name(), over
// each testbed's whole life; TestbedEnd checks those sums against the
// public busy_ns()/queue_delay_ns() getters.
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/checksum.hpp"
#include "common/rng.hpp"
#include "nvmalloc/runtime.hpp"
#include "store/erasure.hpp"
#include "store/store.hpp"
#include "store/wal.hpp"
#include "trace_hooks.hpp"

namespace nvmbench {
namespace {

enum Layer : uint8_t {
  kNvmalloc,
  kFuselite,
  kStoreClient,
  kStoreManager,
  kStoreBenefactor,
  kStoreErasure,
  kStoreQos,
  kStoreWal,
  kNet,
  kSimSsd,
  kSimResource,
  kApp,  // the harness's own op spans (not a library layer)
  kLayerCount
};
constexpr const char* kLayerNames[kLayerCount] = {
    "nvmalloc",     "fuselite",         "store.client", "store.manager",
    "store.benefactor", "store.erasure", "store.qos",   "store.wal",
    "net",          "sim.ssd",          "sim.resource", "app"};

enum Group : uint8_t {
  kGroupSsd,
  kGroupNic,
  kGroupFuse,
  kGroupWal,
  kGroupManager,
  kGroupOther,
  kGroupCount
};
constexpr const char* kGroupNames[kGroupCount] = {
    "ssd", "nic", "fuse-daemon", "manager-wal", "manager", "other"};

Group GroupOf(const std::string& name) {
  if (name.starts_with("manager-wal")) return kGroupWal;
  if (name.starts_with("manager")) return kGroupManager;
  if (name.starts_with("ssd")) return kGroupSsd;
  if (name.starts_with("nic")) return kGroupNic;
  if (name.starts_with("fuse-daemon")) return kGroupFuse;
  return kGroupOther;
}

// Spans kept for the Chrome trace (about 80 bytes each in memory).
constexpr size_t kMaxEvents = 100'000;

int64_t HostNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Event {
  const char* name;
  uint64_t id;
  uint64_t parent;
  uint64_t request;
  int64_t start_ns;
  int64_t dur_ns;
  int64_t vstart_ns;  // -1: the call takes no virtual clock
  int64_t vend_ns;
  Layer layer;
  int tid;
};

struct ResourceTime {
  Group group = kGroupOther;
  int64_t busy_ns = 0;
  int64_t queue_ns = 0;
};

// Everything spans accumulate.  The maintenance worker thread crosses
// wrapped boundaries too (during set-up, while aggregation is off), so the
// counters are atomics and the maps sit behind `mu`.
struct State {
  std::atomic<bool> active{false};
  std::atomic<bool> record_events{true};
  std::atomic<uint64_t> next_id{1};
  std::atomic<uint64_t> request{0};
  std::atomic<uint64_t> phase_requests{0};
  std::atomic<uint64_t> planned{1};
  std::atomic<int> next_tid{0};
  std::array<std::atomic<int64_t>, kLayerCount> self_ns{};
  std::array<std::atomic<uint64_t>, kLayerCount> calls{};
  // sim.resource self time per tenth of the phase's requests.
  std::array<std::atomic<int64_t>, 10> decile_ns{};
  std::array<std::atomic<uint64_t>, 10> decile_calls{};

  std::mutex mu;  // guards everything below
  std::unordered_map<const nvm::sim::Resource*, ResourceTime> resources;
  std::array<GroupTime, kGroupCount> phase_groups{};
  std::vector<Event> events;
  std::array<int64_t, kLayerCount> run_self_ns{};  // whole run, for summary
  std::array<uint64_t, kLayerCount> run_calls{};
};
State g;

struct Frame {
  uint64_t id;
  int64_t child_ns;
};
thread_local std::vector<Frame> t_stack;
thread_local int t_tid = -1;

class Span {
 public:
  Span(Layer layer, const char* name, const nvm::sim::VirtualClock* clock) {
    if (!g.active.load(std::memory_order_relaxed)) return;
    on_ = true;
    layer_ = layer;
    name_ = name;
    clock_ = clock;
    vstart_ = clock != nullptr ? clock->now() : -1;
    id_ = g.next_id.fetch_add(1, std::memory_order_relaxed);
    parent_ = t_stack.empty() ? 0 : t_stack.back().id;
    t_stack.push_back({id_, 0});
    start_ = HostNs();
  }
  ~Span() {
    if (on_) Close();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  void Close() {
    const int64_t dur = HostNs() - start_;
    const Frame f = t_stack.back();
    t_stack.pop_back();
    if (!t_stack.empty()) t_stack.back().child_ns += dur;
    const int64_t self = dur - f.child_ns;
    g.self_ns[layer_].fetch_add(self, std::memory_order_relaxed);
    g.calls[layer_].fetch_add(1, std::memory_order_relaxed);
    if (layer_ == kSimResource) {
      const uint64_t d =
          std::min<uint64_t>(9, g.phase_requests.load(std::memory_order_relaxed) *
                                    10 / g.planned.load(std::memory_order_relaxed));
      g.decile_ns[d].fetch_add(self, std::memory_order_relaxed);
      g.decile_calls[d].fetch_add(1, std::memory_order_relaxed);
    }
    if (g.record_events.load(std::memory_order_relaxed)) {
      if (t_tid < 0) t_tid = g.next_tid.fetch_add(1);
      std::lock_guard<std::mutex> lock(g.mu);
      if (g.events.size() < kMaxEvents) {
        g.events.push_back({name_, id_, parent_,
                            g.request.load(std::memory_order_relaxed), start_,
                            dur, vstart_,
                            clock_ != nullptr ? clock_->now() : -1, layer_,
                            t_tid});
      }
    }
  }

  bool on_ = false;
  Layer layer_ = kApp;
  const char* name_ = nullptr;
  const nvm::sim::VirtualClock* clock_ = nullptr;
  uint64_t id_ = 0;
  uint64_t parent_ = 0;
  int64_t start_ = 0;
  int64_t vstart_ = -1;
};

void NoteResource(const nvm::sim::Resource* r, int64_t service,
                  int64_t queue) {
  std::lock_guard<std::mutex> lock(g.mu);
  auto [it, inserted] = g.resources.try_emplace(r);
  if (inserted) it->second.group = GroupOf(r->name());
  it->second.busy_ns += service;
  it->second.queue_ns += queue;
  if (g.active.load(std::memory_order_relaxed)) {
    g.phase_groups[it->second.group].busy_ns += service;
    g.phase_groups[it->second.group].queue_ns += queue;
  }
}

}  // namespace
}  // namespace nvmbench

// --- the wrappers ------------------------------------------------------
//
// One per line of trace_symbols.txt.  Each is declared with the C++
// signature of the wrapped member function, `this` spelled as the first
// parameter, which is how the Itanium C++ ABI passes it.

using nvmbench::Span;
using VClock = nvm::sim::VirtualClock;
namespace st = nvm::store;

#define NVMB_WRAP(SYM, LAYER, NAME, RET, PARAMS, ARGS, CLOCK) \
  extern "C" RET __real_##SYM PARAMS;                         \
  extern "C" RET __wrap_##SYM PARAMS {                        \
    Span span(nvmbench::LAYER, NAME, CLOCK);                  \
    return __real_##SYM ARGS;                                 \
  }

// nvmalloc
NVMB_WRAP(_ZN3nvm9NvmRegion3PinEmmb, kNvmalloc, "NvmRegion::Pin",
          nvm::StatusOr<nvm::PinnedSpan>,
          (nvm::NvmRegion * self, uint64_t offset, uint64_t len, bool w),
          (self, offset, len, w), nullptr)
NVMB_WRAP(_ZN3nvm9NvmRegion4SyncEv, kNvmalloc, "NvmRegion::Sync", nvm::Status,
          (nvm::NvmRegion * self), (self), nullptr)
NVMB_WRAP(_ZN3nvm9NvmRegion4ReadEmSt4spanIhLm18446744073709551615EE,
          kNvmalloc, "NvmRegion::Read", nvm::Status,
          (nvm::NvmRegion * self, uint64_t off, std::span<uint8_t> out),
          (self, off, out), nullptr)
NVMB_WRAP(_ZN3nvm9NvmRegion5WriteEmSt4spanIKhLm18446744073709551615EE,
          kNvmalloc, "NvmRegion::Write", nvm::Status,
          (nvm::NvmRegion * self, uint64_t off, std::span<const uint8_t> in),
          (self, off, in), nullptr)
NVMB_WRAP(_ZN3nvm15NvmallocRuntime9SsdMallocEmNS_16SsdMallocOptionsE,
          kNvmalloc, "NvmallocRuntime::SsdMalloc",
          nvm::StatusOr<nvm::NvmRegion*>,
          (nvm::NvmallocRuntime * self, uint64_t bytes,
           nvm::SsdMallocOptions opts),
          (self, bytes, std::move(opts)), nullptr)
NVMB_WRAP(_ZN3nvm15NvmallocRuntime7SsdFreeEPNS_9NvmRegionE, kNvmalloc,
          "NvmallocRuntime::SsdFree", nvm::Status,
          (nvm::NvmallocRuntime * self, nvm::NvmRegion* region),
          (self, region), nullptr)
NVMB_WRAP(
    _ZN3nvm15NvmallocRuntime13SsdCheckpointERKNS_14CheckpointSpecERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE,
    kNvmalloc, "NvmallocRuntime::SsdCheckpoint",
    nvm::StatusOr<nvm::CheckpointInfo>,
    (nvm::NvmallocRuntime * self, const nvm::CheckpointSpec& spec,
     const std::string& name),
    (self, spec, name), nullptr)
NVMB_WRAP(
    _ZN3nvm15NvmallocRuntime10SsdRestartERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEERKNS_11RestoreSpecE,
    kNvmalloc, "NvmallocRuntime::SsdRestart", nvm::Status,
    (nvm::NvmallocRuntime * self, const std::string& name,
     const nvm::RestoreSpec& spec),
    (self, name, spec), nullptr)
NVMB_WRAP(
    _ZN3nvm15NvmallocRuntime17ReleaseCheckpointERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE,
    kNvmalloc, "NvmallocRuntime::ReleaseCheckpoint", nvm::Status,
    (nvm::NvmallocRuntime * self, const std::string& name), (self, name),
    nullptr)

// fuselite
NVMB_WRAP(
    _ZN3nvm8fuselite10ChunkCache4ReadERNS_3sim12VirtualClockEmmSt4spanIhLm18446744073709551615EE,
    kFuselite, "ChunkCache::Read", nvm::Status,
    (nvm::fuselite::ChunkCache * self, VClock& clock, st::FileId file,
     uint64_t off, std::span<uint8_t> out),
    (self, clock, file, off, out), &clock)
NVMB_WRAP(
    _ZN3nvm8fuselite10ChunkCache5WriteERNS_3sim12VirtualClockEmmSt4spanIKhLm18446744073709551615EE,
    kFuselite, "ChunkCache::Write", nvm::Status,
    (nvm::fuselite::ChunkCache * self, VClock& clock, st::FileId file,
     uint64_t off, std::span<const uint8_t> in),
    (self, clock, file, off, in), &clock)
NVMB_WRAP(_ZN3nvm8fuselite10ChunkCache5FlushERNS_3sim12VirtualClockEm,
          kFuselite, "ChunkCache::Flush", nvm::Status,
          (nvm::fuselite::ChunkCache * self, VClock& clock, st::FileId file),
          (self, clock, file), &clock)
NVMB_WRAP(_ZN3nvm8fuselite10ChunkCache4DropERNS_3sim12VirtualClockEm,
          kFuselite, "ChunkCache::Drop", nvm::Status,
          (nvm::fuselite::ChunkCache * self, VClock& clock, st::FileId file),
          (self, clock, file), &clock)
NVMB_WRAP(_ZN3nvm8fuselite10FileHandle4ReadEmSt4spanIhLm18446744073709551615EE,
          kFuselite, "FileHandle::Read", nvm::Status,
          (nvm::fuselite::FileHandle * self, uint64_t off,
           std::span<uint8_t> out),
          (self, off, out), nullptr)
NVMB_WRAP(
    _ZN3nvm8fuselite10FileHandle5WriteEmSt4spanIKhLm18446744073709551615EE,
    kFuselite, "FileHandle::Write", nvm::Status,
    (nvm::fuselite::FileHandle * self, uint64_t off,
     std::span<const uint8_t> in),
    (self, off, in), nullptr)
NVMB_WRAP(_ZN3nvm8fuselite10FileHandle4SyncEv, kFuselite, "FileHandle::Sync",
          nvm::Status, (nvm::fuselite::FileHandle * self), (self), nullptr)

// store.client
NVMB_WRAP(
    _ZN3nvm5store11StoreClient9ReadChunkERNS_3sim12VirtualClockEmjSt4spanIhLm18446744073709551615EE,
    kStoreClient, "StoreClient::ReadChunk", nvm::Status,
    (st::StoreClient * self, VClock& clock, st::FileId id, uint32_t index,
     std::span<uint8_t> out),
    (self, clock, id, index, out), &clock)
NVMB_WRAP(
    _ZN3nvm5store11StoreClient10ReadChunksERNS_3sim12VirtualClockEmSt4spanINS1_10ChunkFetchELm18446744073709551615EE,
    kStoreClient, "StoreClient::ReadChunks", nvm::Status,
    (st::StoreClient * self, VClock& clock, st::FileId id,
     std::span<st::StoreClient::ChunkFetch> fetches),
    (self, clock, id, fetches), &clock)
NVMB_WRAP(
    _ZN3nvm5store11StoreClient11WriteChunksERNS_3sim12VirtualClockEmSt4spanINS1_10ChunkWriteELm18446744073709551615EE,
    kStoreClient, "StoreClient::WriteChunks", nvm::Status,
    (st::StoreClient * self, VClock& clock, st::FileId id,
     std::span<st::StoreClient::ChunkWrite> writes),
    (self, clock, id, writes), &clock)
NVMB_WRAP(
    _ZN3nvm5store11StoreClient6CreateERNS_3sim12VirtualClockERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE,
    kStoreClient, "StoreClient::Create", nvm::StatusOr<st::FileId>,
    (st::StoreClient * self, VClock& clock, const std::string& name),
    (self, clock, name), &clock)
NVMB_WRAP(
    _ZN3nvm5store11StoreClient4OpenERNS_3sim12VirtualClockERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE,
    kStoreClient, "StoreClient::Open", nvm::StatusOr<st::FileId>,
    (st::StoreClient * self, VClock& clock, const std::string& name),
    (self, clock, name), &clock)
NVMB_WRAP(_ZN3nvm5store11StoreClient4StatERNS_3sim12VirtualClockEm,
          kStoreClient, "StoreClient::Stat", nvm::StatusOr<st::FileInfo>,
          (st::StoreClient * self, VClock& clock, st::FileId id),
          (self, clock, id), &clock)
NVMB_WRAP(_ZN3nvm5store11StoreClient9FallocateERNS_3sim12VirtualClockEmm,
          kStoreClient, "StoreClient::Fallocate", nvm::Status,
          (st::StoreClient * self, VClock& clock, st::FileId id,
           uint64_t size),
          (self, clock, id, size), &clock)
NVMB_WRAP(_ZN3nvm5store11StoreClient6UnlinkERNS_3sim12VirtualClockEm,
          kStoreClient, "StoreClient::Unlink", nvm::Status,
          (st::StoreClient * self, VClock& clock, st::FileId id),
          (self, clock, id), &clock)
NVMB_WRAP(_ZN3nvm5store11StoreClient14LinkFileChunksERNS_3sim12VirtualClockEmm,
          kStoreClient, "StoreClient::LinkFileChunks",
          nvm::StatusOr<uint64_t>,
          (st::StoreClient * self, VClock& clock, st::FileId dst,
           st::FileId src),
          (self, clock, dst, src), &clock)

// store.manager
NVMB_WRAP(_ZN3nvm5store7Manager15GetReadLocationERNS_3sim12VirtualClockEmj,
          kStoreManager, "Manager::GetReadLocation",
          nvm::StatusOr<st::ReadLocation>,
          (st::Manager * self, VClock& clock, st::FileId id, uint32_t index),
          (self, clock, id, index), &clock)
NVMB_WRAP(_ZN3nvm5store7Manager16GetReadLocationsERNS_3sim12VirtualClockEmjj,
          kStoreManager, "Manager::GetReadLocations",
          nvm::StatusOr<std::vector<st::ReadLocation>>,
          (st::Manager * self, VClock& clock, st::FileId id, uint32_t first,
           uint32_t count),
          (self, clock, id, first, count), &clock)
NVMB_WRAP(_ZN3nvm5store7Manager12PrepareWriteERNS_3sim12VirtualClockEmj,
          kStoreManager, "Manager::PrepareWrite",
          nvm::StatusOr<st::WriteLocation>,
          (st::Manager * self, VClock& clock, st::FileId id, uint32_t index),
          (self, clock, id, index), &clock)
NVMB_WRAP(
    _ZN3nvm5store7Manager17PrepareWriteBatchERNS_3sim12VirtualClockEmSt4spanIKjLm18446744073709551615EE,
    kStoreManager, "Manager::PrepareWriteBatch",
    nvm::StatusOr<std::vector<st::WriteLocation>>,
    (st::Manager * self, VClock& clock, st::FileId id,
     std::span<const uint32_t> indices),
    (self, clock, id, indices), &clock)
NVMB_WRAP(
    _ZN3nvm5store7Manager13CompleteWriteERNS_3sim12VirtualClockERKNS0_8ChunkKeyEPKjSt4spanIS8_Lm18446744073709551615EE,
    kStoreManager, "Manager::CompleteWrite", void,
    (st::Manager * self, VClock& clock, const st::ChunkKey& key,
     const uint32_t* crc, std::span<const uint32_t> frag_crcs),
    (self, clock, key, crc, frag_crcs), &clock)
NVMB_WRAP(
    _ZN3nvm5store7Manager14CompleteWritesERNS_3sim12VirtualClockESt4spanIKNS0_13WriteLocationELm18446744073709551615EES5_IKjLm18446744073709551615EES5_IKcLm18446744073709551615EE,
    kStoreManager, "Manager::CompleteWrites", void,
    (st::Manager * self, VClock& clock, std::span<const st::WriteLocation> l,
     std::span<const uint32_t> crcs, std::span<const char> ok),
    (self, clock, l, crcs, ok), &clock)
NVMB_WRAP(
    _ZN3nvm5store7Manager10CreateFileERNS_3sim12VirtualClockERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE,
    kStoreManager, "Manager::CreateFile", nvm::StatusOr<st::FileId>,
    (st::Manager * self, VClock& clock, const std::string& name),
    (self, clock, name), &clock)
NVMB_WRAP(
    _ZN3nvm5store7Manager10LookupFileERNS_3sim12VirtualClockERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE,
    kStoreManager, "Manager::LookupFile", nvm::StatusOr<st::FileId>,
    (st::Manager * self, VClock& clock, const std::string& name),
    (self, clock, name), &clock)
NVMB_WRAP(_ZN3nvm5store7Manager4StatERNS_3sim12VirtualClockEm, kStoreManager,
          "Manager::Stat", nvm::StatusOr<st::FileInfo>,
          (st::Manager * self, VClock& clock, st::FileId id),
          (self, clock, id), &clock)
NVMB_WRAP(_ZN3nvm5store7Manager6UnlinkERNS_3sim12VirtualClockEm,
          kStoreManager, "Manager::Unlink", nvm::Status,
          (st::Manager * self, VClock& clock, st::FileId id),
          (self, clock, id), &clock)
NVMB_WRAP(_ZN3nvm5store7Manager9FallocateERNS_3sim12VirtualClockEmmi,
          kStoreManager, "Manager::Fallocate", nvm::Status,
          (st::Manager * self, VClock& clock, st::FileId id, uint64_t size,
           int client_node),
          (self, clock, id, size, client_node), &clock)
NVMB_WRAP(_ZN3nvm5store7Manager14LinkFileChunksERNS_3sim12VirtualClockEmm,
          kStoreManager, "Manager::LinkFileChunks", nvm::StatusOr<uint64_t>,
          (st::Manager * self, VClock& clock, st::FileId dst, st::FileId src),
          (self, clock, dst, src), &clock)
NVMB_WRAP(_ZN3nvm5store7Manager10CheckpointERNS_3sim12VirtualClockE,
          kStoreManager, "Manager::Checkpoint", void,
          (st::Manager * self, VClock& clock), (self, clock), &clock)
NVMB_WRAP(
    _ZN3nvm5store7Manager13CheckLivenessERNS_3sim12VirtualClockEPSt6vectorIcSaIcEE,
    kStoreManager, "Manager::CheckLiveness", size_t,
    (st::Manager * self, VClock& clock, std::vector<char>* alive),
    (self, clock, alive), &clock)
NVMB_WRAP(
    _ZN3nvm5store7Manager11PlanRepairsERNS_3sim12VirtualClockESt4spanIKNS0_8ChunkKeyELm18446744073709551615EEPm,
    kStoreManager, "Manager::PlanRepairs",
    std::vector<st::Manager::RepairPlan>,
    (st::Manager * self, VClock& clock, std::span<const st::ChunkKey> keys,
     uint64_t* lost),
    (self, clock, keys, lost), &clock)
NVMB_WRAP(
    _ZN3nvm5store7Manager17ExecuteRepairPlanERNS_3sim12VirtualClockERKNS1_10RepairPlanE,
    kStoreManager, "Manager::ExecuteRepairPlan", st::Manager::RepairOutcome,
    (st::Manager * self, VClock& clock, const st::Manager::RepairPlan& plan),
    (self, clock, plan), &clock)
NVMB_WRAP(
    _ZN3nvm5store7Manager12CommitRepairERNS_3sim12VirtualClockERKNS1_13RepairOutcomeEPb,
    kStoreManager, "Manager::CommitRepair", uint64_t,
    (st::Manager * self, VClock& clock,
     const st::Manager::RepairOutcome& outcome, bool* requeue),
    (self, clock, outcome, requeue), &clock)
NVMB_WRAP(_ZN3nvm5store7Manager9ScrubOnceERNS_3sim12VirtualClockE,
          kStoreManager, "Manager::ScrubOnce", st::Manager::ScrubResult,
          (st::Manager * self, VClock& clock), (self, clock), &clock)
NVMB_WRAP(_ZN3nvm5store7Manager11VerifyScrubERNS_3sim12VirtualClockEm,
          kStoreManager, "Manager::VerifyScrub", st::Manager::VerifyResult,
          (st::Manager * self, VClock& clock, uint64_t max_bytes),
          (self, clock, max_bytes), &clock)

// store.benefactor
NVMB_WRAP(
    _ZN3nvm5store10Benefactor9ReadChunkERNS_3sim12VirtualClockERKNS0_8ChunkKeyESt4spanIhLm18446744073709551615EEPbj,
    kStoreBenefactor, "Benefactor::ReadChunk", nvm::Status,
    (st::Benefactor * self, VClock& clock, const st::ChunkKey& key,
     std::span<uint8_t> out, bool* sparse, st::TenantId tenant),
    (self, clock, key, out, sparse, tenant), &clock)
NVMB_WRAP(
    _ZN3nvm5store10Benefactor12ReadChunkRunERNS_3sim12VirtualClockESt4spanIKNS0_8ChunkKeyELm18446744073709551615EERKSt8functionIFNS_6StatusERKNS0_12ChunkRunItemES5_IKhLm18446744073709551615EEEEj,
    kStoreBenefactor, "Benefactor::ReadChunkRun", nvm::Status,
    (st::Benefactor * self, VClock& clock, std::span<const st::ChunkKey> keys,
     const st::ChunkRunSink& sink, st::TenantId tenant),
    (self, clock, keys, sink, tenant), &clock)
NVMB_WRAP(
    _ZN3nvm5store10Benefactor10WritePagesERNS_3sim12VirtualClockERKNS0_8ChunkKeyERKNS_6BitmapESt4spanIKhLm18446744073709551615EEPKjPjj,
    kStoreBenefactor, "Benefactor::WritePages", nvm::Status,
    (st::Benefactor * self, VClock& clock, const st::ChunkKey& key,
     const nvm::Bitmap& dirty, std::span<const uint8_t> data,
     const uint32_t* crc, uint32_t* stored_crc, st::TenantId tenant),
    (self, clock, key, dirty, data, crc, stored_crc, tenant), &clock)
NVMB_WRAP(
    _ZN3nvm5store10Benefactor13WriteChunkRunERNS_3sim12VirtualClockESt4spanIKNS0_14ChunkWriteItemELm18446744073709551615EERKSt8functionIFlNS0_6RunMsgElmEEj,
    kStoreBenefactor, "Benefactor::WriteChunkRun", nvm::Status,
    (st::Benefactor * self, VClock& clock,
     std::span<const st::ChunkWriteItem> items, const st::ChunkRunSend& send,
     st::TenantId tenant),
    (self, clock, items, send, tenant), &clock)
NVMB_WRAP(
    _ZN3nvm5store10Benefactor12ReadFragmentERNS_3sim12VirtualClockERKNS0_8ChunkKeyESt4spanIhLm18446744073709551615EEPbj,
    kStoreBenefactor, "Benefactor::ReadFragment", nvm::Status,
    (st::Benefactor * self, VClock& clock, const st::ChunkKey& key,
     std::span<uint8_t> out, bool* sparse, st::TenantId tenant),
    (self, clock, key, out, sparse, tenant), &clock)
NVMB_WRAP(
    _ZN3nvm5store10Benefactor13WriteFragmentERNS_3sim12VirtualClockERKNS0_8ChunkKeyESt4spanIKhLm18446744073709551615EEPKjj,
    kStoreBenefactor, "Benefactor::WriteFragment", nvm::Status,
    (st::Benefactor * self, VClock& clock, const st::ChunkKey& key,
     std::span<const uint8_t> data, const uint32_t* crc,
     st::TenantId tenant),
    (self, clock, key, data, crc, tenant), &clock)
NVMB_WRAP(
    _ZN3nvm5store10Benefactor10CloneChunkERNS_3sim12VirtualClockERKNS0_8ChunkKeyES7_j,
    kStoreBenefactor, "Benefactor::CloneChunk", nvm::Status,
    (st::Benefactor * self, VClock& clock, const st::ChunkKey& from,
     const st::ChunkKey& to, st::TenantId tenant),
    (self, clock, from, to, tenant), &clock)
NVMB_WRAP(
    _ZN3nvm5store10Benefactor11VerifyChunkERNS_3sim12VirtualClockERKNS0_8ChunkKeyEjPbj,
    kStoreBenefactor, "Benefactor::VerifyChunk", nvm::Status,
    (st::Benefactor * self, VClock& clock, const st::ChunkKey& key,
     uint32_t expected_crc, bool* sparse, st::TenantId tenant),
    (self, clock, key, expected_crc, sparse, tenant), &clock)
NVMB_WRAP(_ZN3nvm5store10Benefactor11DeleteChunkERKNS0_8ChunkKeyE,
          kStoreBenefactor, "Benefactor::DeleteChunk", nvm::Status,
          (st::Benefactor * self, const st::ChunkKey& key), (self, key),
          nullptr)

// store.erasure
NVMB_WRAP(_ZN3nvm5store12ErasureCodecC1Ejj, kStoreErasure,
          "ErasureCodec::ErasureCodec", void,
          (st::ErasureCodec * self, uint32_t k, uint32_t m), (self, k, m),
          nullptr)
NVMB_WRAP(_ZNK3nvm5store12ErasureCodec6EncodeESt4spanIKhLm18446744073709551615EE,
          kStoreErasure, "ErasureCodec::Encode",
          std::vector<std::vector<uint8_t>>,
          (const st::ErasureCodec* self, std::span<const uint8_t> chunk),
          (self, chunk), nullptr)
NVMB_WRAP(
    _ZNK3nvm5store12ErasureCodec11ReconstructERSt6vectorIS2_IhSaIhEESaIS4_EE,
    kStoreErasure, "ErasureCodec::Reconstruct", bool,
    (const st::ErasureCodec* self, std::vector<std::vector<uint8_t>>& frags),
    (self, frags), nullptr)
NVMB_WRAP(
    _ZN3nvm5store12ErasureCodec8AssembleESt4spanIKSt6vectorIhSaIhEELm18446744073709551615EEjS2_IhLm18446744073709551615EE,
    kStoreErasure, "ErasureCodec::Assemble", void,
    (std::span<const std::vector<uint8_t>> frags, uint32_t k,
     std::span<uint8_t> out),
    (frags, k, out), nullptr)

// store.qos
NVMB_WRAP(_ZN3nvm5store12QosScheduler10AdmitChunkEiijlml, kStoreQos,
          "QosScheduler::AdmitChunk", int64_t,
          (st::QosScheduler * self, int benefactor_lane, int node_lane,
           st::TenantId tenant, int64_t ssd_ns, uint64_t wire_bytes,
           int64_t now),
          (self, benefactor_lane, node_lane, tenant, ssd_ns, wire_bytes, now),
          nullptr)
NVMB_WRAP(_ZN3nvm5store12QosScheduler10RecordReadEjl, kStoreQos,
          "QosScheduler::RecordRead", void,
          (st::QosScheduler * self, st::TenantId tenant, int64_t ns),
          (self, tenant, ns), nullptr)
NVMB_WRAP(_ZN3nvm5store12QosScheduler11RecordWriteEjl, kStoreQos,
          "QosScheduler::RecordWrite", void,
          (st::QosScheduler * self, st::TenantId tenant, int64_t ns),
          (self, tenant, ns), nullptr)

// store.wal
NVMB_WRAP(_ZN3nvm5store8WalStore6AppendERNS_3sim12VirtualClockENS0_9WalRecordE,
          kStoreWal, "WalStore::Append", void,
          (st::WalStore * self, VClock& clock, st::WalRecord rec),
          (self, clock, std::move(rec)), &clock)
NVMB_WRAP(
    _ZN3nvm5store8WalStore15WriteCheckpointERNS_3sim12VirtualClockENSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEEm,
    kStoreWal, "WalStore::WriteCheckpoint", void,
    (st::WalStore * self, VClock& clock, std::string blob, uint64_t seq),
    (self, clock, std::move(blob), seq), &clock)

// net
NVMB_WRAP(_ZN3nvm3net7Network8TransferERNS_3sim12VirtualClockEiim, kNet,
          "Network::Transfer", void,
          (nvm::net::Network * self, VClock& clock, int src, int dst,
           uint64_t bytes),
          (self, clock, src, dst, bytes), &clock)
NVMB_WRAP(_ZN3nvm3net14StreamTransfer4PushElm, kNet, "StreamTransfer::Push",
          int64_t,
          (nvm::net::StreamTransfer * self, int64_t earliest, uint64_t bytes),
          (self, earliest, bytes), nullptr)

// sim.ssd
NVMB_WRAP(_ZN3nvm3sim9SsdDevice10ChargeReadERNS0_12VirtualClockEmm, kSimSsd,
          "SsdDevice::ChargeRead", void,
          (nvm::sim::SsdDevice * self, VClock& clock, uint64_t off,
           uint64_t bytes),
          (self, clock, off, bytes), &clock)
NVMB_WRAP(_ZN3nvm3sim9SsdDevice11ChargeWriteERNS0_12VirtualClockEmm, kSimSsd,
          "SsdDevice::ChargeWrite", void,
          (nvm::sim::SsdDevice * self, VClock& clock, uint64_t off,
           uint64_t bytes),
          (self, clock, off, bytes), &clock)
NVMB_WRAP(_ZN3nvm3sim9SsdDevice13ChargeRunReadERNS0_12VirtualClockEmmb,
          kSimSsd, "SsdDevice::ChargeRunRead", void,
          (nvm::sim::SsdDevice * self, VClock& clock, uint64_t off,
           uint64_t bytes, bool first),
          (self, clock, off, bytes, first), &clock)
NVMB_WRAP(_ZN3nvm3sim9SsdDevice14ChargeRunWriteERNS0_12VirtualClockEmmb,
          kSimSsd, "SsdDevice::ChargeRunWrite", void,
          (nvm::sim::SsdDevice * self, VClock& clock, uint64_t off,
           uint64_t bytes, bool first),
          (self, clock, off, bytes, first), &clock)

// sim.resource: also split the virtual time into service and queueing.
extern "C" int64_t __real__ZN3nvm3sim8Resource8ScheduleEll(
    nvm::sim::Resource* self, int64_t earliest, int64_t duration);
extern "C" int64_t __wrap__ZN3nvm3sim8Resource8ScheduleEll(
    nvm::sim::Resource* self, int64_t earliest, int64_t duration) {
  Span span(nvmbench::kSimResource, "Resource::Schedule", nullptr);
  const int64_t start =
      __real__ZN3nvm3sim8Resource8ScheduleEll(self, earliest, duration);
  nvmbench::NoteResource(self, duration, start - earliest);
  return start;
}

extern "C" int64_t __real__ZN3nvm3sim8Resource7AcquireERNS0_12VirtualClockEl(
    nvm::sim::Resource* self, VClock& clock, int64_t duration);
extern "C" int64_t __wrap__ZN3nvm3sim8Resource7AcquireERNS0_12VirtualClockEl(
    nvm::sim::Resource* self, VClock& clock, int64_t duration) {
  Span span(nvmbench::kSimResource, "Resource::Acquire", &clock);
  const int64_t queued =
      __real__ZN3nvm3sim8Resource7AcquireERNS0_12VirtualClockEl(self, clock,
                                                                duration);
  nvmbench::NoteResource(self, duration, queued);
  return queued;
}

// --- the tracer --------------------------------------------------------

namespace nvmbench {
namespace {

std::atomic<uint64_t> g_sink{0};  // keeps timed results alive

// Host ns per call of `fn` over `reps` calls.
template <typename Fn>
double TimePerCall(int reps, Fn&& fn) {
  const int64_t t0 = HostNs();
  for (int i = 0; i < reps; ++i) fn(i);
  return static_cast<double>(HostNs() - t0) / reps;
}

// The substrate phase: direct calls into the hot primitives, bypassing the
// wrappers.
Metrics Substrate() {
  Metrics m;
  nvm::Xoshiro256 rng(42);
  std::vector<uint8_t> chunk(64 * 1024);
  for (auto& b : chunk) b = static_cast<uint8_t>(rng.Next());

  uint32_t crc = 0;
  const double crc_ns = TimePerCall(2'000, [&](int) {
    crc = nvm::Crc32c(chunk.data(), chunk.size(), crc);
  });
  m["host.common.checksum.ns_per_kib"] = {crc_ns / 64.0, "ns"};
  const double combine_ns = TimePerCall(20'000, [&](int i) {
    crc = nvm::Crc32cCombine(crc, static_cast<uint32_t>(i), 16 * 1024);
  });
  m["host.common.checksum.combine_ns"] = {combine_ns, "ns"};
  g_sink += crc;

  st::ErasureCodec codec(4, 2);
  std::vector<std::vector<uint8_t>> frags;
  const double encode_ns = TimePerCall(500, [&](int) {
    frags = __real__ZNK3nvm5store12ErasureCodec6EncodeESt4spanIKhLm18446744073709551615EE(
        &codec, chunk);
  });
  m["host.store.erasure.encode_ns_per_64k"] = {encode_ns, "ns"};
  // Two data fragments lost: the worst case RS(4,2) still recovers.
  std::vector<std::vector<std::vector<uint8_t>>> damaged(200, frags);
  for (auto& d : damaged) {
    d[0].clear();
    d[1].clear();
  }
  const double reconstruct_ns = TimePerCall(200, [&](int i) {
    g_sink += __real__ZNK3nvm5store12ErasureCodec11ReconstructERSt6vectorIS2_IhSaIhEESaIS4_EE(
        &codec, damaged[static_cast<size_t>(i)]);
  });
  m["host.store.erasure.reconstruct_ns_per_64k"] = {reconstruct_ns, "ns"};

  // Resource::Schedule on a timeline aged to `age` disjoint 1 us busy
  // intervals separated by random 1-3 us gaps; each timed call arrives at a
  // random point of the aged range and is shorter than any original gap, so
  // the cost left over is the interval-map search itself.
  const auto schedule_ns = [&](int age, int batches, int calls) {
    double total = 0;
    for (int b = 0; b < batches; ++b) {
      nvm::sim::Resource r("substrate");
      for (int i = 0; i < age; ++i) {
        __real__ZN3nvm3sim8Resource8ScheduleEll(
            &r, int64_t{i} * 3'000 + static_cast<int64_t>(rng.NextBelow(1'000)),
            1'000);
      }
      std::vector<std::pair<int64_t, int64_t>> reqs(static_cast<size_t>(calls));
      for (auto& q : reqs) {
        q = {static_cast<int64_t>(rng.NextBelow(uint64_t(age) * 3'000)),
             100 + static_cast<int64_t>(rng.NextBelow(800))};
      }
      total += TimePerCall(calls, [&](int i) {
        const auto& q = reqs[static_cast<size_t>(i)];
        g_sink += static_cast<uint64_t>(
            __real__ZN3nvm3sim8Resource8ScheduleEll(&r, q.first, q.second));
      });
    }
    return total / batches;
  };
  m["host.sim.resource.schedule_ns_age1k"] = {schedule_ns(1'000, 50, 100),
                                              "ns"};
  m["host.sim.resource.schedule_ns_age100k"] = {
      schedule_ns(100'000, 1, 5'000), "ns"};
  return m;
}

class Recorder final : public Tracer {
 public:
  void TestbedBegin() override {
    std::lock_guard<std::mutex> lock(g.mu);
    g.resources.clear();
  }

  std::string TestbedEnd(
      const std::map<std::string, GroupTime>& getters) override {
    std::array<GroupTime, kGroupCount> spans{};
    {
      std::lock_guard<std::mutex> lock(g.mu);
      for (const auto& [r, t] : g.resources) {
        spans[t.group].busy_ns += t.busy_ns;
        spans[t.group].queue_ns += t.queue_ns;
      }
      g.resources.clear();
    }
    std::string err;
    for (const auto& [name, want] : getters) {
      int group = 0;
      while (group < kGroupOther && name != kGroupNames[group]) ++group;
      const GroupTime got = spans[static_cast<size_t>(group)];
      if (got.busy_ns != want.busy_ns || got.queue_ns != want.queue_ns) {
        err += name + ": spans busy " + std::to_string(got.busy_ns) +
               " queue " + std::to_string(got.queue_ns) + " vs getters busy " +
               std::to_string(want.busy_ns) + " queue " +
               std::to_string(want.queue_ns) + "; ";
      }
    }
    return err;
  }

  void PhaseBegin(uint64_t planned_ops) override {
    g.planned.store(std::max<uint64_t>(1, planned_ops));
    g.phase_requests.store(0);
    g.active.store(true);
  }

  void PhaseEnd() override {
    g.active.store(false);
    std::lock_guard<std::mutex> lock(g.mu);
    if (!g.events.empty()) g.record_events.store(false);
  }

  void RequestBegin(uint64_t id) override {
    g.request.store(id, std::memory_order_relaxed);
    if (!g.active.load(std::memory_order_relaxed)) return;
    g.phase_requests.fetch_add(1, std::memory_order_relaxed);
    op_ = std::make_unique<Span>(kApp, "op", nullptr);
  }

  void RequestEnd() override { op_.reset(); }

  Metrics TakeIteration() override {
    Metrics m;
    for (int l = 0; l < kApp; ++l) {
      const int64_t self = g.self_ns[l].exchange(0);
      const uint64_t calls = g.calls[l].exchange(0);
      g.run_self_ns[l] += self;
      g.run_calls[l] += calls;
      const std::string p = std::string("host.") + kLayerNames[l];
      m[p + ".self_ms"] = {static_cast<double>(self) / 1e6, "ms"};
      m[p + ".ns_per_call"] = {
          calls > 0 ? static_cast<double>(self) / static_cast<double>(calls)
                    : 0.0,
          "ns"};
    }
    g.run_self_ns[kApp] += g.self_ns[kApp].exchange(0);
    g.run_calls[kApp] += g.calls[kApp].exchange(0);
    std::array<double, 10> per_call{};
    for (size_t d = 0; d < per_call.size(); ++d) {
      const uint64_t calls = g.decile_calls[d].exchange(0);
      const int64_t ns = g.decile_ns[d].exchange(0);
      if (calls > 0) {
        per_call[d] = static_cast<double>(ns) / static_cast<double>(calls);
      }
    }
    m["host.sim.resource.late_over_early"] = {
        per_call[0] > 0 ? per_call[9] / per_call[0] : 0.0, "ratio"};
    std::lock_guard<std::mutex> lock(g.mu);
    m["store.manager.lane.service_ms"] = {
        static_cast<double>(g.phase_groups[kGroupManager].busy_ns) / 1e6,
        "ms"};
    m["store.manager.lane.queue_ms"] = {
        static_cast<double>(g.phase_groups[kGroupManager].queue_ns) / 1e6,
        "ms"};
    g.phase_groups = {};
    return m;
  }

  Metrics Finish(const std::string& workload,
                 const std::string& out_dir) override {
    Metrics m = Substrate();
    std::filesystem::create_directories(out_dir);
    WriteChromeTrace(out_dir + "/" + workload + ".trace.json");
    WriteSummary(out_dir + "/" + workload + ".layers.json");
    return m;
  }

 private:
  static void WriteChromeTrace(const std::string& path) {
    std::lock_guard<std::mutex> lock(g.mu);
    std::ofstream f(path);
    f << "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n";
    const int64_t origin = g.events.empty() ? 0 : g.events.front().start_ns;
    for (size_t i = 0; i < g.events.size(); ++i) {
      const Event& e = g.events[i];
      char buf[512];
      std::snprintf(
          buf, sizeof(buf),
          "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
          "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %llu, "
          "\"parent\": %llu, \"request\": %llu, \"vstart_ns\": %lld, "
          "\"vend_ns\": %lld}}%s\n",
          e.name, kLayerNames[e.layer], e.tid,
          static_cast<double>(e.start_ns - origin) / 1e3,
          static_cast<double>(e.dur_ns) / 1e3,
          static_cast<unsigned long long>(e.id),
          static_cast<unsigned long long>(e.parent),
          static_cast<unsigned long long>(e.request),
          static_cast<long long>(e.vstart_ns),
          static_cast<long long>(e.vend_ns),
          i + 1 < g.events.size() ? "," : "");
      f << buf;
    }
    f << "]}\n";
  }

  static void WriteSummary(const std::string& path) {
    std::ofstream f(path);
    f << "{\"layers\": {";
    for (int l = 0; l < kLayerCount; ++l) {
      const double ms = static_cast<double>(g.run_self_ns[l]) / 1e6;
      const double per =
          g.run_calls[l] > 0 ? static_cast<double>(g.run_self_ns[l]) /
                                   static_cast<double>(g.run_calls[l])
                             : 0.0;
      f << (l ? ", " : "") << "\"" << kLayerNames[l] << "\": {\"self_ms\": "
        << ms << ", \"calls\": " << g.run_calls[l]
        << ", \"ns_per_call\": " << per << "}";
    }
    f << "}}\n";
  }

  std::unique_ptr<Span> op_;
};

}  // namespace
}  // namespace nvmbench

extern "C" nvmbench::Tracer* nvmbench_tracer() {
  static nvmbench::Recorder recorder;
  return &recorder;
}
