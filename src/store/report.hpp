// Human-readable status report for an aggregate store — the "nvmstat"
// view an operator would use: per-benefactor space, liveness, traffic and
// flash wear, plus manager-level totals.
#pragma once

#include <span>
#include <string>

#include "store/store.hpp"

namespace nvm::store {

// Per-mount cache counters for the report.  The fuselite layer sits above
// the store, so callers that own mounts snapshot these and pass them down
// (see examples/nvmsim.cpp); the store layer never links against fuselite.
struct MountCacheStats {
  int node = -1;
  uint64_t resident_chunks = 0;
  uint64_t hit_chunks = 0;
  uint64_t fetched_chunks = 0;
  uint64_t prefetched_chunks = 0;
  // Read-ahead chunks that capacity pressure evicted before any access.
  uint64_t prefetch_wasted = 0;
  uint64_t evictions = 0;
  // Dirty chunks discarded on Drop() after a failed best-effort
  // write-back — data lost to unreplicated benefactor failure.
  uint64_t dropped_dirty = 0;
  // Write-back windows that coalesced ≥2 dirty chunks into batched store
  // writes (the write-side run RPC).
  uint64_t flush_batches = 0;
  // Writes that reached only a subset of their replicas (the failed
  // benefactors were reported dead; repair restores replication).
  uint64_t degraded_writes = 0;
};

// Multi-line report of the store's current state; any supplied mount cache
// snapshots are appended as a per-node cache section.
std::string StatusReport(AggregateStore& store,
                         std::span<const MountCacheStats> mounts = {});

}  // namespace nvm::store
