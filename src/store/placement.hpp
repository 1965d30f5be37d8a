// Shared placement engine of the aggregate store.
//
// Every placement decision the manager makes — Fallocate striping,
// PrepareWrite/PrepareWriteBatch copy-on-write targets, and PlanRepairs
// re-replication targets — flows through this one engine, so the
// eligibility filter and the reliability/endurance ranking are identical
// everywhere (the paper's benefactor model assumes placement can steer
// around unreliable and worn-out contributors).
//
// The engine is pure: the caller snapshots per-benefactor state into
// PlacementCandidate records under whatever lock covers its decision
// (Fallocate and PlanRepairs hold the chunk's shard mutex), and the
// engine only filters and orders.  Reservation (Benefactor::Reserve)
// stays with the caller and remains the authoritative capacity check —
// the ranking never pre-empts a try-reserve, so racing placements behave
// exactly as before the engine existed.
//
// Ranking is a stable sort by (suspect penalty, wear band) over a base
// order the caller picks:
//   kRotation     registry order starting at `start` — striping
//   kLeastLoaded  (bytes_free desc, id asc) — repair re-replication
// With every knob at its default the score keys are all equal and the
// stable sort returns the base order unchanged — the knob-off engine is
// byte-identical to the historic capacity-only placement.
#pragma once

#include <cstdint>
#include <vector>

#include "store/types.hpp"

namespace nvm::store {

// One benefactor's placement-relevant state, snapshotted by the caller.
// `bid` is the registry index; fields default to the least eligible
// state so an unfilled record never wins a slot.
struct PlacementCandidate {
  int bid = -1;
  bool alive = false;
  // Heartbeat detector state: >= 1 consecutive missed heartbeat and not
  // yet recovered (suspected-but-not-declared-dead window).  False when
  // the caller has no suspicion snapshot (knob off, no maintenance).
  bool suspected = false;
  // Correlated-loss exclusion for the specific chunk being placed: this
  // benefactor already holds a replica, served a corrupt copy of it, or
  // produced a divergent copy during recovery.
  bool excluded = false;
  uint64_t bytes_free = 0;
  // SsdDevice::wear_fraction() in [0, 1]; 0 when the caller does not
  // read wear (wear_weight == 0).
  double wear = 0.0;
  // Cluster node hosting the benefactor (locality-aware striping).
  int node = -1;
};

// What the caller wants ranked.
struct PlacementRequest {
  enum class Order : uint8_t {
    kRotation,     // registry order from `start` (striping)
    kLeastLoaded,  // bytes_free desc, id asc (repair targets)
  };
  Order order = Order::kRotation;
  size_t start = 0;  // rotation origin (registry index); kRotation only
  // Soft avoidance: suspected candidates rank after unsuspected ones but
  // stay eligible (striping/COW must not fail just because a node flaps).
  bool avoid_suspected = false;
  // Hard exclusion: suspected candidates are dropped entirely (repair
  // targets — re-protection must not land on a flapping node).
  bool exclude_suspected = false;
  // Wear bias: candidates rank by floor(wear * weight * 16) ascending
  // before the base order.  0 disables (no wear is even read).
  double wear_weight = 0.0;
  // Per-call failure-domain anti-affinity: candidates whose `node`
  // appears in this set are ineligible for THIS request.  Erasure-coded
  // stripes use it to demand k+m distinct failure domains (no two
  // fragments of one stripe behind the same node), and fragment repair
  // uses it to keep replacement fragments off the survivors' nodes.
  // Candidates with an unknown node (node < 0) are never excluded this
  // way.  nullptr (the default) disables the filter — knob-off ranking
  // is unchanged.
  const std::vector<int>* exclude_nodes = nullptr;
};

// Ranked benefactor ids: every candidate that is alive, not
// chunk-excluded and (under hard exclusion) not suspected, ordered by
// (suspect penalty, wear band, base order).  The caller walks the list
// attempting Benefactor::Reserve until it has placed enough replicas.
std::vector<int> RankPlacement(const std::vector<PlacementCandidate>& cands,
                               const PlacementRequest& req);

// First-choice registry index for the next stripe of a file, per the
// stripe policy, over the unified eligibility filter
// (alive && bytes_free >= chunk_bytes) — every policy applies the SAME
// filter, fixing the historic kCapacityBalanced hole that picked an
// argmax-free benefactor too full to hold even one chunk.  Falls back to
// `cursor` when no candidate is eligible; the caller's reserve scan then
// finds nothing and fails cleanly.
size_t ChooseStripeStart(const std::vector<PlacementCandidate>& cands,
                         StripePolicy policy, size_t cursor, int client_node,
                         uint64_t chunk_bytes);

}  // namespace nvm::store
