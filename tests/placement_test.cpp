// Tests for the shared placement engine: knob-off order preservation
// (the defaults must be byte- and virtual-time-identical to the historic
// capacity-only placement), the unified alive+min-free stripe-start
// filter across all three policies (all-full and all-dead edges), soft
// suspicion avoidance for striping/COW, hard suspicion and
// correlated-loss exclusion for repair targets, wear-band ranking, and
// the reservation lifecycle of zero-target and partial-target repair
// plans.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "sim/clock.hpp"
#include "store/placement.hpp"
#include "store/store.hpp"

namespace nvm::store {
namespace {

constexpr uint64_t kChunk = 64_KiB;
constexpr int kBenefactors = 4;
constexpr int64_t kMs = 1'000'000;  // virtual ns per millisecond

PlacementCandidate Cand(int bid, bool alive, uint64_t bytes_free,
                        bool suspected = false, bool excluded = false,
                        double wear = 0.0, int node = -1) {
  PlacementCandidate c;
  c.bid = bid;
  c.alive = alive;
  c.suspected = suspected;
  c.excluded = excluded;
  c.bytes_free = bytes_free;
  c.wear = wear;
  c.node = node;
  return c;
}

// ---- engine unit tests ----

TEST(PlacementEngineTest, KnobOffRotationPreservesRegistryOrder) {
  std::vector<PlacementCandidate> cands;
  for (int b = 0; b < 5; ++b) {
    // Wildly different free space, suspicion and wear: with every knob
    // off none of it may perturb the rotation.
    cands.push_back(Cand(b, /*alive=*/true, /*bytes_free=*/100u * (5u - b),
                         /*suspected=*/b == 1, /*excluded=*/false,
                         /*wear=*/0.2 * b));
  }
  PlacementRequest req;
  req.order = PlacementRequest::Order::kRotation;
  req.start = 3;
  EXPECT_EQ(RankPlacement(cands, req), (std::vector<int>{3, 4, 0, 1, 2}));
}

TEST(PlacementEngineTest, KnobOffLeastLoadedOrdersByFreeThenId) {
  std::vector<PlacementCandidate> cands = {
      Cand(0, true, 50), Cand(1, true, 200), Cand(2, true, 200),
      Cand(3, true, 75)};
  PlacementRequest req;
  req.order = PlacementRequest::Order::kLeastLoaded;
  EXPECT_EQ(RankPlacement(cands, req), (std::vector<int>{1, 2, 3, 0}));
}

TEST(PlacementEngineTest, DeadAndExcludedNeverRanked) {
  std::vector<PlacementCandidate> cands = {
      Cand(0, /*alive=*/false, 500), Cand(1, true, 400),
      Cand(2, true, 300, /*suspected=*/false, /*excluded=*/true),
      Cand(3, true, 200)};
  PlacementRequest req;
  req.order = PlacementRequest::Order::kLeastLoaded;
  EXPECT_EQ(RankPlacement(cands, req), (std::vector<int>{1, 3}));
}

TEST(PlacementEngineTest, SoftAvoidRanksSuspectedLastButKeepsThem) {
  std::vector<PlacementCandidate> cands = {
      Cand(0, true, 100, /*suspected=*/true), Cand(1, true, 100),
      Cand(2, true, 100, /*suspected=*/true), Cand(3, true, 100)};
  PlacementRequest req;
  req.order = PlacementRequest::Order::kRotation;
  req.start = 0;
  req.avoid_suspected = true;
  // Unsuspected first in rotation order, then the suspected ones, still
  // in rotation order — eligible, just last resort.
  EXPECT_EQ(RankPlacement(cands, req), (std::vector<int>{1, 3, 0, 2}));
}

TEST(PlacementEngineTest, HardExcludeDropsSuspectedEntirely) {
  std::vector<PlacementCandidate> cands = {
      Cand(0, true, 100, /*suspected=*/true), Cand(1, true, 100),
      Cand(2, true, 100, /*suspected=*/true), Cand(3, true, 100)};
  PlacementRequest req;
  req.order = PlacementRequest::Order::kLeastLoaded;
  req.avoid_suspected = true;
  req.exclude_suspected = true;
  EXPECT_EQ(RankPlacement(cands, req), (std::vector<int>{1, 3}));
}

TEST(PlacementEngineTest, WearBandsBiasTowardFreshDevices) {
  // Worn device ranks behind fresh ones once the weighted band differs;
  // within a band the base order still decides.
  std::vector<PlacementCandidate> cands = {
      Cand(0, true, 100, false, false, /*wear=*/0.50),
      Cand(1, true, 100, false, false, /*wear=*/0.02),
      Cand(2, true, 100, false, false, /*wear=*/0.03)};
  PlacementRequest req;
  req.order = PlacementRequest::Order::kRotation;
  req.start = 0;
  req.wear_weight = 1.0;  // bands: floor(16*wear) -> {8, 0, 0}
  EXPECT_EQ(RankPlacement(cands, req), (std::vector<int>{1, 2, 0}));
  // Weight 0 never reads wear into the order.
  req.wear_weight = 0.0;
  EXPECT_EQ(RankPlacement(cands, req), (std::vector<int>{0, 1, 2}));
}

TEST(PlacementEngineTest, StripeStartAppliesSameMinFreeFilterToAllPolicies) {
  // Benefactor 2 is the argmax-free but dead; benefactor 0 co-located
  // with the client but too full for one chunk.
  std::vector<PlacementCandidate> cands = {
      Cand(0, true, kChunk / 2, false, false, 0.0, /*node=*/7),
      Cand(1, true, 2 * kChunk, false, false, 0.0, /*node=*/1),
      Cand(2, /*alive=*/false, 100 * kChunk, false, false, 0.0, /*node=*/2),
      Cand(3, true, 5 * kChunk, false, false, 0.0, /*node=*/3)};
  // Round-robin: always the cursor (the reserve walk rotates from it).
  EXPECT_EQ(ChooseStripeStart(cands, StripePolicy::kRoundRobin, 1, 7, kChunk),
            1u);
  // Locality: the co-located benefactor cannot hold a chunk — fall back
  // to the cursor instead of steering every stripe at a full device.
  EXPECT_EQ(
      ChooseStripeStart(cands, StripePolicy::kLocalityAware, 1, 7, kChunk),
      1u);
  // Capacity-balanced: the dead argmax (bid 2) must not win; the best
  // ELIGIBLE candidate is bid 3.
  EXPECT_EQ(
      ChooseStripeStart(cands, StripePolicy::kCapacityBalanced, 0, 7, kChunk),
      3u);
  // All-full/all-dead: no eligible candidate -> the cursor comes back and
  // the caller's reserve scan fails cleanly.
  std::vector<PlacementCandidate> hopeless = {Cand(0, false, 100 * kChunk),
                                              Cand(1, true, kChunk - 1)};
  EXPECT_EQ(
      ChooseStripeStart(hopeless, StripePolicy::kCapacityBalanced, 1, -1,
                        kChunk),
      1u);
}

// ---- store-level rig ----

struct Rig {
  std::unique_ptr<net::Cluster> cluster;
  std::unique_ptr<AggregateStore> store;

  explicit Rig(int replication, uint64_t contribution = 64_MiB,
               std::function<void(StoreConfig&)> tweak = {}) {
    net::ClusterConfig cc;
    cc.num_nodes = kBenefactors + 1;
    cluster = std::make_unique<net::Cluster>(cc);
    AggregateStoreConfig sc;
    sc.store.chunk_bytes = kChunk;
    sc.store.replication = replication;
    if (tweak) tweak(sc.store);
    for (int b = 0; b < kBenefactors; ++b) sc.benefactor_nodes.push_back(b + 1);
    sc.contribution_bytes = contribution;
    sc.manager_node = 1;
    store = std::make_unique<AggregateStore>(*cluster, sc);
    sim::CurrentClock().Reset();
  }

  MaintenanceService& ms() { return *store->maintenance(); }
};

// Fast maintenance cadence, as in maintenance_test: 1 ms heartbeats,
// 3 misses to declare, 20 ms scrubs.
void FastMaintenance(StoreConfig& s) {
  s.maintenance = true;
  s.heartbeat_period_ms = 1;
  s.heartbeat_misses = 3;
  s.scrub_period_ms = 20;
}

std::vector<uint8_t> Pattern(uint64_t n, uint64_t seed) {
  std::vector<uint8_t> v(n);
  Xoshiro256 rng(seed);
  for (auto& b : v) b = static_cast<uint8_t>(rng.Next());
  return v;
}

FileId WriteStoreFile(StoreClient& c, const std::string& name, uint32_t chunks,
                      const std::vector<uint8_t>& data,
                      sim::VirtualClock& clock) {
  auto id = c.Create(clock, name);
  EXPECT_TRUE(id.ok());
  EXPECT_TRUE(c.Fallocate(clock, *id, chunks * kChunk).ok());
  Bitmap all(kChunk / c.config().page_bytes);
  all.SetAll();
  for (uint32_t i = 0; i < chunks; ++i) {
    EXPECT_TRUE(
        c.WriteChunkPages(clock, *id, i, all, {data.data() + i * kChunk, kChunk})
            .ok());
  }
  return *id;
}

// Put a benefactor into the suspected-but-alive window: kill it, let the
// detector miss two heartbeats (below the 3-miss declare threshold),
// revive it.  Until the next clean sweep resets the counter the detector
// still reports it suspected — exactly the flap window placement must
// steer around.
void MakeSuspected(Rig& rig, size_t bid) {
  rig.ms().RunUntil(rig.ms().now_ns());  // drain in-flight tick work
  const int64_t t0 = rig.ms().now_ns();
  rig.store->benefactor(bid).Kill();
  rig.ms().RunUntil(t0 + 2 * kMs);
  rig.store->benefactor(bid).Revive();
  ASSERT_EQ(rig.ms().stats().benefactors_declared_dead, 0u);
  ASSERT_GE(rig.ms().stats().benefactors_suspected, 1u);
}

// ---- satellite 1: unified stripe-start filter, all-dead / all-full ----

TEST(PlacementPolicyTest, FallocateAllDeadReturnsUnavailableNotOutOfSpace) {
  // Regression: with every benefactor dead the old fallback silently
  // started at the stale stripe cursor and the reserve walk's failure
  // surfaced as "out of space" — misdiagnosing a total outage as a
  // capacity problem.  Each policy must now say Unavailable.
  for (StripePolicy policy :
       {StripePolicy::kRoundRobin, StripePolicy::kLocalityAware,
        StripePolicy::kCapacityBalanced}) {
    Rig rig(/*replication=*/1, 64_MiB,
            [&](StoreConfig& s) { s.stripe_policy = policy; });
    StoreClient& c = rig.store->ClientForNode(0);
    sim::VirtualClock clock(0);
    for (int b = 0; b < kBenefactors; ++b) rig.store->benefactor(b).Kill();
    auto id = c.Create(clock, "/dead");
    ASSERT_TRUE(id.ok());
    Status s = c.Fallocate(clock, *id, 4 * kChunk);
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.code(), ErrorCode::kUnavailable)
        << "policy " << static_cast<int>(policy) << ": " << s.ToString();
    for (int b = 0; b < kBenefactors; ++b) {
      EXPECT_EQ(rig.store->benefactor(b).bytes_used(), 0u);
    }
  }
}

TEST(PlacementPolicyTest, FallocateAllFullFailsCleanlyWithExactReservations) {
  // Two chunks of room per benefactor.  Filling the store and asking for
  // one more must fail as out-of-space (the benefactors are up!) and the
  // failed call may not leak a single reserved byte — freeing a file must
  // make the next allocation succeed again.
  for (StripePolicy policy :
       {StripePolicy::kRoundRobin, StripePolicy::kLocalityAware,
        StripePolicy::kCapacityBalanced}) {
    Rig rig(/*replication=*/1, /*contribution=*/2 * kChunk,
            [&](StoreConfig& s) { s.stripe_policy = policy; });
    StoreClient& c = rig.store->ClientForNode(0);
    sim::VirtualClock clock(0);
    auto full = c.Create(clock, "/full");
    ASSERT_TRUE(full.ok());
    ASSERT_TRUE(c.Fallocate(clock, *full, kBenefactors * 2 * kChunk).ok());

    auto extra = c.Create(clock, "/extra");
    ASSERT_TRUE(extra.ok());
    Status s = c.Fallocate(clock, *extra, kChunk);
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.code(), ErrorCode::kOutOfSpace)
        << "policy " << static_cast<int>(policy) << ": " << s.ToString();
    for (int b = 0; b < kBenefactors; ++b) {
      EXPECT_EQ(rig.store->benefactor(b).bytes_used(), 2 * kChunk)
          << "benefactor " << b;
    }

    ASSERT_TRUE(c.Unlink(clock, *full).ok());
    EXPECT_TRUE(c.Fallocate(clock, *extra, kChunk).ok());
  }
}

TEST(PlacementPolicyTest, CapacityBalancedStartSkipsDeadArgmax) {
  // Regression: kCapacityBalanced picked the argmax-free benefactor with
  // no alive/min-free filter, so the emptiest DEAD benefactor could win
  // the start slot and rotation from there handed the chunk to whoever
  // happened to sit next in the registry.  The start must now be the
  // emptiest ELIGIBLE benefactor.
  Rig rig(/*replication=*/1, 64_MiB, [](StoreConfig& s) {
    s.stripe_policy = StripePolicy::kCapacityBalanced;
  });
  StoreClient& c = rig.store->ClientForNode(0);
  sim::VirtualClock clock(0);
  // Load benefactors unevenly: 3 chunks land on the three most-free in
  // turn, then pin extra load so the free ordering is 3 > 2 > 1 > 0.
  auto pin = c.Create(clock, "/pin");
  ASSERT_TRUE(pin.ok());
  ASSERT_TRUE(c.Fallocate(clock, *pin, 6 * kChunk).ok());
  std::vector<uint64_t> used(kBenefactors);
  for (int b = 0; b < kBenefactors; ++b) {
    used[b] = rig.store->benefactor(b).bytes_used();
  }
  // Kill the emptiest benefactor; the next chunk must land on the
  // emptiest SURVIVOR, not wherever the dead argmax's rotation pointed.
  size_t emptiest = 0, runner_up = 0;
  uint64_t best = UINT64_MAX;
  for (int b = 0; b < kBenefactors; ++b) {
    if (used[b] < best) {
      best = used[b];
      emptiest = static_cast<size_t>(b);
    }
  }
  best = UINT64_MAX;
  for (int b = 0; b < kBenefactors; ++b) {
    if (static_cast<size_t>(b) != emptiest && used[b] < best) {
      best = used[b];
      runner_up = static_cast<size_t>(b);
    }
  }
  rig.store->benefactor(emptiest).Kill();
  auto id = c.Create(clock, "/one");
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(c.Fallocate(clock, *id, kChunk).ok());
  EXPECT_EQ(rig.store->benefactor(runner_up).bytes_used(), best + kChunk);
}

// ---- knob-off identity pin ----

// A placement-heavy sequence (striping across policies' default, COW via
// a checkpoint link, a benefactor death plus synchronous re-replication,
// reads of everything) with a bytes + virtual-time fingerprint.
struct IdentityRun {
  int64_t final_ns = 0;
  std::map<std::string, std::vector<std::vector<uint8_t>>> bytes;
};

IdentityRun RunIdentitySequence(std::function<void(StoreConfig&)> tweak) {
  IdentityRun out;
  Rig rig(/*replication=*/2, 64_MiB, std::move(tweak));
  StoreClient& c = rig.store->ClientForNode(0);
  sim::VirtualClock clock(0);
  Xoshiro256 rng(0x9e3779b9);

  std::map<std::string, FileId> ids;
  std::map<std::string, std::vector<std::vector<uint8_t>>> files;
  for (int f = 0; f < 3; ++f) {
    const std::string name = "/pid" + std::to_string(f);
    std::vector<std::vector<uint8_t>> chunks;
    for (int i = 0; i < 4; ++i) chunks.push_back(Pattern(kChunk, rng.Next()));
    std::vector<uint8_t> flat;
    for (const auto& ch : chunks) flat.insert(flat.end(), ch.begin(), ch.end());
    ids[name] = WriteStoreFile(c, name, 4, flat, clock);
    files[name] = std::move(chunks);
  }
  // COW: link a checkpoint, overwrite a shared chunk.
  auto link = c.Create(clock, "/pid0.ckpt");
  EXPECT_TRUE(link.ok());
  EXPECT_TRUE(c.LinkFileChunks(clock, *link, ids["/pid0"]).ok());
  ids["/pid0.ckpt"] = *link;
  files["/pid0.ckpt"] = files["/pid0"];
  files["/pid0"][1] = Pattern(kChunk, rng.Next());
  Bitmap all(kChunk / c.config().page_bytes);
  all.SetAll();
  EXPECT_TRUE(c.WriteChunkPages(clock, ids["/pid0"], 1, all,
                                {files["/pid0"][1].data(), kChunk})
                  .ok());
  // Repair placement: one benefactor dies, re-replicate synchronously.
  rig.store->benefactor(2).Kill();
  rig.store->manager().MarkDead(2);
  uint64_t lost = 0;
  auto repaired = rig.store->manager().RepairReplication(clock, &lost);
  EXPECT_TRUE(repaired.ok());
  EXPECT_EQ(lost, 0u);

  std::vector<uint8_t> buf(kChunk);
  for (const auto& [name, chunks] : files) {
    auto& got = out.bytes[name];
    for (uint32_t i = 0; i < chunks.size(); ++i) {
      EXPECT_TRUE(c.ReadChunk(clock, ids[name], i, buf).ok());
      got.emplace_back(buf);
      EXPECT_EQ(buf, chunks[i]) << name << " chunk " << i;
    }
  }
  out.final_ns = clock.now();
  return out;
}

TEST(PlacementIdentityTest, KnobsOffIsByteAndVirtualTimeIdenticalToDefault) {
  // The placement knobs default to off...
  StoreConfig defaults;
  EXPECT_FALSE(defaults.placement_avoid_suspected);
  EXPECT_EQ(defaults.placement_wear_weight, 0.0);
  EXPECT_FALSE(defaults.placement_aware());

  // ...and a default-config run is deterministic and bit-identical —
  // in both content and virtual time — to one with the knobs forced off,
  // pinning the engine's knob-off path to the historic placement.
  const IdentityRun def = RunIdentitySequence({});
  const IdentityRun def2 = RunIdentitySequence({});
  const IdentityRun off = RunIdentitySequence([](StoreConfig& s) {
    s.placement_avoid_suspected = false;
    s.placement_wear_weight = 0.0;
  });
  EXPECT_EQ(def.final_ns, def2.final_ns);
  EXPECT_EQ(def.bytes, def2.bytes);
  EXPECT_EQ(def.final_ns, off.final_ns);
  EXPECT_EQ(def.bytes, off.bytes);
}

// ---- repair targeting: suspicion + correlated loss ----

TEST(PlacementRepairTest, RepairNeverTargetsSuspectedBenefactor) {
  Rig rig(/*replication=*/2, 64_MiB, [](StoreConfig& s) {
    FastMaintenance(s);
    s.placement_avoid_suspected = true;
  });
  StoreClient& c = rig.store->ClientForNode(0);
  Manager& m = rig.store->manager();
  sim::VirtualClock clock(0);
  constexpr uint32_t kChunks = 8;
  FileId id =
      WriteStoreFile(c, "/sus", kChunks, Pattern(kChunks * kChunk, 5), clock);

  // Benefactor 1 enters the suspected-but-alive flap window.
  constexpr int kSuspect = 1;
  ASSERT_NO_FATAL_FAILURE(MakeSuspected(rig, kSuspect));

  // Replicas on Y before the failure, per chunk: repair may never ADD a
  // replica on the suspect, but pre-existing ones legitimately stay.
  std::vector<bool> had_suspect(kChunks, false);
  for (uint32_t i = 0; i < kChunks; ++i) {
    auto loc = m.GetReadLocation(clock, id, i);
    ASSERT_TRUE(loc.ok());
    for (int b : loc->benefactors) {
      if (b == kSuspect) had_suspect[i] = true;
    }
  }

  // A different benefactor really dies; plan the re-replication directly
  // (the background service is idle — nothing ticks it here).
  constexpr int kDead = 3;
  rig.store->benefactor(kDead).Kill();
  m.MarkDead(kDead);
  uint64_t lost = 0;
  auto keys = m.CollectUnderReplicated();
  ASSERT_FALSE(keys.empty());
  auto plans = m.PlanRepairs(clock, keys, &lost);
  ASSERT_EQ(lost, 0u);
  ASSERT_FALSE(plans.empty());
  for (const auto& plan : plans) {
    EXPECT_FALSE(plan.incomplete);
    ASSERT_EQ(plan.targets.size(), 1u);
    // The hard exclusion: a flapping node must never receive the new
    // protective copy, and the dead node obviously can't.
    EXPECT_NE(plan.targets[0], kSuspect);
    EXPECT_NE(plan.targets[0], kDead);
    for (int s : plan.survivors) EXPECT_NE(plan.targets[0], s);
    bool requeue = false;
    auto outcome = m.ExecuteRepairPlan(clock, plan);
    EXPECT_EQ(m.CommitRepair(clock, outcome, &requeue), 1u);
    EXPECT_FALSE(requeue);
  }
  for (uint32_t i = 0; i < kChunks; ++i) {
    auto loc = m.GetReadLocation(clock, id, i);
    ASSERT_TRUE(loc.ok());
    std::set<int> distinct(loc->benefactors.begin(), loc->benefactors.end());
    EXPECT_EQ(distinct.size(), 2u) << "chunk " << i;
    EXPECT_FALSE(distinct.contains(kDead)) << "chunk " << i;
    if (!had_suspect[i]) {
      EXPECT_FALSE(distinct.contains(kSuspect))
          << "repair added a replica on the suspected benefactor, chunk " << i;
    }
  }
}

TEST(PlacementRepairTest, RepairNeverTargetsCorruptSourceBenefactor) {
  // Correlated-loss exclusion: the benefactor that served a corrupt copy
  // of a chunk is not an eligible repair target for that same chunk —
  // even when that makes the plan incomplete — until a completed
  // overwrite refreshes the chunk's bytes and clears the taint.
  Rig rig(/*replication=*/2, 64_MiB, [](StoreConfig& s) {
    s.placement_avoid_suspected = true;
  });
  StoreClient& c = rig.store->ClientForNode(0);
  Manager& m = rig.store->manager();
  sim::VirtualClock clock(0);
  const auto data = Pattern(kChunk, 7);
  FileId id = WriteStoreFile(c, "/taint", 1, data, clock);

  auto loc = m.GetReadLocation(clock, id, 0);
  ASSERT_TRUE(loc.ok());
  ASSERT_EQ(loc->benefactors.size(), 2u);
  const int rotten = loc->benefactors[0];
  const int survivor = loc->benefactors[1];
  ASSERT_TRUE(rig.store->benefactor(static_cast<size_t>(rotten))
                  .CorruptChunk(loc->key, /*byte_offset=*/11, /*xor_mask=*/0x20)
                  .ok());
  std::vector<uint8_t> got(kChunk);
  ASSERT_TRUE(c.ReadChunk(clock, id, 0, got).ok());  // failover + quarantine
  EXPECT_EQ(got, data);
  ASSERT_EQ(m.corrupt_detected(), 1u);

  // Leave the tainted benefactor as the ONLY candidate with room: with
  // everyone else dead the plan must come back empty-and-incomplete
  // rather than re-protect the chunk on the device that just rotted it —
  // and the aborted plan may not leak a reserved byte.
  std::vector<uint64_t> used_before(kBenefactors);
  for (int b = 0; b < kBenefactors; ++b) {
    if (b != rotten && b != survivor) rig.store->benefactor(b).Kill();
    used_before[b] = rig.store->benefactor(b).bytes_used();
  }
  auto keys = m.CollectUnderReplicated();
  ASSERT_EQ(keys.size(), 1u);
  auto plans = m.PlanRepairs(clock, keys);
  ASSERT_EQ(plans.size(), 1u);
  EXPECT_TRUE(plans[0].incomplete);
  EXPECT_TRUE(plans[0].targets.empty());
  for (int b = 0; b < kBenefactors; ++b) {
    EXPECT_EQ(rig.store->benefactor(b).bytes_used(), used_before[b])
        << "zero-target plan leaked a reservation on benefactor " << b;
  }

  // A completed overwrite lays down fresh verified bytes and clears the
  // correlated-loss memory: the same benefactor becomes eligible again
  // and heals the chunk back to full replication.
  const auto fresh = Pattern(kChunk, 8);
  Bitmap all(kChunk / c.config().page_bytes);
  all.SetAll();
  ASSERT_TRUE(
      c.WriteChunkPages(clock, id, 0, all, {fresh.data(), kChunk}).ok());
  keys = m.CollectUnderReplicated();
  ASSERT_EQ(keys.size(), 1u);
  plans = m.PlanRepairs(clock, keys);
  ASSERT_EQ(plans.size(), 1u);
  EXPECT_FALSE(plans[0].incomplete);
  ASSERT_EQ(plans[0].targets.size(), 1u);
  EXPECT_EQ(plans[0].targets[0], rotten);
  bool requeue = false;
  auto outcome = m.ExecuteRepairPlan(clock, plans[0]);
  EXPECT_EQ(m.CommitRepair(clock, outcome, &requeue), 1u);
  EXPECT_FALSE(requeue);
  auto healed = m.GetReadLocation(clock, id, 0);
  ASSERT_TRUE(healed.ok());
  std::set<int> distinct(healed->benefactors.begin(),
                         healed->benefactors.end());
  EXPECT_EQ(distinct, (std::set<int>{rotten, survivor}));
  ASSERT_TRUE(c.ReadChunk(clock, id, 0, got).ok());
  EXPECT_EQ(got, fresh);
}

TEST(PlacementRepairTest, KnobOffRepairMayTargetCorruptSource) {
  // The exclusion is strictly opt-in: with the knob off the historic
  // least-loaded placement stands, and in this corner the corrupt-source
  // benefactor — the only one with room — is exactly who gets the copy.
  Rig rig(/*replication=*/2);
  StoreClient& c = rig.store->ClientForNode(0);
  Manager& m = rig.store->manager();
  sim::VirtualClock clock(0);
  const auto data = Pattern(kChunk, 9);
  FileId id = WriteStoreFile(c, "/off", 1, data, clock);

  auto loc = m.GetReadLocation(clock, id, 0);
  ASSERT_TRUE(loc.ok());
  const int rotten = loc->benefactors[0];
  const int survivor = loc->benefactors[1];
  ASSERT_TRUE(rig.store->benefactor(static_cast<size_t>(rotten))
                  .CorruptChunk(loc->key, 3, 0x01)
                  .ok());
  std::vector<uint8_t> got(kChunk);
  ASSERT_TRUE(c.ReadChunk(clock, id, 0, got).ok());
  for (int b = 0; b < kBenefactors; ++b) {
    if (b != rotten && b != survivor) rig.store->benefactor(b).Kill();
  }
  auto plans = m.PlanRepairs(clock, m.CollectUnderReplicated());
  ASSERT_EQ(plans.size(), 1u);
  EXPECT_FALSE(plans[0].incomplete);
  ASSERT_EQ(plans[0].targets.size(), 1u);
  EXPECT_EQ(plans[0].targets[0], rotten);
}

// ---- COW placement under suspicion ----

TEST(PlacementCowTest, CowDropsSuspectedHolderButKeepsAtLeastOne) {
  Rig rig(/*replication=*/2, 64_MiB, [](StoreConfig& s) {
    FastMaintenance(s);
    s.placement_avoid_suspected = true;
  });
  StoreClient& c = rig.store->ClientForNode(0);
  Manager& m = rig.store->manager();
  sim::VirtualClock clock(0);
  const auto v1 = Pattern(kChunk, 21);
  FileId id = WriteStoreFile(c, "/cow", 1, v1, clock);
  auto ckpt = c.Create(clock, "/cow.ckpt");
  ASSERT_TRUE(ckpt.ok());
  ASSERT_TRUE(c.LinkFileChunks(clock, *ckpt, id).ok());

  auto before = m.GetReadLocation(clock, id, 0);
  ASSERT_TRUE(before.ok());
  ASSERT_EQ(before->benefactors.size(), 2u);
  const int keep = before->benefactors[0];
  const int flappy = before->benefactors[1];
  ASSERT_NO_FATAL_FAILURE(
      MakeSuspected(rig, static_cast<size_t>(flappy)));

  // The overwrite COWs (the chunk is shared with the checkpoint); the
  // fresh version must drop the flapping holder and carry on degraded
  // with the healthy one — scrub re-protects it later.
  const auto v2 = Pattern(kChunk, 22);
  Bitmap all(kChunk / c.config().page_bytes);
  all.SetAll();
  ASSERT_TRUE(c.WriteChunkPages(clock, id, 0, all, {v2.data(), kChunk}).ok());
  auto after = m.GetReadLocation(clock, id, 0);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->benefactors, (std::vector<int>{keep}));
  // The checkpoint's shared version is untouched.
  auto ck = m.GetReadLocation(clock, *ckpt, 0);
  ASSERT_TRUE(ck.ok());
  std::set<int> ck_set(ck->benefactors.begin(), ck->benefactors.end());
  EXPECT_EQ(ck_set, (std::set<int>{keep, flappy}));
  std::vector<uint8_t> got(kChunk);
  ASSERT_TRUE(c.ReadChunk(clock, id, 0, got).ok());
  EXPECT_EQ(got, v2);
  ASSERT_TRUE(c.ReadChunk(clock, *ckpt, 0, got).ok());
  EXPECT_EQ(got, v1);

  // Once the flap window clears, background maintenance heals the
  // degraded fresh version back to full replication.
  rig.ms().RunUntil(rig.ms().now_ns() + 100 * kMs);
  ASSERT_TRUE(rig.ms().QueueEmpty());
  auto healed = m.GetReadLocation(clock, id, 0);
  ASSERT_TRUE(healed.ok());
  std::set<int> distinct(healed->benefactors.begin(),
                         healed->benefactors.end());
  EXPECT_EQ(distinct.size(), 2u);
  ASSERT_TRUE(c.ReadChunk(clock, id, 0, got).ok());
  EXPECT_EQ(got, v2);

  // When EVERY holder is suspected the filter must keep them all: a
  // degraded-but-present replica set always beats an empty one.
  auto ckpt2 = c.Create(clock, "/cow.ckpt2");
  ASSERT_TRUE(ckpt2.ok());
  ASSERT_TRUE(c.LinkFileChunks(clock, *ckpt2, id).ok());
  auto shared = m.GetReadLocation(clock, id, 0);
  ASSERT_TRUE(shared.ok());
  rig.ms().RunUntil(rig.ms().now_ns());
  const int64_t t0 = rig.ms().now_ns();
  for (int b : shared->benefactors) {
    rig.store->benefactor(static_cast<size_t>(b)).Kill();
  }
  rig.ms().RunUntil(t0 + 2 * kMs);
  for (int b : shared->benefactors) {
    rig.store->benefactor(static_cast<size_t>(b)).Revive();
  }
  const auto v3 = Pattern(kChunk, 23);
  ASSERT_TRUE(c.WriteChunkPages(clock, id, 0, all, {v3.data(), kChunk}).ok());
  auto still = m.GetReadLocation(clock, id, 0);
  ASSERT_TRUE(still.ok());
  std::set<int> still_set(still->benefactors.begin(), still->benefactors.end());
  std::set<int> shared_set(shared->benefactors.begin(),
                           shared->benefactors.end());
  EXPECT_EQ(still_set, shared_set);
  ASSERT_TRUE(c.ReadChunk(clock, id, 0, got).ok());
  EXPECT_EQ(got, v3);
}

// ---- satellite 2: repair reservation lifecycle under racing scrub ----

TEST(PlacementRepairTest, PartialPlanReservationsAreExactAfterCommit) {
  // Replication 3 with two of four benefactors dead: each plan needs two
  // targets but only one candidate exists.  The partial plan must
  // reserve exactly what it publishes — commit the one copy, requeue the
  // chunk, and leak nothing when the file is freed.
  Rig rig(/*replication=*/3);
  StoreClient& c = rig.store->ClientForNode(0);
  Manager& m = rig.store->manager();
  sim::VirtualClock clock(0);
  constexpr uint32_t kChunks = 4;
  FileId id = WriteStoreFile(c, "/part", kChunks,
                             Pattern(kChunks * kChunk, 31), clock);

  // Each chunk lives on 3 of 4 benefactors.  Kill two: every chunk loses
  // at least one replica, and at most one target candidate survives.
  rig.store->benefactor(0).Kill();
  m.MarkDead(0);
  rig.store->benefactor(1).Kill();
  m.MarkDead(1);
  uint64_t lost = 0;
  auto plans = m.PlanRepairs(clock, m.CollectUnderReplicated(), &lost);
  ASSERT_EQ(lost, 0u);
  ASSERT_FALSE(plans.empty());
  uint64_t recreated = 0;
  for (const auto& plan : plans) {
    // Survivors ⊆ {2,3}; a chunk that kept both has no work, one that
    // kept a single survivor gets a partial plan: one target, still
    // short of replication 3.
    ASSERT_LE(plan.targets.size(), 1u);
    EXPECT_TRUE(plan.incomplete);
    bool requeue = false;
    auto outcome = m.ExecuteRepairPlan(clock, plan);
    recreated += m.CommitRepair(clock, outcome, &requeue);
    // Every planned target published: the commit itself does not requeue
    // — a capacity shortfall is not retryable until capacity returns, so
    // the scrub's under-replication sweep re-queues it later instead
    // (requeuing here would livelock the drain loop).
    EXPECT_FALSE(requeue);
  }
  EXPECT_GT(recreated, 0u);

  // Exact accounting: the survivors hold one reservation per chunk each,
  // no more (nothing double-reserved by the partial plans), and teardown
  // returns every benefactor to zero (an unbacked release would trip the
  // underflow check inside the benefactor).
  for (int b = 2; b < kBenefactors; ++b) {
    EXPECT_EQ(rig.store->benefactor(b).bytes_used(), kChunks * kChunk)
        << "benefactor " << b;
  }
  ASSERT_TRUE(c.Unlink(clock, id).ok());
  for (int b = 0; b < kBenefactors; ++b) {
    EXPECT_EQ(rig.store->benefactor(b).bytes_used(), 0u) << "benefactor " << b;
  }
}

TEST(PlacementRepairTest, RepairStormRacingScrubAndWritersLeaksNothing) {
  // The reservation lifecycle under fire: writers allocate and free
  // files, a repair driver replans over a real benefactor death, and a
  // scrubber sweeps all shards — all concurrently.  Whatever interleaves,
  // the end state must be drift-free and tear down to zero.
  Rig rig(/*replication=*/2);
  Manager& m = rig.store->manager();
  constexpr int kThreads = 3;
  constexpr int kFilesPerThread = 8;
  constexpr uint32_t kChunksPerFile = 6;
  const auto name = [](int t, int f) {
    return "/storm" + std::to_string(t) + "_" + std::to_string(f);
  };

  // Seed some replicated state, then kill a benefactor so the repair
  // driver has genuine re-replication to race against the others.
  {
    sim::VirtualClock clock(0);
    StoreClient& c = rig.store->ClientForNode(0);
    for (int f = 0; f < kFilesPerThread; ++f) {
      auto id = c.Create(clock, name(kThreads, f));
      ASSERT_TRUE(id.ok());
      ASSERT_TRUE(c.Fallocate(clock, *id, kChunksPerFile * kChunk).ok());
    }
  }
  rig.store->benefactor(3).Kill();
  m.MarkDead(3);

  std::atomic<bool> done{false};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      sim::VirtualClock clock(0);
      StoreClient& c = rig.store->ClientForNode(t);
      for (int f = 0; f < kFilesPerThread; ++f) {
        auto id = c.Create(clock, name(t, f));
        ASSERT_TRUE(id.ok());
        ASSERT_TRUE(c.Fallocate(clock, *id, kChunksPerFile * kChunk).ok());
        if (f % 2 == 1) {
          ASSERT_TRUE(c.Unlink(clock, *id).ok());
        }
      }
    });
  }
  workers.emplace_back([&] {
    sim::VirtualClock clock(0);
    for (int r = 0; r < 6; ++r) {
      ASSERT_TRUE(m.RepairReplication(clock).ok());
    }
  });
  std::thread scrubber([&] {
    sim::VirtualClock clock(0);
    while (!done.load(std::memory_order_relaxed)) {
      m.ScrubOnce(clock);
    }
  });
  for (std::thread& w : workers) w.join();
  done.store(true, std::memory_order_relaxed);
  scrubber.join();

  // Converge any stragglers the racing drivers requeued, then demand the
  // exact end state: full replication on survivors and zero drift.
  sim::VirtualClock clock(0);
  ASSERT_TRUE(m.RepairReplication(clock).ok());
  auto scrub = m.ScrubOnce(clock);
  EXPECT_EQ(scrub.orphans_deleted, 0u);
  EXPECT_EQ(scrub.reservation_fixes, 0u);
  for (int t = 0; t <= kThreads; ++t) {
    for (int f = 0; f < kFilesPerThread; ++f) {
      auto id = m.LookupFile(clock, name(t, f));
      if (!id.ok()) continue;  // unlinked by its writer
      ASSERT_TRUE(m.Unlink(clock, *id).ok());
    }
  }
  for (int b = 0; b < kBenefactors; ++b) {
    EXPECT_EQ(rig.store->benefactor(b).bytes_used(), 0u) << "benefactor " << b;
  }
  auto final_scrub = m.ScrubOnce(clock);
  EXPECT_EQ(final_scrub.orphans_deleted, 0u);
  EXPECT_EQ(final_scrub.reservation_fixes, 0u);
}

// ---- wear-aware striping end to end ----

TEST(PlacementWearTest, WearWeightSteersStripesOffWornDevice) {
  // Pre-age one benefactor's SSD far past the others, then allocate with
  // the wear knob on: new stripes must avoid the worn device while the
  // fresh ones still have room, and knob-off must keep ignoring wear.
  for (const bool aware : {false, true}) {
    Rig rig(/*replication=*/1, 64_MiB, [&](StoreConfig& s) {
      s.placement_wear_weight = aware ? 8.0 : 0.0;
    });
    StoreClient& c = rig.store->ClientForNode(0);
    sim::VirtualClock clock(0);
    // Age benefactor 0: hammer one erase block on a throwaway clock until
    // its wear fraction dominates every band the weight can resolve.
    sim::SsdDevice& worn = rig.store->benefactor(0).ssd();
    sim::VirtualClock aging(0);
    while (worn.wear_fraction() < 0.5) {
      worn.ChargeWrite(aging, 0, sim::SsdDevice::kEraseBlockBytes);
    }
    auto id = c.Create(clock, "/wear");
    ASSERT_TRUE(id.ok());
    ASSERT_TRUE(c.Fallocate(clock, *id, 8 * kChunk).ok());
    if (aware) {
      EXPECT_EQ(rig.store->benefactor(0).bytes_used(), 0u)
          << "wear-aware striping placed a stripe on the worn device";
    } else {
      EXPECT_EQ(rig.store->benefactor(0).bytes_used(), 2 * kChunk)
          << "knob-off striping must ignore wear";
    }
  }
}

// ---- per-call exclude set ----

TEST(PlacementEngineTest, ExcludeNodesDropsCoResidentCandidatesHard) {
  // One request can demand distinct failure domains: every candidate on
  // an excluded node drops entirely (hard, like dead), while candidates
  // with an unknown node (-1) are never excluded by the node filter.
  std::vector<PlacementCandidate> cands = {
      Cand(0, true, 400, false, false, 0.0, /*node=*/1),
      Cand(1, true, 300, false, false, 0.0, /*node=*/2),
      Cand(2, true, 200, false, false, 0.0, /*node=*/1),
      Cand(3, true, 100, false, false, 0.0, /*node=*/-1)};
  PlacementRequest req;
  req.order = PlacementRequest::Order::kLeastLoaded;
  std::vector<int> exclude = {1, 5};
  req.exclude_nodes = &exclude;
  EXPECT_EQ(RankPlacement(cands, req), (std::vector<int>{1, 3}));
  // No exclude set: nothing drops and the base order is untouched.
  req.exclude_nodes = nullptr;
  EXPECT_EQ(RankPlacement(cands, req), (std::vector<int>{0, 1, 2, 3}));
}

// ---- erasure anti-affinity: hard node-level fragment spreading ----

// Erasure rigs need their own benefactor->node map: the spread rule is
// about failure domains, so the tests below control co-residency.
struct EcRig {
  std::unique_ptr<net::Cluster> cluster;
  std::unique_ptr<AggregateStore> store;

  explicit EcRig(std::vector<int> benefactor_nodes,
                 uint64_t contribution = 64_MiB) {
    net::ClusterConfig cc;
    int max_node = 0;
    for (int n : benefactor_nodes) max_node = std::max(max_node, n);
    cc.num_nodes = max_node + 1;
    cluster = std::make_unique<net::Cluster>(cc);
    AggregateStoreConfig sc;
    sc.store.chunk_bytes = kChunk;
    sc.store.replication = 1;
    sc.store.redundancy = RedundancyMode::kErasure;
    sc.store.ec_k = 4;
    sc.store.ec_m = 2;
    sc.benefactor_nodes = std::move(benefactor_nodes);
    sc.contribution_bytes = contribution;
    sc.manager_node = 1;
    store = std::make_unique<AggregateStore>(*cluster, sc);
    sim::CurrentClock().Reset();
  }
};

TEST(PlacementEcTest, StripeNeverCoLocatesUnderCapacityPressure) {
  // Six benefactors on six nodes — exactly enough domains for RS(4,2).
  // Fill one benefactor to the brim: five domains with room is NOT a
  // stripe, and the placement may not quietly put two fragments on one
  // of the survivors.  The allocation fails Unavailable (adding capacity
  // to an existing domain cannot help) without leaking a reserved byte,
  // and succeeds again the moment the sixth domain has room.
  EcRig rig({1, 2, 3, 4, 5, 6});
  StoreClient& c = rig.store->ClientForNode(0);
  sim::VirtualClock clock(0);
  const uint64_t frag = rig.store->manager().config().ec_frag_bytes();
  const uint64_t contribution = 64_MiB;
  const ChunkKey phantom{/*origin_file=*/9998, 0, 0};
  ASSERT_TRUE(rig.store->benefactor(0).Reserve(phantom, contribution).ok());

  auto id = c.Create(clock, "/spread");
  ASSERT_TRUE(id.ok());
  Status s = c.Fallocate(clock, *id, kChunk);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kUnavailable) << s.ToString();
  for (size_t b = 1; b < 6; ++b) {
    EXPECT_EQ(rig.store->benefactor(b).bytes_used(), 0u) << "benefactor " << b;
  }

  ASSERT_TRUE(rig.store->benefactor(0).DeleteChunk(phantom).ok());
  ASSERT_TRUE(c.Fallocate(clock, *id, kChunk).ok());
  auto loc = rig.store->manager().GetReadLocation(clock, *id, 0);
  ASSERT_TRUE(loc.ok());
  std::set<int> bids(loc->benefactors.begin(), loc->benefactors.end());
  EXPECT_EQ(bids.size(), 6u) << "stripe co-locates fragments";
  for (size_t b = 0; b < 6; ++b) {
    EXPECT_EQ(rig.store->benefactor(b).bytes_used(), frag)
        << "benefactor " << b;
  }
}

TEST(PlacementEcTest, CoResidentBenefactorsAreOneFailureDomain) {
  // Six benefactors but two share a node: five failure domains.  All six
  // have oceans of space, yet a 4+2 stripe must refuse to place — a node
  // loss would cost two fragments of the same stripe.
  EcRig shared({1, 2, 3, 4, 5, 5});
  StoreClient& c = shared.store->ClientForNode(0);
  sim::VirtualClock clock(0);
  auto id = c.Create(clock, "/domains");
  ASSERT_TRUE(id.ok());
  Status s = c.Fallocate(clock, *id, kChunk);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kUnavailable) << s.ToString();
  for (size_t b = 0; b < 6; ++b) {
    EXPECT_EQ(shared.store->benefactor(b).bytes_used(), 0u)
        << "benefactor " << b;
  }

  // Control: the same shape on six distinct nodes places one fragment
  // per node.
  EcRig spread({1, 2, 3, 4, 5, 6});
  StoreClient& c2 = spread.store->ClientForNode(0);
  auto id2 = c2.Create(clock, "/domains");
  ASSERT_TRUE(id2.ok());
  ASSERT_TRUE(c2.Fallocate(clock, *id2, kChunk).ok());
  auto loc = spread.store->manager().GetReadLocation(clock, *id2, 0);
  ASSERT_TRUE(loc.ok());
  std::set<int> nodes;
  for (int b : loc->benefactors) {
    nodes.insert(spread.store->benefactor(static_cast<size_t>(b)).node_id());
  }
  EXPECT_EQ(nodes.size(), loc->benefactors.size())
      << "two fragments share a node";
}

}  // namespace
}  // namespace nvm::store
