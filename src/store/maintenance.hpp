// Background maintenance service of the aggregate store.
//
// The paper's store must survive benefactor loss without operator action:
// "the available memory capacity is reduced" on a failure, but the data a
// failed benefactor held has to be re-protected from the surviving
// replicas.  This service runs manager-side on its own virtual-time worker
// thread (sim::VirtualWorker) and cooperates three loops:
//
//   failure detector  periodic heartbeat sweeps; a benefactor is only
//                     *declared* dead after `heartbeat_misses` consecutive
//                     missed heartbeats (suspicion threshold), which
//                     rides out transient stalls without spurious repair
//   incremental repair clients report degraded ChunkKeys as their writes
//                     observe failures; a dedup'd queue drains chunk by
//                     chunk through the manager's plan/execute/commit
//                     engine, throttled to `repair_bw_fraction` of the
//                     worker's virtual time (duty cycle) so repair traffic
//                     cannot starve foreground I/O
//   scrubber          a slow periodic Manager::ScrubOnce pass reconciling
//                     chunk maps against benefactor state, reclaiming
//                     orphans and re-queueing missed under-replicated
//                     chunks; it also runs an incremental
//                     Manager::VerifyScrub sweep re-checksumming stored
//                     chunk contents (scrub_verify_bytes per pass, 0
//                     skips it; same duty-cycle throttle as repair) and
//                     queueing quarantined bit rot for re-replication
//   checkpointer      with the wal knob on and checkpoint_period_ms > 0, a
//                     periodic Manager::Checkpoint serialises the metadata
//                     plane into the WAL's checkpoint store, bounding the
//                     log length a cold-start recovery must replay
//
// Locking discipline: all engine state (schedule, miss counters) is
// touched only from worker tasks; the cross-thread state is the repair
// queue — sharded by ChunkKey hash exactly like the manager's metadata
// plane, so reporters on different shards never contend — and the
// schedule target, guarded by one small mutex.  A queue-shard lock is
// never held while taking mu_ (or any manager lock), and chunk data moves
// only in Manager::ExecuteRepairPlan (the manager's member mover), never
// under any metadata mutex.
//
// The service has no thread of time of its own — virtual time only moves
// when something drives it.  Foreground metadata round-trips call Tick()
// (cheap check against the next due time); tests and benchmarks call
// RunUntil() to advance the schedule to a virtual deadline and drain the
// repair queue deterministically.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <unordered_set>
#include <vector>

#include "common/stats.hpp"
#include "sim/worker.hpp"
#include "store/manager.hpp"

namespace nvm::store {

// Point-in-time snapshot assembled by MaintenanceService::stats() from the
// service's relaxed atomic counters (and the manager's Counter totals), so
// any thread — the report path in particular — can read it without taking
// the worker's locks.  Fields are plain values: the snapshot is coherent
// enough for reporting, not a linearisable view.
struct MaintenanceStats {
  // Failure detector.
  uint64_t heartbeat_sweeps = 0;
  uint64_t benefactors_suspected = 0;      // first missed heartbeat
  uint64_t benefactors_declared_dead = 0;  // suspicion confirmed
  // Repair.
  uint64_t degraded_reports = 0;   // client ReportDegraded calls
  uint64_t repairs_enqueued = 0;   // distinct keys accepted into the queue
  uint64_t repair_batches = 0;
  uint64_t replicas_recreated = 0;
  uint64_t repairs_requeued = 0;   // retries: lost races or mid-copy deaths
  uint64_t repair_capacity_misses = 0;  // plans short of the target count
  uint64_t lost_chunks = 0;        // no surviving replica (manager total)
  uint64_t queue_depth = 0;        // keys waiting right now
  int64_t repair_busy_ns = 0;      // virtual time spent moving chunk data
  int64_t throttle_idle_ns = 0;    // virtual time idled by the duty cycle
  int64_t converged_at_ns = -1;    // virtual time the queue last drained
  // Scrubber.
  uint64_t scrub_passes = 0;
  uint64_t scrub_orphans_deleted = 0;
  uint64_t scrub_reservation_fixes = 0;
  uint64_t scrub_requeued = 0;
  // Checkpointer (wal knob + checkpoint_period_ms > 0).
  uint64_t checkpoints = 0;
  // Checksum verification (the VerifyScrub sweep).
  uint64_t scrub_chunks_verified = 0;  // distinct keys visited by the sweep
  uint64_t scrub_bytes_verified = 0;   // chunk bytes read + checksummed
  uint64_t corrupt_chunks_detected = 0;  // replicas quarantined (read+scrub)
  uint64_t corrupt_chunks_repaired = 0;  // healed back to full replication
  // Worker clock position.
  int64_t clock_ns = 0;
};

class MaintenanceService {
 public:
  // Reads every knob from manager.config(); attaches itself to the
  // manager so client-side ReportDegraded/Tick signals reach it.
  explicit MaintenanceService(Manager& manager);
  ~MaintenanceService();  // detaches, then drains and joins the worker

  MaintenanceService(const MaintenanceService&) = delete;
  MaintenanceService& operator=(const MaintenanceService&) = delete;

  // A client observed a replica write fail at virtual `now_ns`: queue the
  // chunk for re-replication (dedup'd) and wake the worker.  Any thread.
  void ReportDegraded(const ChunkKey& key, int64_t now_ns);

  // Pacing hook from foreground traffic: if the schedule has work due at
  // or before `now_ns`, post a catch-up task.  Cheap when idle (one
  // relaxed load).  Any thread.
  void Tick(int64_t now_ns);

  // Deterministic driver: advance the heartbeat/scrub schedule to
  // `deadline_ns`, drain the repair queue, and block until the worker is
  // idle.  On return every repair enqueued before the call has been
  // committed (or died as lost/requeued-and-retried).
  void RunUntil(int64_t deadline_ns);

  bool QueueEmpty() const;
  MaintenanceStats stats() const;
  int64_t now_ns() const { return worker_.now_ns(); }

  // Per-benefactor suspicion flags for the placement engine: one entry
  // per benefactor registered when the service started, set while the
  // heartbeat detector counts >= 1 consecutive missed heartbeat (the
  // suspected-but-not-yet-declared-dead window; a clean sweep clears it).
  // Lock-free snapshot of the mirrored atomic counters — callable from
  // any thread, including under the manager's hook lock.
  std::vector<char> SuspectedSnapshot() const;

 private:
  struct Pending {
    ChunkKey key;
    int64_t reported_ns = 0;
  };

  // One slice of the repair queue: the keys whose manager metadata shard
  // this is (same splitmix64 partition), FIFO within the shard, dedup'd by
  // `queued`.  Reporters on different shards take different locks.
  struct QueueShard {
    mutable std::mutex mu;
    std::deque<Pending> queue;
    std::unordered_set<ChunkKey, ChunkKeyHash> queued;  // dedup of queue
  };

  // Post a catch-up task unless one is already pending (mu_ held).
  bool KickLocked();
  // Accept `key` into its queue shard unless already waiting.  Takes (and
  // releases) only that shard's lock.  Any thread.
  bool Enqueue(const ChunkKey& key, int64_t now_ns);

  // Worker-side loops (run only on the worker thread).
  void CatchUp(sim::VirtualClock& clock);
  void RepairBatch(sim::VirtualClock& clock);
  void HeartbeatSweep(sim::VirtualClock& clock);
  void ScrubPass(sim::VirtualClock& clock);
  void CheckpointPass(sim::VirtualClock& clock);
  // Duty-cycle throttle: after `busy` ns of maintenance traffic the worker
  // idles busy*(1-f)/f ns (none at f=1 or with QoS on).
  void IdleAfter(sim::VirtualClock& clock, int64_t busy);

  Manager& manager_;
  const int64_t heartbeat_period_ns_;
  const int heartbeat_misses_;
  const double bw_fraction_;
  // With qos on, the duty-cycle idle is skipped and maintenance is paced
  // only as a QoS tenant.  The tenant is not an equivalent throttle: a
  // lone maintenance tenant booked before the foreground arrives is
  // admitted free (bench_repair_mttr --quick at f=0.1: MTTR 38.98 ms and
  // foreground at 54.9% of baseline, against 375.64 ms and 92.4%).
  const bool qos_on_;
  const int64_t scrub_period_ns_;
  // 0 when disabled (no WAL attached, or checkpoint_period_ms == 0).
  const int64_t checkpoint_period_ns_;

  // Cross-thread state: the sharded repair queue (one shard per manager
  // metadata shard) plus the schedule target under mu_.
  std::vector<QueueShard> queues_;
  // Total keys waiting across all shards, maintained by Enqueue and the
  // batch drain: QueueEmpty(), stats(), and the catch-up loop read one
  // relaxed load instead of sweeping every shard lock.
  std::atomic<uint64_t> queue_depth_{0};
  mutable std::mutex mu_;
  int64_t target_ns_ = 0;  // virtual time the schedule must reach
  bool kicked_ = false;    // a catch-up task is posted or running

  // Fast-path gate for Tick(): the earliest virtual time anything is due.
  std::atomic<int64_t> next_due_{0};

  // Worker-only state (touched solely from tasks, no locking needed).
  int64_t next_heartbeat_ns_;
  int64_t next_scrub_ns_;
  int64_t next_checkpoint_ns_;  // INT64_MAX when disabled
  std::vector<int> missed_;  // consecutive missed heartbeats, by id
  size_t drain_cursor_ = 0;  // queue shard the next repair batch starts at

  // Cross-thread mirror of missed_ for SuspectedSnapshot(): sized at
  // construction (benefactors register before the service in both
  // AggregateStore wiring paths; one registered later is simply never
  // suspected), written only by the heartbeat sweep.
  const size_t suspect_slots_;
  std::unique_ptr<std::atomic<uint32_t>[]> suspect_counts_;

  // Stats (atomic so stats() works from any thread).
  Counter sweeps_;
  Counter suspected_;
  Counter declared_dead_;
  Counter reports_;
  Counter enqueued_;
  Counter batches_;
  Counter recreated_;
  Counter requeued_;
  Counter capacity_misses_;
  Counter scrub_passes_;
  Counter scrub_orphans_;
  Counter scrub_res_fixes_;
  Counter scrub_requeued_;
  Counter checkpoints_;
  Counter scrub_chunks_verified_;
  Counter scrub_bytes_verified_;
  std::atomic<int64_t> repair_busy_ns_{0};
  std::atomic<int64_t> throttle_idle_ns_{0};
  std::atomic<int64_t> converged_ns_{-1};

  // Declared last: its destructor joins the thread while everything above
  // is still alive for in-flight tasks.
  sim::VirtualWorker worker_;
};

}  // namespace nvm::store
