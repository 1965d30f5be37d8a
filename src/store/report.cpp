#include "store/report.hpp"

#include <cstdio>

#include "common/units.hpp"

namespace nvm::store {

std::string StatusReport(AggregateStore& store,
                         std::span<const MountCacheStats> mounts) {
  std::string out;
  char line[256];

  uint64_t total_contrib = 0;
  uint64_t total_used = 0;
  size_t alive = 0;
  std::snprintf(line, sizeof(line),
                "%-4s %-6s %-6s %-10s %-10s %-12s %-12s %-8s\n", "id",
                "node", "state", "used", "free", "data-in", "data-out",
                "wear");
  out += line;
  for (size_t i = 0; i < store.num_benefactors(); ++i) {
    Benefactor& b = store.benefactor(i);
    total_contrib += b.contributed_bytes();
    total_used += b.bytes_used();
    if (b.alive()) ++alive;
    std::snprintf(line, sizeof(line),
                  "%-4d %-6d %-6s %-10s %-10s %-12s %-12s %-7.4f%%\n",
                  b.id(), b.node_id(), b.alive() ? "up" : "DOWN",
                  FormatBytes(b.bytes_used()).c_str(),
                  FormatBytes(b.bytes_free()).c_str(),
                  FormatBytes(b.data_bytes_in()).c_str(),
                  FormatBytes(b.data_bytes_out()).c_str(),
                  100.0 * b.ssd().wear_fraction());
    out += line;
  }
  std::snprintf(
      line, sizeof(line),
      "aggregate: %zu/%zu benefactors up, %s used of %s (%.1f%%), "
      "%llu files\n",
      alive, store.num_benefactors(), FormatBytes(total_used).c_str(),
      FormatBytes(total_contrib).c_str(),
      total_contrib > 0
          ? 100.0 * static_cast<double>(total_used) /
                static_cast<double>(total_contrib)
          : 0.0,
      static_cast<unsigned long long>(store.manager().num_files()));
  out += line;
  if (store.manager().lost_chunks() > 0) {
    std::snprintf(line, sizeof(line), "LOST CHUNKS: %llu (no surviving replica)\n",
                  static_cast<unsigned long long>(store.manager().lost_chunks()));
    out += line;
  }
  if (store.manager().config().ec()) {
    const Manager& mgr = store.manager();
    std::snprintf(
        line, sizeof(line),
        "ec: RS(%u,%u), %llu degraded reads, %llu fragments repaired, "
        "%s parity written\n",
        mgr.config().ec_k, mgr.config().ec_m,
        static_cast<unsigned long long>(mgr.ec_degraded_reads()),
        static_cast<unsigned long long>(mgr.ec_fragments_repaired()),
        FormatBytes(mgr.ec_parity_bytes()).c_str());
    out += line;
  }
  if (store.manager().corrupt_detected() > 0) {
    std::snprintf(
        line, sizeof(line),
        "CORRUPT replicas detected: %llu (%llu chunks healed)\n",
        static_cast<unsigned long long>(store.manager().corrupt_detected()),
        static_cast<unsigned long long>(store.manager().corrupt_repaired()));
    out += line;
  }

  if (const MaintenanceService* m = store.maintenance()) {
    const MaintenanceStats s = m->stats();
    std::snprintf(line, sizeof(line),
                  "maintenance: clock %.3f ms, %llu sweeps, %llu suspected, "
                  "%llu declared dead\n",
                  static_cast<double>(s.clock_ns) / 1e6,
                  static_cast<unsigned long long>(s.heartbeat_sweeps),
                  static_cast<unsigned long long>(s.benefactors_suspected),
                  static_cast<unsigned long long>(s.benefactors_declared_dead));
    out += line;
    std::snprintf(
        line, sizeof(line),
        "  repair: %llu reports, %llu enqueued, %llu queued now, "
        "%llu batches, %llu replicas recreated, %llu requeued, "
        "%llu capacity misses\n",
        static_cast<unsigned long long>(s.degraded_reports),
        static_cast<unsigned long long>(s.repairs_enqueued),
        static_cast<unsigned long long>(s.queue_depth),
        static_cast<unsigned long long>(s.repair_batches),
        static_cast<unsigned long long>(s.replicas_recreated),
        static_cast<unsigned long long>(s.repairs_requeued),
        static_cast<unsigned long long>(s.repair_capacity_misses));
    out += line;
    std::snprintf(line, sizeof(line),
                  "  repair time: %.3f ms busy, %.3f ms throttled idle, "
                  "converged at %.3f ms\n",
                  static_cast<double>(s.repair_busy_ns) / 1e6,
                  static_cast<double>(s.throttle_idle_ns) / 1e6,
                  static_cast<double>(s.converged_at_ns) / 1e6);
    out += line;
    std::snprintf(line, sizeof(line),
                  "  scrub: %llu passes, %llu orphans deleted, "
                  "%llu reservation fixes, %llu requeued\n",
                  static_cast<unsigned long long>(s.scrub_passes),
                  static_cast<unsigned long long>(s.scrub_orphans_deleted),
                  static_cast<unsigned long long>(s.scrub_reservation_fixes),
                  static_cast<unsigned long long>(s.scrub_requeued));
    out += line;
    std::snprintf(
        line, sizeof(line),
        "  verify: %llu chunks (%s) checksummed, %llu corrupt detected, "
        "%llu healed\n",
        static_cast<unsigned long long>(s.scrub_chunks_verified),
        FormatBytes(s.scrub_bytes_verified).c_str(),
        static_cast<unsigned long long>(s.corrupt_chunks_detected),
        static_cast<unsigned long long>(s.corrupt_chunks_repaired));
    out += line;
  }

  {
    const QosStats qs = store.qos().Snapshot();
    if (!qs.tenants.empty()) {
      std::snprintf(line, sizeof(line), "qos: %s, %zu tenants\n",
                    store.config().store.qos ? "on" : "off (accounting only)",
                    qs.tenants.size());
      out += line;
      for (const QosTenantStats& t : qs.tenants) {
        std::snprintf(
            line, sizeof(line),
            "  tenant %u: %llu reads p50/p99/p999 %.1f/%.1f/%.1f us, "
            "%llu writes p50/p99/p999 %.1f/%.1f/%.1f us\n",
            t.id, static_cast<unsigned long long>(t.reads),
            static_cast<double>(t.read_p50_ns) / 1e3,
            static_cast<double>(t.read_p99_ns) / 1e3,
            static_cast<double>(t.read_p999_ns) / 1e3,
            static_cast<unsigned long long>(t.writes),
            static_cast<double>(t.write_p50_ns) / 1e3,
            static_cast<double>(t.write_p99_ns) / 1e3,
            static_cast<double>(t.write_p999_ns) / 1e3);
        out += line;
        if (t.admitted > 0) {
          std::snprintf(
              line, sizeof(line),
              "    admissions %llu (%llu delayed, %.3f ms total delay), "
              "%s on the wire\n",
              static_cast<unsigned long long>(t.admitted),
              static_cast<unsigned long long>(t.delayed),
              static_cast<double>(t.delay_ns) / 1e6,
              FormatBytes(t.bytes).c_str());
          out += line;
        }
      }
    }
  }

  if (!mounts.empty()) {
    std::snprintf(line, sizeof(line),
                  "%-6s %-10s %-10s %-10s %-10s %-10s %-10s %-10s %-10s "
                  "%-10s\n",
                  "node", "resident", "hits", "fetched", "prefetch",
                  "pf-wasted", "evicted", "drop-dirty", "flush-bat",
                  "degraded");
    out += line;
    for (const MountCacheStats& m : mounts) {
      std::snprintf(line, sizeof(line),
                    "%-6d %-10llu %-10llu %-10llu %-10llu %-10llu %-10llu "
                    "%-10llu %-10llu %-10llu\n",
                    m.node, static_cast<unsigned long long>(m.resident_chunks),
                    static_cast<unsigned long long>(m.hit_chunks),
                    static_cast<unsigned long long>(m.fetched_chunks),
                    static_cast<unsigned long long>(m.prefetched_chunks),
                    static_cast<unsigned long long>(m.prefetch_wasted),
                    static_cast<unsigned long long>(m.evictions),
                    static_cast<unsigned long long>(m.dropped_dirty),
                    static_cast<unsigned long long>(m.flush_batches),
                    static_cast<unsigned long long>(m.degraded_writes));
      out += line;
    }
  }
  return out;
}

}  // namespace nvm::store
