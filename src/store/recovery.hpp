// Cold-start recovery report for the manager metadata plane.
//
// Manager::Recover (store/recovery.cpp) rebuilds the namespace, file
// tables and chunk shards from the newest valid checkpoint plus a WAL
// replay, then reconciles the result against the live benefactor
// inventories: per-replica write-time `{has_crc, crc}` metadata decides
// conflicts, so a chunk either comes back with bytes that verify or is
// surfaced as lost — never with wrong bytes.  This struct is what the
// restart path hands back to callers (and what the crash-schedule tests
// assert on).
#pragma once

#include <cstdint>

namespace nvm::store {

struct RecoveryReport {
  // --- what the durable image contained ---
  bool used_checkpoint = false;   // a valid checkpoint slot was found
  uint64_t checkpoint_seq = 0;    // WAL seq the checkpoint covered
  uint64_t records_replayed = 0;  // WAL records applied after the checkpoint
  bool torn_tail = false;         // replay stopped at a torn/corrupt record

  // --- what came back ---
  uint64_t files_recovered = 0;
  uint64_t chunks_recovered = 0;  // live chunk handles after reconciliation

  // --- reconciliation actions ---
  // Replicas dropped because their stored bytes diverged from the
  // authoritative (or adopted) checksum.
  uint64_t replicas_dropped = 0;
  // Chunks whose authoritative checksum was adopted from agreeing replica
  // inventories (a write that completed on the benefactors but whose
  // completion record died with the crash).
  uint64_t crc_adopted = 0;
  // COW slots rolled back to their previous version because the fresh
  // version's data never landed anywhere.
  uint64_t cow_rolled_back = 0;
  // Chunks with no recoverable replica anywhere: published as empty
  // location lists (reads fail; they never serve wrong bytes).
  uint64_t chunks_lost = 0;
  // Benefactor-side cleanup by the scrubber's inventory sweep: stored
  // chunks nothing references any more, and reservation drift corrected,
  // in chunk slots (rounded up per benefactor), as ScrubResult counts it.
  uint64_t orphans_deleted = 0;
  uint64_t reservation_fixes = 0;
};

}  // namespace nvm::store
