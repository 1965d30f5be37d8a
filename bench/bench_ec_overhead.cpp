// Redundancy overhead: replication-2 vs RS(4,2) under a STREAM write.
//
// The paper's store keeps one copy of everything; our redundancy layer
// offers two ways to survive a benefactor loss, and this bench pins the
// cost constants that separate them.  A STREAM-style sequential writer
// pushes the same logical dataset through both modes over the same
// 8-benefactor cluster and we measure
//   (a) write amplification — device bytes ingested per logical byte
//       (replication writes every chunk twice: 2.0x; RS(4,2) writes
//       4 data + 2 parity fragments of chunk/4 bytes each: 1.5x),
//   (b) space overhead — device bytes held per logical byte at rest
//       (same constants: the store keeps what it wrote), and
//   (c) the achieved write bandwidth in virtual time, where erasure
//       coding's smaller device footprint is partly offset by fanning
//       each chunk out as six sub-chunk fragment writes, and
//   (d) the same dataset rewritten in WriteChunks windows of 32 and read
//       back in ReadChunks batches of 8 — the run RPCs, which carry one
//       request per benefactor per window or batch in both modes, and
//   (e) random 4 KiB pages, one at a time: page reads through the
//       page-range read (a replica is one whole chunk, a stripe reads only
//       the fragment that holds the page), single-dirty-page writes
//       (replication ships the page to each replica; RS(4,2) reads the
//       stripe, re-encodes it and rewrites all k+m fragments — the
//       read-modify-write a partial-stripe write would cut), and the same
//       page reads again shipping only the page (the holder still reads
//       and verifies its whole replica or fragment) — what a random cache
//       miss costs.
// Both datasets are read back byte-exact afterwards so the overhead
// numbers describe stores that actually work.
//
// `--quick` shrinks the dataset for CI smoke runs; every SHAPE check
// still executes.
#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "sim/clock.hpp"
#include "store/store.hpp"

using namespace nvm;
using namespace nvm::bench;

namespace {

constexpr uint64_t kChunk = 64_KiB;
constexpr int kBenefactors = 8;

constexpr uint32_t kWriteWindow = 32;  // chunks per WriteChunks window
constexpr uint32_t kReadBatch = 8;     // chunks per ReadChunks batch
constexpr int kPageOps = 256;          // random page reads, then writes

uint32_t g_chunks = 512;  // 32 MiB logical dataset (128 with --quick)

struct ModeResult {
  double write_gbps = 0;  // logical bytes / virtual write time
  double write_amp = 0;   // device bytes ingested / logical bytes
  double space_amp = 0;   // device bytes at rest / logical bytes
  double write_w32_gbps = 0;  // the same, rewritten in windows of 32
  double read_b8_gbps = 0;    // logical bytes / batched read time
  double page_read_us = 0;     // median virtual latency of a page read
  double page_read_bytes = 0;  // client bytes fetched per page read
  double page_write_us = 0;    // median virtual latency of a page write
  double page_write_amp = 0;   // device bytes ingested per page byte
  double page_ship_us = 0;     // median latency of a pages-only page read
  double page_ship_bytes = 0;  // client bytes fetched per pages-only read
};

double MedianUs(std::vector<int64_t> ns) {
  std::sort(ns.begin(), ns.end());
  return static_cast<double>(ns[ns.size() / 2]) / 1e3;
}

ModeResult RunMode(bool ec) {
  store::AggregateStoreConfig sc;
  sc.store.chunk_bytes = kChunk;
  sc.store.replication = 2;
  if (ec) {
    sc.store.redundancy = store::RedundancyMode::kErasure;
    sc.store.ec_k = 4;
    sc.store.ec_m = 2;
  }
  for (int b = 0; b < kBenefactors; ++b) {
    sc.benefactor_nodes.push_back(b + 1);
  }
  sc.contribution_bytes = 256_MiB;
  sc.manager_node = 1;
  net::ClusterConfig cc;
  cc.num_nodes = kBenefactors + 1;
  net::Cluster cluster(cc);
  store::AggregateStore store(cluster, sc);
  sim::CurrentClock().Reset();

  store::StoreClient& client = store.ClientForNode(0);
  sim::VirtualClock clock(0);
  auto created = client.Create(clock, ec ? "/ec" : "/repl");
  NVM_CHECK(created.ok());
  const store::FileId id = *created;
  const uint64_t logical = static_cast<uint64_t>(g_chunks) * kChunk;
  NVM_CHECK(client.Fallocate(clock, id, logical).ok());

  std::vector<uint8_t> data(logical);
  Xoshiro256 rng(23);
  for (auto& b : data) b = static_cast<uint8_t>(rng.Next());

  // STREAM write: every chunk, sequentially, full pages.
  Bitmap all(kChunk / client.config().page_bytes);
  all.SetAll();
  const int64_t w0 = clock.now();
  for (uint32_t i = 0; i < g_chunks; ++i) {
    NVM_CHECK(client.WriteChunkPages(clock, id, i, all,
                                     {data.data() + i * kChunk, kChunk})
                  .ok());
  }
  const double write_secs = static_cast<double>(clock.now() - w0) / 1e9;

  uint64_t ingested = 0;
  uint64_t at_rest = 0;
  for (int b = 0; b < kBenefactors; ++b) {
    const store::Benefactor& ben = store.benefactor(static_cast<size_t>(b));
    ingested += ben.data_bytes_in();
    at_rest += ben.bytes_used();
  }

  // Byte-exact read-back: the cheaper mode still has to return the data.
  std::vector<uint8_t> buf(kChunk);
  for (uint32_t i = 0; i < g_chunks; ++i) {
    NVM_CHECK(client.ReadChunk(clock, id, i, buf).ok());
    NVM_CHECK(std::memcmp(buf.data(), data.data() + i * kChunk, kChunk) == 0,
              "read-back mismatch");
  }

  // Windowed rewrite: the whole dataset again, kWriteWindow chunks per
  // WriteChunks call (the fuselite flush-window path).
  const int64_t ww0 = clock.now();
  for (uint32_t first = 0; first < g_chunks; first += kWriteWindow) {
    std::vector<store::StoreClient::ChunkWrite> writes;
    for (uint32_t i = first; i < std::min(g_chunks, first + kWriteWindow);
         ++i) {
      writes.push_back({i, &all, {data.data() + i * kChunk, kChunk}});
    }
    NVM_CHECK(client.WriteChunks(clock, id, writes).ok());
    for (const auto& w : writes) NVM_CHECK(w.status.ok());
  }
  const double window_secs = static_cast<double>(clock.now() - ww0) / 1e9;

  // Batched read-back: kReadBatch chunks per ReadChunks call, each batch
  // joined at its last arrival before the next is issued.
  std::vector<uint8_t> batch(kReadBatch * kChunk);
  const int64_t rb0 = clock.now();
  for (uint32_t first = 0; first < g_chunks; first += kReadBatch) {
    std::vector<store::StoreClient::ChunkFetch> fetches;
    for (uint32_t i = first; i < std::min(g_chunks, first + kReadBatch);
         ++i) {
      fetches.push_back({i, {batch.data() + (i - first) * kChunk, kChunk}});
    }
    NVM_CHECK(client.ReadChunks(clock, id, fetches).ok());
    int64_t done = clock.now();
    for (const auto& f : fetches) {
      NVM_CHECK(f.status.ok());
      NVM_CHECK(std::memcmp(f.out.data(), data.data() + f.index * kChunk,
                            kChunk) == 0,
                "batched read-back mismatch");
      done = std::max(done, f.ready_at);
    }
    clock.AdvanceTo(done);
  }
  const double batch_secs = static_cast<double>(clock.now() - rb0) / 1e9;

  // Random pages, one at a time on the same clock.  Reads go through the
  // page-range read and must land the page byte-exact; each write dirties
  // one page of its chunk's image.
  const uint64_t page = client.config().page_bytes;
  const uint32_t pages = client.config().pages_per_chunk();
  Xoshiro256 pick(29);
  std::vector<int64_t> read_ns;
  const uint64_t fetched0 = client.bytes_fetched();
  for (int op = 0; op < kPageOps; ++op) {
    const auto i = static_cast<uint32_t>(pick.NextBelow(g_chunks));
    const auto p = static_cast<size_t>(pick.NextBelow(pages));
    const int64_t t = clock.now();
    auto got = client.ReadChunkPages(clock, id, i, p, p, buf);
    NVM_CHECK(got.ok() && got->first <= p && p <= got->last);
    read_ns.push_back(clock.now() - t);
    NVM_CHECK(std::memcmp(buf.data() + p * page,
                          data.data() + i * kChunk + p * page, page) == 0,
              "page read mismatch");
  }
  const uint64_t page_fetched = client.bytes_fetched() - fetched0;

  const auto device_in = [&] {
    uint64_t n = 0;
    for (int b = 0; b < kBenefactors; ++b) {
      n += store.benefactor(static_cast<size_t>(b)).data_bytes_in();
    }
    return n;
  };
  std::vector<int64_t> write_ns;
  const uint64_t in0 = device_in();
  for (int op = 0; op < kPageOps; ++op) {
    const auto i = static_cast<uint32_t>(pick.NextBelow(g_chunks));
    const auto p = static_cast<size_t>(pick.NextBelow(pages));
    uint8_t* image = data.data() + i * kChunk;
    for (uint64_t b = 0; b < page; ++b) {
      image[p * page + b] = static_cast<uint8_t>(pick.Next());
    }
    Bitmap one(pages);
    one.Set(p);
    const int64_t t = clock.now();
    NVM_CHECK(client.WriteChunkPages(clock, id, i, one, {image, kChunk}).ok());
    write_ns.push_back(clock.now() - t);
  }
  const uint64_t page_ingested = device_in() - in0;
  for (uint32_t i = 0; i < g_chunks; ++i) {
    NVM_CHECK(client.ReadChunk(clock, id, i, buf).ok());
    NVM_CHECK(std::memcmp(buf.data(), data.data() + i * kChunk, kChunk) == 0,
              "read-back after page writes mismatch");
  }

  // The page reads again (same seed, same pages), shipping only the page:
  // exactly that page lands, byte-exact.
  Xoshiro256 repick(29);
  std::vector<int64_t> ship_ns;
  const uint64_t shipped0 = client.bytes_fetched();
  for (int op = 0; op < kPageOps; ++op) {
    const auto i = static_cast<uint32_t>(repick.NextBelow(g_chunks));
    const auto p = static_cast<size_t>(repick.NextBelow(pages));
    const int64_t t = clock.now();
    auto got = client.ReadChunkPages(clock, id, i, p, p, buf,
                                     store::StoreClient::Ship::kPages);
    NVM_CHECK(got.ok() && got->first == p && got->last == p);
    ship_ns.push_back(clock.now() - t);
    NVM_CHECK(std::memcmp(buf.data() + p * page,
                          data.data() + i * kChunk + p * page, page) == 0,
              "pages-only read mismatch");
  }
  const uint64_t page_shipped = client.bytes_fetched() - shipped0;

  ModeResult r;
  r.write_gbps = static_cast<double>(logical) / write_secs / 1e9;
  r.write_w32_gbps = static_cast<double>(logical) / window_secs / 1e9;
  r.read_b8_gbps = static_cast<double>(logical) / batch_secs / 1e9;
  r.write_amp =
      static_cast<double>(ingested) / static_cast<double>(logical);
  r.space_amp =
      static_cast<double>(at_rest) / static_cast<double>(logical);
  r.page_read_us = MedianUs(read_ns);
  r.page_read_bytes = static_cast<double>(page_fetched) / kPageOps;
  r.page_write_us = MedianUs(write_ns);
  r.page_write_amp =
      static_cast<double>(page_ingested) / static_cast<double>(kPageOps * page);
  r.page_ship_us = MedianUs(ship_ns);
  r.page_ship_bytes = static_cast<double>(page_shipped) / kPageOps;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") quick = true;
  }
  if (quick) g_chunks = 128;  // 8 MiB logical dataset for CI smoke runs

  Title("Redundancy overhead — replication-2 vs RS(4,2)",
        Fmt("%u MiB STREAM write over %d benefactors; device bytes per "
            "logical byte, in flight and at rest",
            static_cast<unsigned>(
                (static_cast<uint64_t>(g_chunks) * kChunk) >> 20),
            kBenefactors));

  const ModeResult repl = RunMode(/*ec=*/false);
  const ModeResult ec = RunMode(/*ec=*/true);

  Table t({"mode", "Write (GB/s)", "Write w=32 (GB/s)", "Read b=8 (GB/s)",
           "Write amplification", "Space overhead", "Survives"});
  t.AddRow({"replication r=2", Fmt("%.3f", repl.write_gbps),
            Fmt("%.3f", repl.write_w32_gbps), Fmt("%.3f", repl.read_b8_gbps),
            Fmt("%.3fx", repl.write_amp), Fmt("%.3fx", repl.space_amp),
            "any 1 loss"});
  t.AddRow({"RS(4,2)", Fmt("%.3f", ec.write_gbps),
            Fmt("%.3f", ec.write_w32_gbps), Fmt("%.3f", ec.read_b8_gbps),
            Fmt("%.3fx", ec.write_amp), Fmt("%.3fx", ec.space_amp),
            "any 2 losses"});
  t.Print();
  Note("RS(4,2) stores (k+m)/k = 1.5 device bytes per logical byte yet "
       "tolerates two losses; replication pays 2.0x for one.");
  Note("Windows and batches ride the run RPCs: one request per benefactor "
       "per call, so a window of stripes stops paying the per-request "
       "device latency once per fragment.");

  Table pt({"mode", "Page read (us)", "Fetched/read (KiB)",
            "Pages-only read (us)", "Shipped/read (KiB)", "Page write (us)",
            "Device bytes/page byte"});
  pt.AddRow({"replication r=2", Fmt("%.1f", repl.page_read_us),
             Fmt("%.1f", repl.page_read_bytes / 1024),
             Fmt("%.1f", repl.page_ship_us),
             Fmt("%.1f", repl.page_ship_bytes / 1024),
             Fmt("%.1f", repl.page_write_us),
             Fmt("%.2fx", repl.page_write_amp)});
  pt.AddRow({"RS(4,2)", Fmt("%.1f", ec.page_read_us),
             Fmt("%.1f", ec.page_read_bytes / 1024),
             Fmt("%.1f", ec.page_ship_us),
             Fmt("%.1f", ec.page_ship_bytes / 1024),
             Fmt("%.1f", ec.page_write_us), Fmt("%.2fx", ec.page_write_amp)});
  pt.Print();
  Note("%d random 4 KiB pages each: a stripe page read fetches the one "
       "fragment that holds the page; a pages-only read ships the page "
       "alone from the verified replica or fragment; a stripe page write "
       "rewrites all k+m fragments after reading the stripe.",
       kPageOps);

  bool ok = true;
  ok &= Shape(repl.write_amp >= 1.9 && repl.write_amp <= 2.1,
              "replication-2 ingests ~2 device bytes per logical byte "
              "(%.3f)",
              repl.write_amp);
  ok &= Shape(ec.write_amp >= 1.4 && ec.write_amp <= 1.6,
              "RS(4,2) ingests ~(k+m)/k = 1.5 device bytes per logical "
              "byte (%.3f)",
              ec.write_amp);
  ok &= Shape(ec.write_amp < repl.write_amp,
              "erasure coding writes less than replication (%.3f < %.3f)",
              ec.write_amp, repl.write_amp);
  ok &= Shape(repl.space_amp >= 1.9 && repl.space_amp <= 2.1,
              "replication-2 holds ~2x the logical bytes at rest (%.3f)",
              repl.space_amp);
  ok &= Shape(ec.space_amp >= 1.4 && ec.space_amp <= 1.6,
              "RS(4,2) holds ~1.5x the logical bytes at rest (%.3f)",
              ec.space_amp);
  ok &= Shape(ec.write_w32_gbps >= 1.5 * ec.write_gbps,
              "RS(4,2) windows of %u write >= 1.5x its one-chunk rate "
              "(%.3f vs %.3f GB/s)",
              kWriteWindow, ec.write_w32_gbps, ec.write_gbps);
  ok &= Shape(ec.read_b8_gbps >= 0.9 * repl.read_b8_gbps,
              "RS(4,2) batches of %u read >= 0.9x replication's rate "
              "(%.3f vs %.3f GB/s)",
              kReadBatch, ec.read_b8_gbps, repl.read_b8_gbps);
  ok &= Shape(ec.page_read_bytes == static_cast<double>(kChunk / 4),
              "an RS(4,2) page read fetches exactly chunk/k bytes (%.0f)",
              ec.page_read_bytes);
  ok &= Shape(ec.page_read_us < repl.page_read_us,
              "RS(4,2) page reads beat replication's median (%.1f vs %.1f "
              "us)",
              ec.page_read_us, repl.page_read_us);
  const auto one_page = static_cast<double>(store::StoreConfig{}.page_bytes);
  ok &= Shape(repl.page_ship_bytes == one_page &&
                  ec.page_ship_bytes == one_page,
              "a pages-only read ships exactly one page for both codes "
              "(%.0f and %.0f bytes)",
              repl.page_ship_bytes, ec.page_ship_bytes);
  ok &= Shape(repl.page_ship_us < repl.page_read_us &&
                  ec.page_ship_us < ec.page_read_us,
              "shipping only the page beats shipping the whole unit "
              "(r=2 %.1f vs %.1f us, RS(4,2) %.1f vs %.1f us)",
              repl.page_ship_us, repl.page_read_us, ec.page_ship_us,
              ec.page_read_us);

  JsonReport json("ec_overhead");
  json.Add("quick", quick);
  json.Add("repl_write_gbps", repl.write_gbps);
  json.Add("repl_write_amp", repl.write_amp);
  json.Add("repl_space_amp", repl.space_amp);
  json.Add("ec_write_gbps", ec.write_gbps);
  json.Add("ec_write_amp", ec.write_amp);
  json.Add("ec_space_amp", ec.space_amp);
  json.Add("repl_write_w32_gbps", repl.write_w32_gbps);
  json.Add("repl_read_b8_gbps", repl.read_b8_gbps);
  json.Add("ec_write_w32_gbps", ec.write_w32_gbps);
  json.Add("ec_read_b8_gbps", ec.read_b8_gbps);
  json.Add("repl_page_read_us", repl.page_read_us);
  json.Add("repl_page_read_bytes", repl.page_read_bytes);
  json.Add("repl_page_write_us", repl.page_write_us);
  json.Add("repl_page_write_amp", repl.page_write_amp);
  json.Add("ec_page_read_us", ec.page_read_us);
  json.Add("ec_page_read_bytes", ec.page_read_bytes);
  json.Add("ec_page_write_us", ec.page_write_us);
  json.Add("ec_page_write_amp", ec.page_write_amp);
  json.Add("repl_page_ship_us", repl.page_ship_us);
  json.Add("repl_page_ship_bytes", repl.page_ship_bytes);
  json.Add("ec_page_ship_us", ec.page_ship_us);
  json.Add("ec_page_ship_bytes", ec.page_ship_bytes);
  json.Add("shape_ok", ok);
  json.Print();
  return ok ? 0 : 1;
}
