#include "nvmalloc/region.hpp"

#include <algorithm>
#include <cstring>

#include "common/log.hpp"
#include "sim/clock.hpp"

namespace nvm {

uint64_t PagePool::resident_pages() const {
  std::lock_guard<std::mutex> lock(const_cast<std::mutex&>(mutex_));
  return resident_;
}

PinnedSpan& PinnedSpan::operator=(PinnedSpan&& other) noexcept {
  Release();
  region_ = other.region_;
  data_ = other.data_;
  size_ = other.size_;
  first_page_ = other.first_page_;
  last_page_ = other.last_page_;
  other.region_ = nullptr;
  return *this;
}

void PinnedSpan::Release() {
  if (region_ != nullptr) {
    region_->Unpin(first_page_, last_page_);
    region_ = nullptr;
  }
}

NvmRegion::NvmRegion(fuselite::MountPoint& mount, PagePool& pool,
                     fuselite::FileHandle file, uint64_t size, bool shared,
                     int64_t page_fault_ns)
    : mount_(mount),
      pool_(pool),
      file_(file),
      size_(size),
      shared_(shared),
      page_fault_ns_(page_fault_ns),
      num_pages_(CeilDiv(size, kPageBytes)),
      buffer_(std::make_unique_for_overwrite<uint8_t[]>(
          RoundUp(size, kPageBytes))),
      resident_(num_pages_),
      dirty_(num_pages_),
      pin_counts_(num_pages_, 0) {}

NvmRegion::~NvmRegion() {
  // Residency entries referencing this region must not dangle in the pool.
  Invalidate();
}

void NvmRegion::Unpin(uint32_t first_page, uint32_t last_page) {
  std::lock_guard<std::mutex> lock(pool_.mutex_);
  for (uint32_t p = first_page; p <= last_page; ++p) {
    NVM_CHECK(pin_counts_[p] > 0);
    --pin_counts_[p];
  }
}

Status NvmRegion::WriteBackPageLocked(sim::VirtualClock& clock,
                                      uint32_t page) {
  if (!dirty_.Test(page)) return OkStatus();
  const uint64_t offset = static_cast<uint64_t>(page) * kPageBytes;
  const uint64_t len = std::min(kPageBytes, size_ - offset);
  NVM_RETURN_IF_ERROR(mount_.cache().Write(
      clock, file_.id(), offset, {buffer_.get() + offset, len}));
  dirty_.Clear(page);
  stats_.bytes_written_back += len;
  return OkStatus();
}

StatusOr<bool> NvmRegion::EvictOnePageLocked(sim::VirtualClock& clock) {
  // Scan the FIFO for the oldest evictable (unpinned, still resident)
  // page.  Pinned entries rotate to the back; if everything resident is
  // pinned the pool overcommits for the moment, like mlock'd memory.
  size_t scanned = 0;
  const size_t limit = pool_.fifo_.size();
  while (scanned++ < limit && !pool_.fifo_.empty()) {
    const PagePool::Entry victim = pool_.fifo_.front();
    pool_.fifo_.pop_front();
    NvmRegion* r = victim.region;
    if (!r->resident_.Test(victim.page)) {
      continue;  // stale entry (page already invalidated)
    }
    if (r->pin_counts_[victim.page] > 0) {
      pool_.fifo_.push_back(victim);
      continue;
    }
    NVM_RETURN_IF_ERROR(r->WriteBackPageLocked(clock, victim.page));
    r->resident_.Clear(victim.page);
    ++r->stats_.pages_evicted;
    pool_.evictions_.Add(1);
    NVM_CHECK(pool_.resident_ > 0);
    --pool_.resident_;
    return true;
  }
  return false;  // all pinned: transient overcommit
}

Status NvmRegion::FaultPageLocked(sim::VirtualClock& clock, uint32_t page) {
  while (pool_.resident_ >= pool_.capacity_pages_) {
    NVM_ASSIGN_OR_RETURN(bool evicted, EvictOnePageLocked(clock));
    if (!evicted) break;  // everything pinned: overcommit for now
  }
  const uint64_t offset = static_cast<uint64_t>(page) * kPageBytes;
  const uint64_t len = std::min(kPageBytes, size_ - offset);
  clock.Advance(page_fault_ns_);
  NVM_RETURN_IF_ERROR(mount_.cache().Read(clock, file_.id(), offset,
                                          {buffer_.get() + offset, len}));
  resident_.Set(page);
  pool_.fifo_.push_back({this, page});
  ++pool_.resident_;
  ++stats_.page_faults;
  stats_.bytes_faulted_in += len;
  pool_.faults_.Add(1);
  return OkStatus();
}

StatusOr<PinnedSpan> NvmRegion::Pin(uint64_t offset, uint64_t len,
                                    bool for_write) {
  if (offset + len > size_) {
    return OutOfRange("Pin(" + std::to_string(offset) + "," +
                      std::to_string(len) + ") beyond region of " +
                      FormatBytes(size_));
  }
  const auto first = static_cast<uint32_t>(offset / kPageBytes);
  const auto last = len == 0
                        ? first
                        : static_cast<uint32_t>((offset + len - 1) /
                                                kPageBytes);
  auto& clock = sim::CurrentClock();

  std::lock_guard<std::mutex> lock(pool_.mutex_);
  // Pin each page as soon as it is faulted: a page faulted early in this
  // call must not be evicted while later pages of the same span are still
  // being brought in (its contents would be frozen prematurely).
  for (uint32_t p = first; p <= last; ++p) {
    if (len > 0 && !resident_.Test(p)) {
      Status s = FaultPageLocked(clock, p);
      if (!s.ok()) {
        for (uint32_t q = first; q < p; ++q) --pin_counts_[q];
        return s;
      }
    }
    if (len > 0 && for_write) dirty_.Set(p);
    ++pin_counts_[p];
  }
  return PinnedSpan(this, buffer_.get() + offset, len, first, last);
}

namespace {
// Bulk transfers pin at most this much at a time, bounding how far the
// page pool can transiently overcommit for large Read/Write calls.
constexpr uint64_t kBulkWindowBytes = 64 * NvmRegion::kPageBytes;
}  // namespace

Status NvmRegion::Read(uint64_t offset, std::span<uint8_t> out) {
  uint64_t done = 0;
  while (done < out.size()) {
    const uint64_t n = std::min<uint64_t>(kBulkWindowBytes,
                                          out.size() - done);
    NVM_ASSIGN_OR_RETURN(PinnedSpan span, Pin(offset + done, n, false));
    std::memcpy(out.data() + done, span.data(), n);
    done += n;
  }
  return OkStatus();
}

Status NvmRegion::Write(uint64_t offset, std::span<const uint8_t> in) {
  uint64_t done = 0;
  while (done < in.size()) {
    const uint64_t n = std::min<uint64_t>(kBulkWindowBytes,
                                          in.size() - done);
    NVM_ASSIGN_OR_RETURN(PinnedSpan span, Pin(offset + done, n, true));
    std::memcpy(span.data(), in.data() + done, n);
    done += n;
  }
  return OkStatus();
}

Status NvmRegion::Sync() {
  auto& clock = sim::CurrentClock();
  {
    std::lock_guard<std::mutex> lock(pool_.mutex_);
    for (size_t p = dirty_.FindNextSet(0); p < num_pages_;
         p = dirty_.FindNextSet(p + 1)) {
      NVM_RETURN_IF_ERROR(
          WriteBackPageLocked(clock, static_cast<uint32_t>(p)));
    }
  }
  return mount_.cache().Flush(clock, file_.id());
}

void NvmRegion::Invalidate() {
  std::lock_guard<std::mutex> lock(pool_.mutex_);
  uint64_t released = 0;
  for (size_t p = resident_.FindNextSet(0); p < num_pages_;
       p = resident_.FindNextSet(p + 1)) {
    resident_.Clear(p);
    ++released;
  }
  dirty_.ClearAll();
  // Purge this region's FIFO entries so eviction never dereferences us
  // after destruction.
  auto& fifo = pool_.fifo_;
  fifo.erase(std::remove_if(fifo.begin(), fifo.end(),
                            [this](const PagePool::Entry& e) {
                              return e.region == this;
                            }),
             fifo.end());
  NVM_CHECK(pool_.resident_ >= released);
  pool_.resident_ -= released;
}

RegionStats NvmRegion::stats() const {
  std::lock_guard<std::mutex> lock(pool_.mutex_);
  return stats_;
}

}  // namespace nvm
