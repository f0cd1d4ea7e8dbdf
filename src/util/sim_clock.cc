#include "src/util/sim_clock.h"

#include <cstdio>

namespace aquila {

const char* CostCategoryName(CostCategory c) {
  switch (c) {
    case CostCategory::kTrap:
      return "trap";
    case CostCategory::kVmExit:
      return "vmexit";
    case CostCategory::kPageTable:
      return "page_table";
    case CostCategory::kCacheMgmt:
      return "cache_mgmt";
    case CostCategory::kDirtyTracking:
      return "dirty_tracking";
    case CostCategory::kTlbShootdown:
      return "tlb_shootdown";
    case CostCategory::kDeviceIo:
      return "device_io";
    case CostCategory::kMemcpy:
      return "memcpy";
    case CostCategory::kSyscall:
      return "syscall";
    case CostCategory::kUserWork:
      return "user_work";
    case CostCategory::kIdle:
      return "idle";
    case CostCategory::kCategories:
      break;
  }
  return "unknown";
}

uint64_t CostBreakdown::Total() const {
  uint64_t total = 0;
  for (uint64_t c : cycles) {
    total += c;
  }
  return total;
}

CostBreakdown& CostBreakdown::operator+=(const CostBreakdown& other) {
  for (size_t i = 0; i < cycles.size(); i++) {
    cycles[i] += other.cycles[i];
  }
  return *this;
}

CostBreakdown CostBreakdown::operator-(const CostBreakdown& other) const {
  CostBreakdown result = *this;
  for (size_t i = 0; i < cycles.size(); i++) {
    result.cycles[i] -= other.cycles[i];
  }
  return result;
}

std::string CostBreakdown::ToString() const {
  std::string out;
  char buf[64];
  for (size_t i = 0; i < cycles.size(); i++) {
    if (cycles[i] == 0) {
      continue;
    }
    std::snprintf(buf, sizeof(buf), "%s%s=%llu", out.empty() ? "" : " ",
                  CostCategoryName(static_cast<CostCategory>(i)),
                  static_cast<unsigned long long>(cycles[i]));
    out += buf;
  }
  return out;
}

SerializedResource::SerializedResource(uint64_t window_cycles)
    : window_(window_cycles),
      buckets_(std::make_unique<std::atomic<uint64_t>[]>(kBuckets)) {
  for (size_t i = 0; i < kBuckets; i++) {
    buckets_[i].store(Pack(0, 0), std::memory_order_relaxed);
  }
}

uint64_t SerializedResource::Acquire(SimClock& clock, CostCategory service_category,
                                     uint64_t service_cycles) {
  uint64_t arrival = clock.Now();
  uint64_t done = Reserve(arrival, service_cycles);
  // done >= arrival + service (Reserve clamps); the surplus is queueing.
  clock.AdvanceTo(done - service_cycles);
  clock.Charge(service_category, service_cycles);
  return done;
}

uint64_t SerializedResource::Reserve(uint64_t arrival, uint64_t service_cycles) {
  uint64_t remaining = service_cycles;
  uint64_t last_portion_end = 0;
  uint64_t epoch = arrival / window_;
  while (remaining > 0) {
    std::atomic<uint64_t>& bucket = buckets_[epoch % kBuckets];
    uint64_t packed = bucket.load(std::memory_order_acquire);
    uint64_t cur_epoch = EpochOf(packed);
    uint64_t cur_used = UsedOf(packed);
    if (cur_epoch > epoch) {
      // The ring already wrapped past this window (another thread's clock is
      // far ahead); treat the window as fully consumed.
      epoch++;
      continue;
    }
    if (cur_epoch < epoch) {
      // Stale window: reset and take in one CAS.
      uint64_t take = remaining < window_ ? remaining : window_;
      if (!bucket.compare_exchange_weak(packed, Pack(epoch, take),
                                        std::memory_order_acq_rel)) {
        continue;  // raced; re-read this bucket
      }
      last_portion_end = epoch * window_ + take;
      remaining -= take;
      epoch++;
      continue;
    }
    uint64_t space = window_ - cur_used;
    if (space == 0) {
      epoch++;
      continue;
    }
    uint64_t take = remaining < space ? remaining : space;
    if (!bucket.compare_exchange_weak(packed, Pack(epoch, cur_used + take),
                                      std::memory_order_acq_rel)) {
      continue;
    }
    last_portion_end = epoch * window_ + cur_used + take;
    remaining -= take;
    epoch++;
  }
  // Completion can never precede the uncontended arrival + service.
  uint64_t completion =
      last_portion_end > arrival + service_cycles ? last_portion_end : arrival + service_cycles;
  queueing_.fetch_add(completion - arrival - service_cycles, std::memory_order_relaxed);
  service_.fetch_add(service_cycles, std::memory_order_relaxed);
  acquisitions_.fetch_add(1, std::memory_order_relaxed);
  return completion;
}

void SerializedResource::Reset() {
  for (size_t i = 0; i < kBuckets; i++) {
    buckets_[i].store(Pack(0, 0), std::memory_order_relaxed);
  }
  queueing_.store(0, std::memory_order_relaxed);
  service_.store(0, std::memory_order_relaxed);
  acquisitions_.store(0, std::memory_order_relaxed);
}

}  // namespace aquila
