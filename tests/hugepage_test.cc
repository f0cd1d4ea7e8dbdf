// Transparent 2 MB huge-page mmio (DESIGN.md §14): aligned-run freelist
// carving, guest-PT huge leaves, fault-around, density-triggered promotion,
// and the demotion paths (dirty divergence, kDontNeed, eviction pressure).
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "src/cache/freelist.h"
#include "src/core/aquila.h"
#include "src/core/mmio_region.h"
#include "src/mem/page_table.h"
#include "src/storage/pmem_device.h"

namespace aquila {
namespace {

constexpr uint64_t kSpanBytes = kHugePage2M;
constexpr uint64_t kSpanPages = kHugePage2M / kPageSize;  // 512

// --- TwoLevelFreelist aligned runs -------------------------------------------------

// Carving with a misaligned anchor: runs must start where the *global* page
// number (anchor + frame) is 2 MB-aligned, leftovers become singles, and
// ApproxFree accounts for both without drift across AllocRun/FreeRun.
TEST(FreelistRunTest, MisalignedAnchorCarvesAlignedRuns) {
  constexpr uint32_t kFrames = 2048;
  constexpr uint64_t kAnchor = 300;  // global page number of frame 0
  TwoLevelFreelist::Options options;
  options.carve_runs = true;
  TwoLevelFreelist fl(kFrames, options);
  fl.AddFrames(0, kFrames, kAnchor);
  EXPECT_EQ(fl.ApproxFree(), kFrames);

  // lead = 212 singles, then 3 runs (212, 724, 1236), then 300 tail singles.
  std::vector<FrameId> runs;
  FrameId first;
  while ((first = fl.AllocRun(0)) != kInvalidFrame) {
    EXPECT_EQ((kAnchor + first) % kRunFrames, 0u) << first;
    runs.push_back(first);
    EXPECT_EQ(fl.ApproxFree(), kFrames - runs.size() * kRunFrames);
  }
  EXPECT_EQ(runs.size(), 3u);
  EXPECT_EQ(fl.stats().run_allocs.load(), 3u);

  // Singles (lead + tail) are still allocatable without touching runs.
  uint32_t singles = 0;
  while (fl.Alloc(0) != kInvalidFrame) {
    singles++;
  }
  EXPECT_EQ(singles, kFrames - 3 * kRunFrames);
  EXPECT_EQ(fl.stats().runs_broken.load(), 0u);  // runs were already out
  EXPECT_EQ(fl.ApproxFree(), 0u);

  for (FrameId r : runs) {
    fl.FreeRun(0, r);
  }
  EXPECT_EQ(fl.ApproxFree(), 3u * kRunFrames);
}

// 4K pressure breaks an intact run into singles exactly once and ApproxFree
// stays exact through the break.
TEST(FreelistRunTest, SinglePressureBreaksRun) {
  constexpr uint32_t kFrames = kRunFrames;  // one aligned run, no singles
  TwoLevelFreelist::Options options;
  options.carve_runs = true;
  TwoLevelFreelist fl(kFrames, options);
  fl.AddFrames(0, kFrames, 0);
  EXPECT_EQ(fl.ApproxFree(), kFrames);

  FrameId f = fl.Alloc(0);
  ASSERT_NE(f, kInvalidFrame);
  EXPECT_EQ(fl.stats().runs_broken.load(), 1u);
  EXPECT_EQ(fl.ApproxFree(), kFrames - 1);
  EXPECT_EQ(fl.AllocRun(0), kInvalidFrame);  // the run is gone
  fl.Free(0, f);
  EXPECT_EQ(fl.ApproxFree(), kFrames);
}

// --- PageTable huge leaves ---------------------------------------------------------

TEST(PageTableHugeTest, InstallLookupSplit) {
  PageTable pt;
  const uint64_t base = kHugePage2M * 4;
  const FrameId run = 1024;

  // Promotion protocol: the 4K entries come out first, then the huge leaf
  // goes in (displacing the emptied leaf table).
  ASSERT_TRUE(pt.Install(base + 5 * kPageSize, (run + 5ull) << kPageShift, Pte::kAccessed));
  EXPECT_NE(pt.Remove(base + 5 * kPageSize), 0u);
  ASSERT_TRUE(pt.InstallHuge(base, static_cast<uint64_t>(run) << kPageShift, Pte::kAccessed));
  EXPECT_FALSE(pt.InstallHuge(base, static_cast<uint64_t>(run) << kPageShift, Pte::kAccessed));

  // Lookup synthesizes a per-4K view: contiguous GPAs, kHuge tagged, never
  // writable (huge leaves are read-only by construction).
  for (uint64_t i : {0ull, 1ull, 255ull, 511ull}) {
    uint64_t pte = pt.Lookup(base + i * kPageSize);
    ASSERT_TRUE(Pte::Present(pte)) << i;
    EXPECT_TRUE(Pte::Huge(pte)) << i;
    EXPECT_FALSE(Pte::Writable(pte)) << i;
    EXPECT_EQ(Pte::Gpa(pte), (run + i) << kPageShift) << i;
  }
  // No 4K slot exists under the leaf, and per-page Remove refuses to tear it.
  EXPECT_EQ(pt.WalkExisting(base + 7 * kPageSize), nullptr);
  EXPECT_EQ(pt.Remove(base + 7 * kPageSize), 0u);
  EXPECT_TRUE(Pte::Present(pt.Lookup(base + 7 * kPageSize)));

  // Split rebuilds bit-identical 4K translations (minus the kHuge tag).
  uint64_t huge = pt.SplitHuge(base);
  ASSERT_TRUE(Pte::Huge(huge));
  EXPECT_EQ(pt.SplitHuge(base), 0u);  // idempotent
  for (uint64_t i : {0ull, 511ull}) {
    uint64_t pte = pt.Lookup(base + i * kPageSize);
    ASSERT_TRUE(Pte::Present(pte)) << i;
    EXPECT_FALSE(Pte::Huge(pte)) << i;
    EXPECT_EQ(Pte::Gpa(pte), (run + i) << kPageShift) << i;
  }
  EXPECT_NE(pt.Remove(base + 9 * kPageSize), 0u);  // 4K ops work again
}

// --- End-to-end promotion/demotion -------------------------------------------------

class HugePageTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kDeviceBytes = 32ull << 20;
  static constexpr uint64_t kCachePages = 2048;  // 8 MB cache = 4 aligned runs

  HugePageTest() {
    PmemDevice::Options dev_options;
    dev_options.capacity_bytes = kDeviceBytes;
    device_ = std::make_unique<PmemDevice>(dev_options);
    uint8_t* dax = device_->dax_base();
    for (uint64_t i = 0; i < kDeviceBytes; i++) {
      dax[i] = PatternAt(i);
    }
  }

  // Fresh runtime per test so each can pick its own promotion knobs. The
  // default 4 MB EPT chunks keep runs hardware-realizable (2 MB-aligned
  // inside one chunk).
  void MakeRuntime(bool huge, uint32_t threshold, uint32_t fault_around) {
    Aquila::Options options;
    options.hypervisor.host_memory_bytes = 256ull << 20;
    options.cache.capacity_pages = kCachePages;
    options.cache.max_pages = kCachePages * 4;
    options.cache.eviction_batch = 64;
    options.cache.freelist.core_queue_threshold = 64;
    options.cache.freelist.move_batch = 32;
    options.huge_pages = huge;
    options.huge_promote_threshold = threshold;
    options.fault_around_pages = fault_around;
    runtime_ = std::make_unique<Aquila>(options);
  }

  static uint8_t PatternAt(uint64_t offset) { return static_cast<uint8_t>(offset * 131 + 17); }

  // Verifies `bytes` of the mapping against the device pattern.
  void VerifyPattern(MemoryMap* map, uint64_t offset, uint64_t bytes) {
    std::vector<uint8_t> buf(4096);
    for (uint64_t at = offset; at < offset + bytes; at += buf.size()) {
      ASSERT_TRUE(map->Read(at, std::span(buf)).ok());
      for (size_t i = 0; i < buf.size(); i++) {
        ASSERT_EQ(buf[i], PatternAt(at + i)) << at + i;
      }
    }
  }

  uint64_t LookupPte(MemoryMap* map, uint64_t file_page) {
    auto* m = static_cast<AquilaMap*>(map);
    return runtime_->page_table().Lookup((m->vma().start_page + file_page) * kPageSize);
  }

  std::unique_ptr<PmemDevice> device_;
  std::unique_ptr<Aquila> runtime_;
};

// huge_pages off: no span trackers, no promotions, behavior identical to the
// pre-huge runtime.
TEST_F(HugePageTest, OffModeNeverPromotes) {
  MakeRuntime(false, 1, 16);
  DeviceBacking backing(device_.get(), 0, 4 * kSpanBytes);
  StatusOr<MemoryMap*> map = runtime_->Map(&backing, 4 * kSpanBytes, kProtRead);
  ASSERT_TRUE(map.ok());
  ASSERT_TRUE((*map)->Advise(0, 4 * kSpanBytes, Advice::kSequential).ok());
  VerifyPattern(*map, 0, 4 * kSpanBytes);
  EXPECT_EQ(runtime_->huge_stats().promotions.load(), 0u);
  EXPECT_EQ(runtime_->huge_stats().fault_around_mapped.load(), 0u);
  EXPECT_EQ(runtime_->huge_stats().runs_carved.load(), 0u);
  ASSERT_TRUE(runtime_->Unmap(*map).ok());
}

// Fault-around (promotion disabled via threshold 0): readahead publishes
// frames, fault-around installs their PTEs under the same fault, and the
// readahead mark advances past them — no page is ever filled twice.
TEST_F(HugePageTest, FaultAroundMapsReadaheadNeighbors) {
  const uint64_t kScanPages = 1024;

  // Baseline: fault-around off. Every readahead frame costs a later fault.
  MakeRuntime(true, 0, 0);
  uint64_t base_minors;
  {
    DeviceBacking backing(device_.get(), 0, kScanPages * kPageSize);
    StatusOr<MemoryMap*> map = runtime_->Map(&backing, kScanPages * kPageSize, kProtRead);
    ASSERT_TRUE(map.ok());
    ASSERT_TRUE((*map)->Advise(0, kScanPages * kPageSize, Advice::kSequential).ok());
    for (uint64_t p = 0; p < kScanPages; p++) {
      (*map)->TouchRead(p * kPageSize);
    }
    base_minors = runtime_->fault_stats().minor_faults.load();
    EXPECT_GT(base_minors, 0u);
    EXPECT_EQ(runtime_->huge_stats().fault_around_mapped.load(), 0u);
    ASSERT_TRUE(runtime_->Unmap(*map).ok());
  }

  MakeRuntime(true, 0, 16);
  DeviceBacking backing(device_.get(), 0, kScanPages * kPageSize);
  StatusOr<MemoryMap*> map = runtime_->Map(&backing, kScanPages * kPageSize, kProtRead);
  ASSERT_TRUE(map.ok());
  ASSERT_TRUE((*map)->Advise(0, kScanPages * kPageSize, Advice::kSequential).ok());
  for (uint64_t p = 0; p < kScanPages; p++) {
    (*map)->TouchRead(p * kPageSize);
  }
  const auto& fs = runtime_->fault_stats();
  EXPECT_GT(runtime_->huge_stats().fault_around_mapped.load(), 0u);
  // Fault-around absorbed the minor faults the baseline paid.
  EXPECT_LT(fs.minor_faults.load(), base_minors);
  // No double prefetch: each scanned page was filled at most once, by a
  // major fault or by one readahead window (+ one trailing window).
  EXPECT_LE(fs.major_faults.load() + fs.readahead_pages.load(),
            kScanPages + Aquila::kReadaheadPages);
  VerifyPattern(*map, 0, kScanPages * kPageSize);
  EXPECT_EQ(runtime_->huge_stats().promotions.load(), 0u);  // threshold 0
  ASSERT_TRUE(runtime_->Unmap(*map).ok());
}

// Density-triggered promotion: after `threshold` resident pages the span
// collapses into one huge leaf, and the rest of the 2 MB is fault-free.
TEST_F(HugePageTest, PromotesAfterThresholdAndServesSpanFaultFree) {
  MakeRuntime(true, 64, 0);
  DeviceBacking backing(device_.get(), 0, 2 * kSpanBytes);
  StatusOr<MemoryMap*> map = runtime_->Map(&backing, 2 * kSpanBytes, kProtRead);
  ASSERT_TRUE(map.ok());

  for (uint64_t p = 0; p < 64; p++) {
    EXPECT_TRUE((*map)->TouchRead(p * kPageSize).faulted) << p;
  }
  EXPECT_EQ(runtime_->huge_stats().promotions.load(), 1u);
  EXPECT_EQ(runtime_->huge_stats().runs_carved.load(), 1u);
  EXPECT_TRUE(Pte::Huge(LookupPte(*map, 0)));
  EXPECT_TRUE(Pte::Huge(LookupPte(*map, kSpanPages - 1)));

  uint64_t majors = runtime_->fault_stats().major_faults.load();
  for (uint64_t p = 64; p < kSpanPages; p++) {
    EXPECT_FALSE((*map)->TouchRead(p * kPageSize).faulted) << p;
  }
  EXPECT_EQ(runtime_->fault_stats().major_faults.load(), majors);
  VerifyPattern(*map, 0, kSpanBytes);

  // The second span was never touched: still 4K, not promoted.
  EXPECT_EQ(runtime_->huge_stats().promotions.load(), 1u);
  EXPECT_FALSE(Pte::Present(LookupPte(*map, kSpanPages)));
  ASSERT_TRUE(runtime_->Unmap(*map).ok());
}

// kSequential advice drops the density requirement to a single resident
// page: the very first touch of a span promotes it.
TEST_F(HugePageTest, SequentialAdvicePromotesOnFirstTouch) {
  MakeRuntime(true, 64, 8);
  DeviceBacking backing(device_.get(), 0, 2 * kSpanBytes);
  StatusOr<MemoryMap*> map = runtime_->Map(&backing, 2 * kSpanBytes, kProtRead);
  ASSERT_TRUE(map.ok());
  ASSERT_TRUE((*map)->Advise(0, 2 * kSpanBytes, Advice::kSequential).ok());

  EXPECT_TRUE((*map)->TouchRead(0).faulted);
  EXPECT_EQ(runtime_->huge_stats().promotions.load(), 1u);
  uint64_t majors = runtime_->fault_stats().major_faults.load();
  for (uint64_t p = 1; p < kSpanPages; p++) {
    EXPECT_FALSE((*map)->TouchRead(p * kPageSize).faulted) << p;
  }
  EXPECT_EQ(runtime_->fault_stats().major_faults.load(), majors);
  VerifyPattern(*map, 0, kSpanBytes);
  ASSERT_TRUE(runtime_->Unmap(*map).ok());
}

// Dirty divergence: huge leaves are read-only, so the first write takes a
// fault that demotes the span back to 4K and dirties only that one page.
TEST_F(HugePageTest, WriteDemotesSpanAndDirtiesOnePage) {
  MakeRuntime(true, 16, 0);
  DeviceBacking backing(device_.get(), 0, kSpanBytes);
  StatusOr<MemoryMap*> map = runtime_->Map(&backing, kSpanBytes, kProtRead | kProtWrite);
  ASSERT_TRUE(map.ok());
  for (uint64_t p = 0; p < 16; p++) {
    (*map)->TouchRead(p * kPageSize);
  }
  ASSERT_EQ(runtime_->huge_stats().promotions.load(), 1u);

  const uint64_t kWriteAt = 100 * kPageSize + 13;
  std::vector<uint8_t> val = {0xAA, 0xBB, 0xCC};
  ASSERT_TRUE((*map)->Write(kWriteAt, std::span(val)).ok());
  EXPECT_EQ(runtime_->huge_stats().demotions.load(), 1u);
  EXPECT_FALSE(Pte::Huge(LookupPte(*map, 0)));
  EXPECT_TRUE(Pte::Writable(LookupPte(*map, 100)));   // the written page
  EXPECT_FALSE(Pte::Writable(LookupPte(*map, 101)));  // its neighbor stayed clean

  // msync pushes exactly that page's bytes; the rest of the span still
  // matches the device pattern.
  ASSERT_TRUE((*map)->Sync(0, kSpanBytes).ok());
  EXPECT_EQ(device_->dax_base()[kWriteAt], 0xAA);
  EXPECT_EQ(device_->dax_base()[kWriteAt + 3], PatternAt(kWriteAt + 3));
  VerifyPattern(*map, 0, 100 * kPageSize);
  ASSERT_TRUE(runtime_->Unmap(*map).ok());
}

// Partial kDontNeed inside a huge span demotes first, then drops only the
// advised pages; the rest of the span survives and re-reads correctly.
TEST_F(HugePageTest, DontNeedDemotesBeforeDroppingPages) {
  MakeRuntime(true, 16, 0);
  DeviceBacking backing(device_.get(), 0, kSpanBytes);
  StatusOr<MemoryMap*> map = runtime_->Map(&backing, kSpanBytes, kProtRead);
  ASSERT_TRUE(map.ok());
  for (uint64_t p = 0; p < 16; p++) {
    (*map)->TouchRead(p * kPageSize);
  }
  ASSERT_EQ(runtime_->huge_stats().promotions.load(), 1u);

  ASSERT_TRUE((*map)->Advise(0, 64 * kPageSize, Advice::kDontNeed).ok());
  EXPECT_EQ(runtime_->huge_stats().demotions.load(), 1u);
  EXPECT_FALSE(Pte::Present(LookupPte(*map, 0)));    // dropped
  EXPECT_TRUE(Pte::Present(LookupPte(*map, 64)));    // survived the split
  EXPECT_FALSE(Pte::Huge(LookupPte(*map, 64)));
  VerifyPattern(*map, 0, kSpanBytes);  // dropped pages refault fine
  ASSERT_TRUE(runtime_->Unmap(*map).ok());
}

// Under eviction pressure the sweep demotes huge spans before reclaiming
// their frames (per-page Remove cannot tear a huge leaf).
TEST_F(HugePageTest, EvictionPressureDemotesSpans) {
  MakeRuntime(true, 8, 0);
  const uint64_t kMapBytes = 16ull << 20;  // 2x the cache
  DeviceBacking backing(device_.get(), 0, kMapBytes);
  StatusOr<MemoryMap*> map = runtime_->Map(&backing, kMapBytes, kProtRead);
  ASSERT_TRUE(map.ok());

  for (uint64_t p = 0; p < kMapBytes / kPageSize; p++) {
    (*map)->TouchRead(p * kPageSize);
  }
  EXPECT_GT(runtime_->huge_stats().promotions.load(), 0u);
  EXPECT_GT(runtime_->huge_stats().demotions.load(), 0u);
  EXPECT_GT(runtime_->fault_stats().evicted_pages.load(), 0u);
  VerifyPattern(*map, 0, kSpanBytes);
  ASSERT_TRUE(runtime_->Unmap(*map).ok());
}

// Promote/demote/repromote cycles preserve data, including bytes written
// while the span was 4K.
TEST_F(HugePageTest, DataIntegrityThroughPromoteDemoteCycles) {
  MakeRuntime(true, 16, 0);
  DeviceBacking backing(device_.get(), 0, kSpanBytes);
  StatusOr<MemoryMap*> map = runtime_->Map(&backing, kSpanBytes, kProtRead | kProtWrite);
  ASSERT_TRUE(map.ok());

  for (int cycle = 0; cycle < 3; cycle++) {
    if (cycle == 0) {
      for (uint64_t p = 0; p < 16; p++) {
        (*map)->TouchRead(p * kPageSize);
      }
    } else {
      // Promotion is fault-driven and every page is still resident after
      // the previous demotion: drop one page so a fresh fault re-runs the
      // density check over the (still-dense) span.
      ASSERT_TRUE((*map)->Advise(0, kPageSize, Advice::kDontNeed).ok());
      EXPECT_TRUE((*map)->TouchRead(0).faulted);
    }
    EXPECT_EQ(runtime_->huge_stats().promotions.load(),
              static_cast<uint64_t>(cycle) + 1)
        << cycle;
    // Write the pattern value back: exercises demote + dirty without
    // changing the expected contents.
    const uint64_t at = (200 + cycle) * kPageSize;
    std::vector<uint8_t> val(kPageSize);
    for (uint64_t i = 0; i < kPageSize; i++) {
      val[i] = PatternAt(at + i);
    }
    ASSERT_TRUE((*map)->Write(at, std::span(val)).ok());
    ASSERT_TRUE((*map)->Sync(0, kSpanBytes).ok());
    VerifyPattern(*map, 0, kSpanBytes);
  }
  EXPECT_GE(runtime_->huge_stats().demotions.load(), 3u);
  ASSERT_TRUE(runtime_->Unmap(*map).ok());
}

// Concurrent readers and writers racing promotions and demotions across two
// spans: the TryLock-only promoter and the spinning demoter must neither
// deadlock nor lose data. Writers store the pattern value, so every read —
// before, during, or after a transition — must see the pattern.
TEST_F(HugePageTest, ConcurrentTouchPromoteDemoteTorture) {
  MakeRuntime(true, 16, 8);
  DeviceBacking backing(device_.get(), 0, 2 * kSpanBytes);
  StatusOr<MemoryMap*> map = runtime_->Map(&backing, 2 * kSpanBytes, kProtRead | kProtWrite);
  ASSERT_TRUE(map.ok());
  MemoryMap* m = *map;

  // Promote both spans deterministically before the race starts — once a
  // write dirties a span it stays 4K until msync, so promotions during the
  // mixed phase are not guaranteed.
  for (uint64_t span = 0; span < 2; span++) {
    for (uint64_t p = 0; p < 16; p++) {
      m->TouchRead((span * kSpanPages + p) * kPageSize);
    }
  }
  ASSERT_EQ(runtime_->huge_stats().promotions.load(), 2u);

  const int kThreads = 4;
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      uint64_t seed = 0x9e3779b97f4a7c15ull * (t + 1);
      std::vector<uint8_t> buf(64);
      for (int i = 0; i < 3000 && !failed.load(std::memory_order_relaxed); i++) {
        seed = seed * 6364136223846793005ull + 1442695040888963407ull;
        uint64_t page = (seed >> 33) % (2 * kSpanPages);
        uint64_t at = page * kPageSize + (seed & 0xFC0);
        if ((seed & 0xF) == 0) {
          for (size_t j = 0; j < buf.size(); j++) {
            buf[j] = PatternAt(at + j);
          }
          if (!m->Write(at, std::span(buf)).ok()) {
            failed.store(true);
          }
        } else {
          if (!m->Read(at, std::span(buf)).ok()) {
            failed.store(true);
            continue;
          }
          for (size_t j = 0; j < buf.size(); j++) {
            if (buf[j] != PatternAt(at + j)) {
              failed.store(true);
            }
          }
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_FALSE(failed.load());
  VerifyPattern(m, 0, 2 * kSpanBytes);
  // The first write into each (initially huge) span demoted it.
  EXPECT_GE(runtime_->huge_stats().promotions.load(), 2u);
  EXPECT_GT(runtime_->huge_stats().demotions.load(), 0u);
  ASSERT_TRUE(runtime_->Unmap(*map).ok());
}

}  // namespace
}  // namespace aquila
