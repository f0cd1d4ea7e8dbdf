// Cooperative fault scheduling (src/core/sched.h): the batched request
// surface over park-and-resume continuations. Covers the resume-once
// ticket protocol, demand-fill pin preservation across a park, terminal
// error delivery (device EIO and watchdog-abandoned reads), the blocking
// fallback, and a multi-thread torture mixing parked fills with eviction
// and msync churn. Also built as sched_test_tsan.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <set>
#include <thread>
#include <vector>

#include "src/core/aquila.h"
#include "src/core/mmio_region.h"
#include "src/core/sched.h"
#include "src/storage/fault_device.h"
#include "src/storage/nvme_device.h"
#include "src/storage/pmem_device.h"
#include "src/util/rng.h"

namespace aquila {
namespace {

Aquila::Options CoopOptions(uint64_t cache_pages) {
  Aquila::Options options;
  options.hypervisor.host_memory_bytes = 256ull << 20;
  options.cache.capacity_pages = cache_pages;
  options.cache.max_pages = cache_pages * 4;
  options.cache.eviction_batch = 64;
  options.coop_sched = true;
  return options;
}

MmioRequest TouchReq(MmioRequest::Kind kind, uint64_t offset, uint64_t tag) {
  MmioRequest req;
  req.kind = kind;
  req.offset = offset;
  req.user_tag = tag;
  return req;
}

// Submits `requests` and polls until every one completes; returns the
// completions indexed by user_tag order of arrival.
std::vector<MmioCompletion> RunBatch(MemoryMap* map, std::span<const MmioRequest> requests) {
  EXPECT_TRUE(map->SubmitBatch(requests).ok());
  std::vector<MmioCompletion> out;
  std::vector<MmioCompletion> buf(requests.size());
  while (out.size() < requests.size()) {
    size_t got = map->Poll(std::span(buf.data(), buf.size()));
    EXPECT_GT(got, 0u) << "Poll made no progress with requests outstanding";
    if (got == 0) {
      break;
    }
    out.insert(out.end(), buf.begin(), buf.begin() + got);
  }
  return out;
}

// --- Basic park/resume ----------------------------------------------------------

TEST(SchedTest, BatchOverNvmeParksAndResumes) {
  NvmeController::Options copts;
  copts.capacity_bytes = 64ull << 20;
  NvmeController ctrl(copts);
  NvmeDevice nvme(&ctrl);
  Aquila runtime(CoopOptions(4096));
  const uint64_t kBytes = 8ull << 20;
  DeviceBacking backing(&nvme, 0, kBytes);
  StatusOr<MemoryMap*> map = runtime.Map(&backing, kBytes, kProtRead);
  ASSERT_TRUE(map.ok());
  ASSERT_TRUE((*map)->Advise(0, kBytes, Advice::kRandom).ok());

  constexpr uint32_t kBatch = 8;
  std::vector<MmioRequest> batch;
  for (uint32_t i = 0; i < kBatch; i++) {
    batch.push_back(TouchReq(MmioRequest::Kind::kRead, i * kPageSize, i));
  }
  std::vector<MmioCompletion> done = RunBatch(*map, batch);
  ASSERT_EQ(done.size(), kBatch);
  std::set<uint64_t> tags;
  for (const MmioCompletion& c : done) {
    EXPECT_TRUE(c.status.ok());
    EXPECT_TRUE(c.faulted);  // cold cache: every touch was a major fault
    tags.insert(c.user_tag);
  }
  EXPECT_EQ(tags.size(), kBatch);  // each request completed exactly once

  ASSERT_NE(runtime.sched(), nullptr);
  EXPECT_GE(runtime.sched()->parked_total.load(), kBatch);  // all parked on fills
  EXPECT_GE(runtime.sched()->resumed_total.load(), kBatch);
  EXPECT_EQ(runtime.sched()->parked_depth.load(), 0);  // tables drained
  // Every batch fault was accounted exactly once as a major fault, and the
  // resumes as minor faults (the documented split accounting).
  EXPECT_EQ(runtime.fault_stats().major_faults.load(), kBatch);
  EXPECT_EQ(runtime.fault_stats().minor_faults.load(), kBatch);
  ASSERT_TRUE(runtime.Unmap(*map).ok());
}

// Several requests for the SAME page: one demand fill, the rest park as
// non-owners on the in-flight fill (park point a). Each must resume exactly
// once and complete exactly once.
TEST(SchedTest, SamePageWaitersResumeOnce) {
  NvmeController::Options copts;
  copts.capacity_bytes = 64ull << 20;
  NvmeController ctrl(copts);
  NvmeDevice nvme(&ctrl);
  Aquila runtime(CoopOptions(4096));
  const uint64_t kBytes = 4ull << 20;
  DeviceBacking backing(&nvme, 0, kBytes);
  StatusOr<MemoryMap*> map = runtime.Map(&backing, kBytes, kProtRead);
  ASSERT_TRUE(map.ok());
  ASSERT_TRUE((*map)->Advise(0, kBytes, Advice::kRandom).ok());

  constexpr uint32_t kBatch = 6;
  std::vector<MmioRequest> batch;
  for (uint32_t i = 0; i < kBatch; i++) {
    batch.push_back(TouchReq(MmioRequest::Kind::kRead, /*offset=*/64, i));
  }
  std::vector<MmioCompletion> done = RunBatch(*map, batch);
  ASSERT_EQ(done.size(), kBatch);
  std::set<uint64_t> tags;
  for (const MmioCompletion& c : done) {
    EXPECT_TRUE(c.status.ok());
    tags.insert(c.user_tag);
  }
  EXPECT_EQ(tags.size(), kBatch);
  // One device read served the whole batch.
  EXPECT_EQ(runtime.fault_stats().major_faults.load(), 1u);
  EXPECT_EQ(runtime.sched()->parked_depth.load(), 0);
  ASSERT_TRUE(runtime.Unmap(*map).ok());
}

// The demand-fill frame stays pinned (kFilling) across the park: the bytes
// that land after the resume must be the device's, even with eviction
// pressure recycling every unpinned frame in between.
TEST(SchedTest, PinPreservedAcrossParkUnderPressure) {
  PmemDevice::Options dopts;
  dopts.capacity_bytes = 16ull << 20;
  PmemDevice device(dopts);
  for (uint64_t i = 0; i < dopts.capacity_bytes; i++) {
    device.dax_base()[i] = static_cast<uint8_t>(i * 131 + 17);
  }
  // Cache far smaller than the map: every batch runs under eviction churn.
  Aquila runtime(CoopOptions(256));
  const uint64_t kBytes = 8ull << 20;
  DeviceBacking backing(&device, 0, kBytes);
  StatusOr<MemoryMap*> map = runtime.Map(&backing, kBytes, kProtRead);
  ASSERT_TRUE(map.ok());
  ASSERT_TRUE((*map)->Advise(0, kBytes, Advice::kRandom).ok());

  const uint64_t pages = kBytes / kPageSize;
  Rng rng(42);
  for (int round = 0; round < 50; round++) {
    std::vector<MmioRequest> batch;
    for (uint32_t i = 0; i < 8; i++) {
      batch.push_back(
          TouchReq(MmioRequest::Kind::kRead, rng.Uniform(pages) * kPageSize, i));
    }
    std::vector<MmioCompletion> done = RunBatch(*map, batch);
    ASSERT_EQ(done.size(), batch.size());
    for (const MmioCompletion& c : done) {
      ASSERT_TRUE(c.status.ok());
    }
    // Re-read one page through the bulk path and check the device pattern —
    // a frame recycled out from under a parked fill would corrupt this.
    uint64_t probe = batch[0].offset + 4000;
    uint8_t byte = 0;
    ASSERT_TRUE((*map)->Read(probe, std::span(&byte, 1)).ok());
    ASSERT_EQ(byte, static_cast<uint8_t>(probe * 131 + 17)) << "round " << round;
  }
  EXPECT_GT(runtime.fault_stats().evicted_pages.load(), 0u);  // pressure was real
  EXPECT_GT(runtime.sched()->parked_total.load(), 0u);
  ASSERT_TRUE(runtime.Unmap(*map).ok());
}

// --- Error delivery -------------------------------------------------------------

// A failed demand fill resolves the parked owner with the device's error
// status instead of crashing or wedging; after the device heals the same
// page faults in cleanly.
TEST(SchedTest, ErrorCompletionResumesWithStatus) {
  NvmeController::Options copts;
  copts.capacity_bytes = 64ull << 20;
  NvmeController ctrl(copts);
  NvmeDevice nvme(&ctrl);
  FaultInjectingDevice::Options fopts;
  fopts.read_error_rate = 1.0;
  FaultInjectingDevice faults(&nvme, fopts);
  Aquila runtime(CoopOptions(4096));
  const uint64_t kBytes = 4ull << 20;
  DeviceBacking backing(&faults, 0, kBytes);
  StatusOr<MemoryMap*> map = runtime.Map(&backing, kBytes, kProtRead);
  ASSERT_TRUE(map.ok());
  ASSERT_TRUE((*map)->Advise(0, kBytes, Advice::kRandom).ok());

  std::vector<MmioRequest> batch = {TouchReq(MmioRequest::Kind::kRead, 0, 1)};
  std::vector<MmioCompletion> done = RunBatch(*map, batch);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_FALSE(done[0].status.ok());
  EXPECT_TRUE(done[0].faulted);
  EXPECT_EQ(runtime.sched()->parked_depth.load(), 0);

  // Device heals: the same request now succeeds (nothing leaked or wedged).
  faults.set_read_error_rate(0.0);
  done = RunBatch(*map, batch);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_TRUE(done[0].status.ok());
  ASSERT_TRUE(runtime.Unmap(*map).ok());
}

// A hung read leg under the PR 7 watchdog: the parked owner receives the
// synthesized kDeadlineExceeded once the retry budget exhausts — it parks,
// then fails cleanly, and the engine keeps serving other pages.
TEST(SchedTest, WatchdogAbandonedFillFailsParkedOwnerCleanly) {
  NvmeController::Options copts;
  copts.capacity_bytes = 64ull << 20;
  NvmeController ctrl(copts);
  NvmeDevice nvme(&ctrl);
  FaultInjectingDevice::Options fopts;
  // Hang the first page's demand read and both watchdog retries of it
  // (max_attempts = 3), exhausting the retry budget.
  fopts.hang_reads = {1, 2, 3};
  FaultInjectingDevice faults(&nvme, fopts);
  Aquila::Options options = CoopOptions(4096);
  options.device_op_timeout_us = 30;  // arm the watchdog
  Aquila runtime(options);
  const uint64_t kBytes = 4ull << 20;
  DeviceBacking backing(&faults, 0, kBytes);
  StatusOr<MemoryMap*> map = runtime.Map(&backing, kBytes, kProtRead);
  ASSERT_TRUE(map.ok());
  ASSERT_TRUE((*map)->Advise(0, kBytes, Advice::kRandom).ok());

  std::vector<MmioRequest> batch = {TouchReq(MmioRequest::Kind::kRead, 0, 7)};
  std::vector<MmioCompletion> done = RunBatch(*map, batch);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_FALSE(done[0].status.ok());
  EXPECT_GT(faults.fault_stats().injected_hangs.load(), 0u);

  // The hang burned its schedule entries; once the health breaker's probe
  // window passes, other pages read fine and the first page recovers too —
  // the runtime never wedged. Successful traffic walks the health ladder
  // back down so teardown's flush is admitted.
  uint64_t healthy = 0;
  for (int round = 0; round < 64; round++) {
    batch = {TouchReq(MmioRequest::Kind::kRead, (1 + round % 16) * kPageSize, 100 + round)};
    done = RunBatch(*map, batch);
    ASSERT_EQ(done.size(), 1u);
    healthy += done[0].status.ok() ? 1 : 0;
  }
  EXPECT_GT(healthy, 32u);  // fail-fasts during the probe window are fine
  batch = {TouchReq(MmioRequest::Kind::kRead, 0, 9)};
  done = RunBatch(*map, batch);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_TRUE(done[0].status.ok());  // the originally hung page heals
  EXPECT_EQ(runtime.sched()->parked_depth.load(), 0);
  Status unmap_status = runtime.Unmap(*map);
  ASSERT_TRUE(unmap_status.ok()) << unmap_status.message();
}

// --- Fallbacks ------------------------------------------------------------------

// Without coop_sched the batched surface degrades to the synchronous loop
// (every request completes during SubmitBatch) with identical results.
TEST(SchedTest, SyncFallbackWithoutScheduler) {
  PmemDevice::Options dopts;
  dopts.capacity_bytes = 16ull << 20;
  PmemDevice device(dopts);
  Aquila::Options options = CoopOptions(1024);
  options.coop_sched = false;  // async pipeline on, scheduler off
  Aquila runtime(options);
  EXPECT_EQ(runtime.sched(), nullptr);
  const uint64_t kBytes = 2ull << 20;
  DeviceBacking backing(&device, 0, kBytes);
  StatusOr<MemoryMap*> map = runtime.Map(&backing, kBytes, kProtRead | kProtWrite);
  ASSERT_TRUE(map.ok());

  std::vector<MmioRequest> batch = {TouchReq(MmioRequest::Kind::kRead, 0, 0),
                                    TouchReq(MmioRequest::Kind::kWrite, kPageSize, 1),
                                    TouchReq(MmioRequest::Kind::kPrefetch, 2 * kPageSize, 2)};
  ASSERT_TRUE((*map)->SubmitBatch(batch).ok());
  std::vector<MmioCompletion> buf(8);
  size_t got = (*map)->Poll(std::span(buf.data(), buf.size()));
  ASSERT_EQ(got, 3u);
  for (size_t i = 0; i < got; i++) {
    EXPECT_TRUE(buf[i].status.ok()) << i;
    EXPECT_EQ(buf[i].user_tag, i);
  }
  EXPECT_TRUE(buf[0].faulted);
  EXPECT_TRUE(buf[1].faulted);
  EXPECT_FALSE(buf[2].faulted);  // prefetches never report faults
  EXPECT_EQ((*map)->Poll(std::span(buf.data(), buf.size())), 0u);  // drained
  ASSERT_TRUE(runtime.Unmap(*map).ok());
}

// Bulk (non-empty span) and prefetch requests ride the batch surface under
// the scheduler too (synchronously for now).
TEST(SchedTest, BulkAndPrefetchRequestsUnderScheduler) {
  PmemDevice::Options dopts;
  dopts.capacity_bytes = 16ull << 20;
  PmemDevice device(dopts);
  for (uint64_t i = 0; i < dopts.capacity_bytes; i++) {
    device.dax_base()[i] = static_cast<uint8_t>(i & 0xFF);
  }
  Aquila runtime(CoopOptions(1024));
  const uint64_t kBytes = 2ull << 20;
  DeviceBacking backing(&device, 0, kBytes);
  StatusOr<MemoryMap*> map = runtime.Map(&backing, kBytes, kProtRead | kProtWrite);
  ASSERT_TRUE(map.ok());

  std::vector<uint8_t> data(256, 0);
  std::vector<MmioRequest> batch(2);
  batch[0].kind = MmioRequest::Kind::kRead;
  batch[0].offset = 512;
  batch[0].data = std::span(data);
  batch[0].user_tag = 0;
  batch[1].kind = MmioRequest::Kind::kPrefetch;
  batch[1].offset = 4 * kPageSize;
  batch[1].user_tag = 1;
  std::vector<MmioCompletion> done = RunBatch(*map, batch);
  ASSERT_EQ(done.size(), 2u);
  EXPECT_TRUE(done[0].status.ok());
  EXPECT_TRUE(done[1].status.ok());
  for (size_t i = 0; i < data.size(); i++) {
    ASSERT_EQ(data[i], static_cast<uint8_t>((512 + i) & 0xFF));
  }
  ASSERT_TRUE(runtime.Unmap(*map).ok());
}

// --- Torture --------------------------------------------------------------------

// Multi-thread batches over per-thread mappings sharing one small cache:
// parked demand fills race eviction (which recycles unpinned frames and
// submits async writebacks), msync drains, and madvise drops, from every
// core at once. Data integrity proves pins survive parks; completion
// accounting proves resume-once. Also the TSan variant's main course.
TEST(SchedTortureTest, ParkedFillsVsEvictionAndMsyncChurn) {
  constexpr int kThreads = 4;
  constexpr uint64_t kSliceBytes = 2ull << 20;
  PmemDevice::Options dopts;
  dopts.capacity_bytes = kThreads * kSliceBytes;
  PmemDevice device(dopts);
  for (uint64_t i = 0; i < dopts.capacity_bytes; i++) {
    device.dax_base()[i] = static_cast<uint8_t>(i * 197 + 5);
  }
  // Cache holds a quarter of the combined slices: constant eviction.
  Aquila runtime(CoopOptions(kThreads * kSliceBytes / kPageSize / 4));

  std::atomic<bool> corrupt{false};
  std::atomic<uint64_t> completed{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      runtime.EnterThread();
      DeviceBacking backing(&device, t * kSliceBytes, kSliceBytes);
      StatusOr<MemoryMap*> map =
          runtime.Map(&backing, kSliceBytes, kProtRead | kProtWrite);
      ASSERT_TRUE(map.ok());
      ASSERT_TRUE((*map)->Advise(0, kSliceBytes, Advice::kRandom).ok());
      const uint64_t pages = kSliceBytes / kPageSize;
      Rng rng(t * 7919 + 3);
      std::vector<MmioRequest> batch;
      std::vector<MmioCompletion> buf(16);
      for (int round = 0; round < 150; round++) {
        batch.clear();
        const uint32_t n = 1 + rng.Uniform(8);
        for (uint32_t i = 0; i < n; i++) {
          bool write = rng.Uniform(4) == 0;
          batch.push_back(TouchReq(write ? MmioRequest::Kind::kWrite
                                         : MmioRequest::Kind::kRead,
                                   rng.Uniform(pages) * kPageSize, round * 100 + i));
        }
        ASSERT_TRUE((*map)->SubmitBatch(std::span(batch)).ok());
        size_t got = 0;
        while (got < batch.size()) {
          size_t k = (*map)->Poll(std::span(buf.data(), buf.size()));
          ASSERT_GT(k, 0u);
          for (size_t i = 0; i < k; i++) {
            if (!buf[i].status.ok()) {
              corrupt.store(true);
            }
          }
          got += k;
        }
        completed.fetch_add(got);
        // Shared-pattern probe through the blocking path: any frame recycled
        // from under a parked fill shows up as a corrupt byte here.
        uint64_t probe = rng.Uniform(pages) * kPageSize + 2048;
        uint8_t byte = 0;
        ASSERT_TRUE((*map)->Read(probe, std::span(&byte, 1)).ok());
        uint64_t dev_off = t * kSliceBytes + probe;
        // Write touches increment the first byte of the page, far from 2048.
        if (byte != static_cast<uint8_t>(dev_off * 197 + 5)) {
          corrupt.store(true);
        }
        if (round % 32 == 31) {
          ASSERT_TRUE((*map)->Sync(0, kSliceBytes).ok());
        }
        if (round % 48 == 47) {
          ASSERT_TRUE((*map)->Advise(0, kSliceBytes / 2, Advice::kDontNeed).ok());
        }
      }
      ASSERT_TRUE(runtime.Unmap(*map).ok());
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_FALSE(corrupt.load());
  EXPECT_GT(completed.load(), 0u);
  EXPECT_GT(runtime.sched()->parked_total.load(), 0u);
  EXPECT_EQ(runtime.sched()->parked_depth.load(), 0);
  EXPECT_GT(runtime.fault_stats().evicted_pages.load(), 0u);
}

}  // namespace
}  // namespace aquila
