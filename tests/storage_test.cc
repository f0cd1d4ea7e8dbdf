// Unit tests for src/storage: NT memcpy, pmem device, NVMe controller and
// queue pairs, host-mediated access costs.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "src/storage/async_io.h"
#include "src/storage/host_device.h"
#include "src/storage/nt_memcpy.h"
#include "src/storage/nvme_device.h"
#include "src/storage/pmem_device.h"
#include "src/util/bitops.h"

namespace aquila {
namespace {

TEST(NtMemcpyTest, CopiesExactly) {
  alignas(64) uint8_t src[kPageSize], dst[kPageSize];
  for (size_t i = 0; i < kPageSize; i++) {
    src[i] = static_cast<uint8_t>(i * 31 + 7);
  }
  std::memset(dst, 0, sizeof(dst));
  NtMemcpy(dst, src, kPageSize);
  EXPECT_EQ(std::memcmp(dst, src, kPageSize), 0);
}

TEST(NtMemcpyTest, CopyPageFlavors) {
  alignas(64) uint8_t src[kPageSize], dst[kPageSize];
  std::memset(src, 0x5A, sizeof(src));
  std::memset(dst, 0, sizeof(dst));
  CopyPage(dst, src, CopyFlavor::kPlain);
  EXPECT_EQ(std::memcmp(dst, src, kPageSize), 0);
  std::memset(dst, 0, sizeof(dst));
  CopyPage(dst, src, CopyFlavor::kStreaming);
  EXPECT_EQ(std::memcmp(dst, src, kPageSize), 0);
}

class PmemTest : public ::testing::Test {
 protected:
  PmemTest() {
    PmemDevice::Options options;
    options.capacity_bytes = 16ull << 20;
    dev_ = std::make_unique<PmemDevice>(options);
  }
  std::unique_ptr<PmemDevice> dev_;
  Vcpu vcpu_{0};
};

TEST_F(PmemTest, RoundTrip) {
  std::vector<uint8_t> out(kPageSize, 0xCD);
  std::vector<uint8_t> in(kPageSize, 0);
  ASSERT_TRUE(dev_->Write(vcpu_, 8 * kPageSize, std::span<const uint8_t>(out)).ok());
  ASSERT_TRUE(dev_->Read(vcpu_, 8 * kPageSize, std::span(in)).ok());
  EXPECT_EQ(in, out);
  EXPECT_EQ(dev_->stats().writes.load(), 1u);
  EXPECT_EQ(dev_->stats().reads.load(), 1u);
}

TEST_F(PmemTest, OutOfRangeRejected) {
  std::vector<uint8_t> buf(kPageSize);
  EXPECT_FALSE(dev_->Read(vcpu_, dev_->capacity_bytes(), std::span(buf)).ok());
  EXPECT_FALSE(dev_->Write(vcpu_, dev_->capacity_bytes() - 1, std::span<const uint8_t>(buf)).ok());
}

TEST_F(PmemTest, DaxWindowSeesBlockWrites) {
  std::vector<uint8_t> out(kPageSize, 0x77);
  ASSERT_TRUE(dev_->Write(vcpu_, 0, std::span<const uint8_t>(out)).ok());
  EXPECT_EQ(dev_->dax_base()[100], 0x77);
}

TEST_F(PmemTest, ChargesMemcpyAndDevice) {
  std::vector<uint8_t> buf(kPageSize);
  uint64_t before_io = vcpu_.clock().Breakdown()[CostCategory::kDeviceIo];
  uint64_t before_cp = vcpu_.clock().Breakdown()[CostCategory::kMemcpy];
  ASSERT_TRUE(dev_->Read(vcpu_, 0, std::span(buf)).ok());
  const CostModel& costs = GlobalCostModel();
  EXPECT_GT(vcpu_.clock().Breakdown()[CostCategory::kDeviceIo], before_io);
  // Streaming copy + FPU save/restore (§3.3).
  EXPECT_EQ(vcpu_.clock().Breakdown()[CostCategory::kMemcpy] - before_cp,
            costs.memcpy_4k_nt + costs.fpu_save_restore);
}

TEST_F(PmemTest, PlainFlavorCostsMore) {
  PmemDevice::Options options;
  options.capacity_bytes = 1ull << 20;
  options.copy_flavor = CopyFlavor::kPlain;
  PmemDevice plain(options);
  Vcpu vcpu(1);
  std::vector<uint8_t> buf(kPageSize);
  ASSERT_TRUE(plain.Read(vcpu, 0, std::span(buf)).ok());
  EXPECT_EQ(vcpu.clock().Breakdown()[CostCategory::kMemcpy],
            GlobalCostModel().memcpy_4k_plain);
}

class NvmeTest : public ::testing::Test {
 protected:
  NvmeTest() {
    NvmeController::Options options;
    options.capacity_bytes = 64ull << 20;
    ctrl_ = std::make_unique<NvmeController>(options);
    dev_ = std::make_unique<NvmeDevice>(ctrl_.get());
  }
  std::unique_ptr<NvmeController> ctrl_;
  std::unique_ptr<NvmeDevice> dev_;
  Vcpu vcpu_{0};
};

TEST_F(NvmeTest, SyncRoundTrip) {
  std::vector<uint8_t> out(kPageSize);
  for (size_t i = 0; i < out.size(); i++) {
    out[i] = static_cast<uint8_t>(i);
  }
  std::vector<uint8_t> in(kPageSize, 0);
  ASSERT_TRUE(dev_->Write(vcpu_, 4 * kPageSize, std::span<const uint8_t>(out)).ok());
  ASSERT_TRUE(dev_->Read(vcpu_, 4 * kPageSize, std::span(in)).ok());
  EXPECT_EQ(in, out);
}

TEST_F(NvmeTest, ReadChargesLatency) {
  std::vector<uint8_t> buf(kPageSize);
  ASSERT_TRUE(dev_->Read(vcpu_, 0, std::span(buf)).ok());
  // A sync 4K read sees at least the media latency.
  EXPECT_GE(vcpu_.clock().Breakdown()[CostCategory::kDeviceIo],
            ctrl_->options().read_latency_cycles);
}

TEST_F(NvmeTest, QueuePairOverlapsBatch) {
  // N sync reads pay N*latency; a batch overlaps the latency.
  Vcpu sync_vcpu(1);
  std::vector<uint8_t> buf(kPageSize);
  constexpr int kN = 16;
  for (int i = 0; i < kN; i++) {
    ASSERT_TRUE(dev_->Read(sync_vcpu, static_cast<uint64_t>(i) * kPageSize, std::span(buf)).ok());
  }

  NvmeController::Options options;
  options.capacity_bytes = 64ull << 20;
  NvmeController ctrl2(options);
  NvmeDevice dev2(&ctrl2);
  Vcpu batch_vcpu(2);
  std::vector<std::vector<uint8_t>> bufs(kN, std::vector<uint8_t>(kPageSize));
  std::vector<uint64_t> offsets(kN);
  std::vector<uint8_t*> ptrs(kN);
  for (int i = 0; i < kN; i++) {
    offsets[i] = static_cast<uint64_t>(i) * kPageSize;
    ptrs[i] = bufs[i].data();
  }
  ASSERT_TRUE(dev2.ReadBatch(batch_vcpu, offsets, ptrs, kPageSize).ok());
  EXPECT_LT(batch_vcpu.clock().Now() * 2, sync_vcpu.clock().Now());
}

TEST_F(NvmeTest, QueueDepthRespected) {
  NvmeQueuePair qp(ctrl_.get(), 4);
  std::vector<uint8_t> buf(kPageSize);
  NvmeCommand cmd{NvmeOpcode::kRead, 0, kPageSize / NvmeController::kLbaSize, buf.data()};
  Vcpu vcpu(3);
  for (int i = 0; i < 4; i++) {
    ASSERT_TRUE(qp.Submit(vcpu, cmd).ok());
  }
  EXPECT_FALSE(qp.Submit(vcpu, cmd).ok());  // ring full
  ASSERT_TRUE(qp.WaitAll(vcpu).ok());
  EXPECT_EQ(qp.outstanding(), 0u);
  EXPECT_TRUE(qp.Submit(vcpu, cmd).ok());
  ASSERT_TRUE(qp.WaitAll(vcpu).ok());
}

TEST_F(NvmeTest, OutOfRangeCommandRejected) {
  NvmeQueuePair qp(ctrl_.get(), 4);
  std::vector<uint8_t> buf(kPageSize);
  NvmeCommand cmd{NvmeOpcode::kRead, ctrl_->capacity_bytes() / NvmeController::kLbaSize,
                  kPageSize / NvmeController::kLbaSize, buf.data()};
  Vcpu vcpu(4);
  EXPECT_FALSE(qp.Submit(vcpu, cmd).ok());
}

TEST(HostDeviceTest, SyscallPathChargesKernel) {
  PmemDevice::Options options;
  options.capacity_bytes = 1ull << 20;
  options.copy_flavor = CopyFlavor::kPlain;  // kernel cannot use SIMD
  PmemDevice pmem(options);
  HostIoDevice host(&pmem, HostIoDevice::EntryPath::kSyscall);
  Vcpu vcpu(5);
  std::vector<uint8_t> buf(kPageSize);
  ASSERT_TRUE(host.Read(vcpu, 0, std::span(buf)).ok());
  EXPECT_EQ(vcpu.counters().syscalls, 1u);
  EXPECT_GE(vcpu.clock().Breakdown()[CostCategory::kSyscall],
            GlobalCostModel().syscall_entry_exit + GlobalCostModel().kernel_io_path);
}

TEST(HostDeviceTest, VmcallPathMoreExpensiveThanSyscall) {
  PmemDevice::Options options;
  options.capacity_bytes = 1ull << 20;
  PmemDevice pmem(options);
  HostIoDevice via_syscall(&pmem, HostIoDevice::EntryPath::kSyscall);
  HostIoDevice via_vmcall(&pmem, HostIoDevice::EntryPath::kVmcall);
  Vcpu a(6), b(7);
  std::vector<uint8_t> buf(kPageSize);
  ASSERT_TRUE(via_syscall.Read(a, 0, std::span(buf)).ok());
  ASSERT_TRUE(via_vmcall.Read(b, 0, std::span(buf)).ok());
  // §3.3: a vmcall is even more expensive than a system call.
  EXPECT_GT(b.clock().Now(), a.clock().Now());
  EXPECT_EQ(b.counters().vmcalls, 1u);
}

// A minimal sector-granular device (keeps the base-class 512-byte
// io_alignment contract) for validating the public-wrapper checks.
class SectorDevice : public BlockDevice {
 public:
  explicit SectorDevice(uint64_t capacity) : data_(capacity, 0) {}
  const char* name() const override { return "sector"; }
  uint64_t capacity_bytes() const override { return data_.size(); }

 protected:
  Status DoRead(Vcpu& vcpu, uint64_t offset, std::span<uint8_t> dst) override {
    std::memcpy(dst.data(), data_.data() + offset, dst.size());
    return Status::Ok();
  }
  Status DoWrite(Vcpu& vcpu, uint64_t offset, std::span<const uint8_t> src) override {
    std::memcpy(data_.data() + offset, src.data(), src.size());
    return Status::Ok();
  }

 private:
  std::vector<uint8_t> data_;
};

TEST(BlockDeviceValidationTest, MisalignedRequestsRejected) {
  SectorDevice dev(1 << 20);
  Vcpu vcpu(10);
  std::vector<uint8_t> buf(512);
  EXPECT_EQ(dev.io_alignment(), 512u);
  // Misaligned offset and misaligned size both fail up front with
  // kInvalidArgument — no retries, no device I/O.
  EXPECT_EQ(dev.Read(vcpu, 13, std::span(buf)).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(dev.Write(vcpu, 512, std::span<const uint8_t>(buf).first(100)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(dev.stats().reads.load(), 0u);
  EXPECT_EQ(dev.stats().io_errors.load(), 0u);
  // Out of range is kInvalidArgument too, not a device error.
  EXPECT_EQ(dev.Read(vcpu, dev.capacity_bytes(), std::span(buf)).code(),
            StatusCode::kInvalidArgument);
  // Aligned requests pass.
  EXPECT_TRUE(dev.Write(vcpu, 1024, std::span<const uint8_t>(buf)).ok());
  EXPECT_TRUE(dev.Read(vcpu, 1024, std::span(buf)).ok());
}

TEST(BlockDeviceValidationTest, ByteAddressableDevicesAcceptUnaligned) {
  PmemDevice::Options options;
  options.capacity_bytes = 1ull << 20;
  PmemDevice pmem(options);
  EXPECT_EQ(pmem.io_alignment(), 1u);
  Vcpu vcpu(11);
  std::vector<uint8_t> buf(100, 0x3C);
  EXPECT_TRUE(pmem.Write(vcpu, 13, std::span<const uint8_t>(buf)).ok());
  std::vector<uint8_t> in(100);
  EXPECT_TRUE(pmem.Read(vcpu, 13, std::span(in)).ok());
  EXPECT_EQ(in, buf);
}

class AsyncIoTest : public ::testing::Test {
 protected:
  AsyncIoTest() {
    NvmeController::Options options;
    options.capacity_bytes = 64ull << 20;
    ctrl_ = std::make_unique<NvmeController>(options);
    dev_ = std::make_unique<NvmeDevice>(ctrl_.get());
  }
  std::unique_ptr<NvmeController> ctrl_;
  std::unique_ptr<NvmeDevice> dev_;
  Vcpu vcpu_{0};
};

TEST_F(AsyncIoTest, BatchRoundTrip) {
  AsyncIoRing ring(*dev_, AsyncIoRing::Options{});
  std::vector<std::vector<uint8_t>> out(8, std::vector<uint8_t>(kPageSize));
  for (int i = 0; i < 8; i++) {
    std::fill(out[i].begin(), out[i].end(), static_cast<uint8_t>(i + 1));
    ASSERT_TRUE(ring.PrepareWrite(static_cast<uint64_t>(i) * kPageSize,
                                  std::span<const uint8_t>(out[i]), 100 + i).ok());
  }
  EXPECT_EQ(ring.prepared(), 8u);
  uint64_t syscalls = vcpu_.counters().syscalls;
  StatusOr<uint32_t> submitted = ring.Submit(vcpu_);
  ASSERT_TRUE(submitted.ok());
  EXPECT_EQ(*submitted, 8u);
  EXPECT_EQ(vcpu_.counters().syscalls, syscalls + 1);  // ONE syscall per batch
  std::vector<AsyncIoRing::Completion> completions;
  ASSERT_TRUE(ring.WaitFor(vcpu_, 8, &completions).ok());
  ASSERT_EQ(completions.size(), 8u);
  EXPECT_EQ(ring.in_flight(), 0u);

  // Read back asynchronously and verify data.
  std::vector<std::vector<uint8_t>> in(8, std::vector<uint8_t>(kPageSize));
  for (int i = 0; i < 8; i++) {
    ASSERT_TRUE(ring.PrepareRead(static_cast<uint64_t>(i) * kPageSize, std::span(in[i]),
                                 200 + i).ok());
  }
  ASSERT_TRUE(ring.Submit(vcpu_).ok());
  completions.clear();
  ASSERT_TRUE(ring.WaitFor(vcpu_, 8, &completions).ok());
  for (int i = 0; i < 8; i++) {
    EXPECT_EQ(in[i], out[i]) << i;
  }
}

TEST_F(AsyncIoTest, HarvestNeedsNoSyscall) {
  AsyncIoRing ring(*dev_, AsyncIoRing::Options{});
  std::vector<uint8_t> buf(kPageSize);
  ASSERT_TRUE(ring.PrepareRead(0, std::span(buf), 1).ok());
  ASSERT_TRUE(ring.Submit(vcpu_).ok());
  uint64_t syscalls = vcpu_.counters().syscalls;
  std::vector<AsyncIoRing::Completion> completions;
  ASSERT_TRUE(ring.WaitFor(vcpu_, 1, &completions).ok());
  EXPECT_EQ(vcpu_.counters().syscalls, syscalls);  // completion path: zero syscalls
}

TEST_F(AsyncIoTest, BatchOverlapsDeviceLatency) {
  // 16 reads in one batch must finish far sooner than 16 sync reads.
  AsyncIoRing ring(*dev_, AsyncIoRing::Options{});
  Vcpu batch_vcpu(8);
  std::vector<std::vector<uint8_t>> bufs(16, std::vector<uint8_t>(kPageSize));
  for (int i = 0; i < 16; i++) {
    ASSERT_TRUE(ring.PrepareRead(static_cast<uint64_t>(i) * kPageSize, std::span(bufs[i]),
                                 i).ok());
  }
  ASSERT_TRUE(ring.Submit(batch_vcpu).ok());
  std::vector<AsyncIoRing::Completion> completions;
  ASSERT_TRUE(ring.WaitFor(batch_vcpu, 16, &completions).ok());

  NvmeController::Options options;
  options.capacity_bytes = 64ull << 20;
  NvmeController ctrl2(options);
  NvmeDevice sync_dev(&ctrl2);
  Vcpu sync_vcpu(9);
  std::vector<uint8_t> buf(kPageSize);
  for (int i = 0; i < 16; i++) {
    ASSERT_TRUE(sync_dev.Read(sync_vcpu, static_cast<uint64_t>(i) * kPageSize,
                              std::span(buf)).ok());
  }
  EXPECT_LT(batch_vcpu.clock().Now() * 2, sync_vcpu.clock().Now());
}

TEST_F(AsyncIoTest, RejectsNonQueueingDevice) {
  // A pmem medium is byte-addressable: there is no command queue to overlap,
  // so an io_uring facade over it would fabricate latency hiding. The ring
  // must reject it up front with kUnimplemented.
  PmemDevice::Options options;
  options.capacity_bytes = 1ull << 20;
  PmemDevice pmem(options);
  ASSERT_FALSE(pmem.supports_queueing());
  AsyncIoRing ring(pmem, AsyncIoRing::Options{});
  std::vector<uint8_t> buf(kPageSize);
  Status prep = ring.PrepareRead(0, std::span(buf), 0);
  EXPECT_EQ(prep.code(), StatusCode::kUnimplemented);
  StatusOr<uint32_t> submitted = ring.Submit(vcpu_);
  ASSERT_FALSE(submitted.ok());
  EXPECT_EQ(submitted.status().code(), StatusCode::kUnimplemented);
}

class DeviceQueueTest : public ::testing::Test {
 protected:
  DeviceQueueTest() {
    NvmeController::Options options;
    options.capacity_bytes = 64ull << 20;
    ctrl_ = std::make_unique<NvmeController>(options);
    nvme_ = std::make_unique<NvmeDevice>(ctrl_.get());
    PmemDevice::Options pmem_options;
    pmem_options.capacity_bytes = 16ull << 20;
    pmem_ = std::make_unique<PmemDevice>(pmem_options);
  }
  std::unique_ptr<NvmeController> ctrl_;
  std::unique_ptr<NvmeDevice> nvme_;
  std::unique_ptr<PmemDevice> pmem_;
  Vcpu vcpu_{0};
};

TEST_F(DeviceQueueTest, CapabilityMatchesMedium) {
  EXPECT_TRUE(nvme_->supports_queueing());
  EXPECT_FALSE(pmem_->supports_queueing());
  // Every device answers CreateQueue; the fallback is the sync shim.
  auto native = nvme_->CreateQueue(8);
  auto shim = pmem_->CreateQueue(8);
  EXPECT_STRNE(native->name(), "sync-shim");
  EXPECT_STREQ(shim->name(), "sync-shim");
}

TEST_F(DeviceQueueTest, SyncShimExecutesAtSubmitAndBuffersCompletion) {
  auto queue = pmem_->CreateQueue(4);
  std::vector<uint8_t> out(kPageSize, 0x7E);
  ASSERT_TRUE(queue->SubmitWrite(vcpu_, 0, std::span<const uint8_t>(out), 42).ok());
  // Data moved at submit: a synchronous read sees it before any reap.
  std::vector<uint8_t> in(kPageSize);
  ASSERT_TRUE(pmem_->Read(vcpu_, 0, std::span(in)).ok());
  EXPECT_EQ(in, out);
  EXPECT_EQ(queue->in_flight(), 1u);
  EXPECT_EQ(queue->NextReadyAt(), 0u);  // buffered: already ready
  std::vector<DeviceQueue::Completion> completions;
  EXPECT_EQ(queue->Poll(vcpu_, &completions), 1u);
  ASSERT_EQ(completions.size(), 1u);
  EXPECT_EQ(completions[0].user_data, 42u);
  EXPECT_TRUE(completions[0].status.ok());
  // No overlap to report: the shim completes at its submit timestamp.
  EXPECT_EQ(completions[0].submit_at, completions[0].ready_at);
  EXPECT_EQ(queue->in_flight(), 0u);
}

TEST_F(DeviceQueueTest, NvmeQueueOverlapsCommands) {
  // qd-16 writes through the queue must beat 16 synchronous writes: the
  // media latency overlaps, the sync path serializes it.
  constexpr int kN = 16;
  auto queue = nvme_->CreateQueue(kN);
  std::vector<uint8_t> buf(kPageSize, 0x11);
  Vcpu queued_vcpu(1);
  for (int i = 0; i < kN; i++) {
    ASSERT_TRUE(queue->SubmitWrite(queued_vcpu, static_cast<uint64_t>(i) * kPageSize,
                                   std::span<const uint8_t>(buf), i).ok());
  }
  std::vector<DeviceQueue::Completion> completions;
  ASSERT_TRUE(queue->Drain(queued_vcpu, &completions).ok());
  ASSERT_EQ(completions.size(), static_cast<size_t>(kN));
  for (const auto& c : completions) {
    EXPECT_TRUE(c.status.ok());
    EXPECT_GT(c.ready_at, c.submit_at);  // the medium took real (simulated) time
  }

  NvmeController::Options options;
  options.capacity_bytes = 64ull << 20;
  NvmeController ctrl2(options);
  NvmeDevice sync_dev(&ctrl2);
  Vcpu sync_vcpu(2);
  for (int i = 0; i < kN; i++) {
    ASSERT_TRUE(sync_dev.Write(sync_vcpu, static_cast<uint64_t>(i) * kPageSize,
                               std::span<const uint8_t>(buf)).ok());
  }
  EXPECT_LT(queued_vcpu.clock().Now() * 2, sync_vcpu.clock().Now());
}

TEST_F(DeviceQueueTest, NvmeQueueCountsInDeviceStats) {
  // The native queue bypasses the synchronous entry points, so it must count
  // its own accepted commands in the device's stats.
  auto queue = nvme_->CreateQueue(4);
  std::vector<uint8_t> out(kPageSize, 0x3C);
  std::vector<uint8_t> in(2 * kPageSize);
  ASSERT_TRUE(queue->SubmitWrite(vcpu_, 0, std::span<const uint8_t>(out), 1).ok());
  ASSERT_TRUE(queue->SubmitWrite(vcpu_, kPageSize, std::span<const uint8_t>(out), 2).ok());
  ASSERT_TRUE(queue->SubmitRead(vcpu_, 0, std::span(in), 3).ok());
  // A rejected submission moves nothing and counts nothing.
  EXPECT_FALSE(queue->SubmitWrite(vcpu_, 1, std::span<const uint8_t>(out), 4).ok());
  std::vector<DeviceQueue::Completion> completions;
  ASSERT_TRUE(queue->Drain(vcpu_, &completions).ok());
  EXPECT_EQ(nvme_->stats().writes.load(), 2u);
  EXPECT_EQ(nvme_->stats().bytes_written.load(), 2 * kPageSize);
  EXPECT_EQ(nvme_->stats().reads.load(), 1u);
  EXPECT_EQ(nvme_->stats().bytes_read.load(), 2 * kPageSize);
}

TEST_F(DeviceQueueTest, FullQueueReturnsOutOfSpace) {
  auto queue = nvme_->CreateQueue(2);
  std::vector<uint8_t> buf(kPageSize);
  ASSERT_TRUE(queue->SubmitRead(vcpu_, 0, std::span(buf), 0).ok());
  ASSERT_TRUE(queue->SubmitRead(vcpu_, kPageSize, std::span(buf), 1).ok());
  Status full = queue->SubmitRead(vcpu_, 2 * kPageSize, std::span(buf), 2);
  EXPECT_EQ(full.code(), StatusCode::kOutOfSpace);
  std::vector<DeviceQueue::Completion> completions;
  ASSERT_TRUE(queue->Drain(vcpu_, &completions).ok());
  EXPECT_EQ(completions.size(), 2u);
  EXPECT_TRUE(queue->SubmitRead(vcpu_, 2 * kPageSize, std::span(buf), 2).ok());
  ASSERT_TRUE(queue->Drain(vcpu_, &completions).ok());
}

TEST_F(DeviceQueueTest, MisalignedAndOutOfRangeRejectedAtSubmit) {
  auto queue = nvme_->CreateQueue(4);
  std::vector<uint8_t> buf(kPageSize);
  EXPECT_EQ(queue->SubmitRead(vcpu_, 13, std::span(buf), 0).code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(queue->SubmitRead(vcpu_, ctrl_->capacity_bytes(), std::span(buf), 0).ok());
  EXPECT_EQ(queue->in_flight(), 0u);
}

TEST_F(AsyncIoTest, RejectsBadRequests) {
  AsyncIoRing ring(*dev_, AsyncIoRing::Options{.queue_depth = 2});
  std::vector<uint8_t> buf(kPageSize);
  EXPECT_FALSE(ring.PrepareRead(13, std::span(buf), 0).ok());  // unaligned
  EXPECT_FALSE(ring.PrepareRead(ctrl_->capacity_bytes(), std::span(buf), 0).ok());
  ASSERT_TRUE(ring.PrepareRead(0, std::span(buf), 0).ok());
  ASSERT_TRUE(ring.PrepareRead(kPageSize, std::span(buf), 1).ok());
  EXPECT_FALSE(ring.PrepareRead(2 * kPageSize, std::span(buf), 2).ok());  // full
  std::vector<AsyncIoRing::Completion> completions;
  EXPECT_FALSE(ring.WaitFor(vcpu_, 5, &completions).ok());  // more than in flight
}

}  // namespace
}  // namespace aquila
