// Customizing the I/O path — the flexibility argument of the paper (§3.3,
// contribution 1): the same application code runs over different device
// access methods, cache sizes, advice policies, and shootdown targeting,
// all chosen per mapping / per runtime instead of baked into the kernel.
//
// This example measures one workload (random point reads of 64-byte
// records) under four configurations and prints the modeled cost per read.
#include <cstdio>

#include "src/core/aquila.h"
#include "src/storage/host_device.h"
#include "src/storage/nvme_device.h"
#include "src/storage/pmem_device.h"
#include "src/util/rng.h"

using namespace aquila;

namespace {

double MeasureReads(Aquila& runtime, BlockDevice* device, Advice advice, int reads) {
  DeviceBacking backing(device, 0, 64ull << 20);
  StatusOr<MemoryMap*> map = runtime.Map(&backing, 64ull << 20, kProtRead);
  AQUILA_CHECK(map.ok());
  (void)(*map)->Advise(0, 64ull << 20, advice);
  SimClock& clock = ThisThreadClock();
  Rng rng(99);
  uint64_t start = clock.Now();
  for (int i = 0; i < reads; i++) {
    uint64_t offset = advice == Advice::kSequential
                          ? static_cast<uint64_t>(i) * 64 % (64ull << 20)
                          : rng.Uniform((64ull << 20) / 64) * 64;
    (void)(*map)->LoadValue<uint64_t>(offset);
  }
  double cycles = static_cast<double>(clock.Now() - start) / reads;
  (void)runtime.Unmap(*map);
  return cycles;
}

}  // namespace

int main() {
  constexpr int kReads = 20000;
  std::printf("%-34s %14s\n", "configuration", "cycles/read");

  {
    // 1. DAX pmem, direct from non-root ring 0 (the Aquila fast path).
    PmemDevice::Options o;
    o.capacity_bytes = 64ull << 20;
    PmemDevice pmem(o);
    Aquila::Options a;
    a.cache.capacity_pages = (16ull << 20) / kPageSize;
    a.cache.max_pages = (64ull << 20) / kPageSize;
    Aquila runtime(a);
    std::printf("%-34s %14.0f\n", "pmem, DAX direct, random",
                MeasureReads(runtime, &pmem, Advice::kRandom, kReads));
  }
  {
    // 2. Same device, but through the host kernel (syscall per miss):
    //    what a guest without direct device access pays.
    PmemDevice::Options o;
    o.capacity_bytes = 64ull << 20;
    o.copy_flavor = CopyFlavor::kPlain;
    PmemDevice pmem(o);
    HostIoDevice host(&pmem, HostIoDevice::EntryPath::kVmcall);
    Aquila::Options a;
    a.cache.capacity_pages = (16ull << 20) / kPageSize;
    a.cache.max_pages = (64ull << 20) / kPageSize;
    Aquila runtime(a);
    std::printf("%-34s %14.0f\n", "pmem, via host kernel, random",
                MeasureReads(runtime, &host, Advice::kRandom, kReads));
  }
  {
    // 3. NVMe over SPDK queue pairs, sequential scan with read-ahead: the
    //    madvise policy turns misses into batched device reads.
    NvmeController::Options o;
    o.capacity_bytes = 64ull << 20;
    NvmeController controller(o);
    NvmeDevice nvme(&controller);
    Aquila::Options a;
    a.cache.capacity_pages = (16ull << 20) / kPageSize;
    a.cache.max_pages = (64ull << 20) / kPageSize;
    Aquila runtime(a);
    std::printf("%-34s %14.0f\n", "nvme, SPDK direct, sequential+RA",
                MeasureReads(runtime, &nvme, Advice::kSequential, kReads));
  }
  {
    // 4. NVMe random reads with a tiny cache: eviction in the common path,
    //    broadcast shootdowns (the paper's baseline) instead of mask+gen.
    NvmeController::Options o;
    o.capacity_bytes = 64ull << 20;
    NvmeController controller(o);
    NvmeDevice nvme(&controller);
    Aquila::Options a;
    a.cache.capacity_pages = (2ull << 20) / kPageSize;
    a.cache.max_pages = (8ull << 20) / kPageSize;
    a.shootdown_mask_mode = ShootdownMaskMode::kBroadcast;
    Aquila runtime(a);
    std::printf("%-34s %14.0f\n", "nvme, tiny cache, broadcast",
                MeasureReads(runtime, &nvme, Advice::kRandom, kReads));
  }
  return 0;
}
