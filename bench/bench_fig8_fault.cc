// Figure 8: page-fault overhead microbenchmarks.
//
//  (a) average page-fault breakdown, dataset fits in memory (no evictions):
//      Linux mmap vs Aquila over a pmem device;
//  (b) same with a dataset larger than the cache (evictions, writebacks and
//      TLB shootdowns in the common path);
//  (c) cost of one fault under each device-access method: Cache-Hit,
//      DAX-pmem, HOST-pmem, SPDK-NVMe, HOST-NVMe.
//
// The microbenchmark matches §5: threads issue loads/stores at random
// offsets of a mapped region such that each access faults (madvise RANDOM;
// every page touched once).
#include <cinttypes>

#include "bench/common.h"
#include "src/util/rng.h"

namespace aquila {
namespace bench {
namespace {

struct FaultRun {
  double faults = 0;
  CostBreakdown breakdown;
  uint64_t cycles_per_fault() const {
    return faults > 0 ? static_cast<uint64_t>(breakdown.Total() / faults) : 0;
  }
};

// Touches `pages` distinct pages of `map`, `write_fraction` of them with
// stores. Random advice shuffles the page order; sequential advice walks the
// mapping in order (the readahead-friendly shape).
FaultRun RunFaults(MemoryMap* map, uint64_t pages, double write_fraction, uint64_t seed,
                   Advice advice = Advice::kRandom) {
  SimClock& clock = ThisThreadClock();
  (void)map->Advise(0, map->length(), advice);
  Rng rng(seed);
  uint64_t map_pages = map->length() / kPageSize;
  std::vector<uint32_t> order(map_pages);
  for (uint64_t i = 0; i < map_pages; i++) {
    order[i] = static_cast<uint32_t>(i);
  }
  if (advice == Advice::kRandom) {
    for (uint64_t i = map_pages - 1; i > 0; i--) {
      std::swap(order[i], order[rng.Uniform(i + 1)]);
    }
  }
  CostBreakdown before = clock.Breakdown();
  uint64_t faults = 0;
  for (uint64_t i = 0; i < pages; i++) {
    uint64_t offset = static_cast<uint64_t>(order[i % map_pages]) * kPageSize + 64;
    bool write = rng.NextDouble() < write_fraction;
    faults += (write ? map->TouchWrite(offset) : map->TouchRead(offset)).faulted;
  }
  FaultRun run;
  run.faults = static_cast<double>(faults);
  run.breakdown = clock.Breakdown() - before;
  return run;
}

void PrintBreakdownRow(const char* label, const FaultRun& run) {
  auto per = [&](CostCategory c) {
    return run.faults > 0 ? static_cast<uint64_t>(run.breakdown[c] / run.faults) : 0;
  };
  std::printf(
      "%-18s total=%6" PRIu64 " | trap=%5" PRIu64 " vmexit=%5" PRIu64 " pgtbl=%5" PRIu64
      " cache=%5" PRIu64 " dirty=%5" PRIu64 " tlb=%5" PRIu64 " devio=%5" PRIu64
      " memcpy=%5" PRIu64 " syscall=%5" PRIu64 " idle=%5" PRIu64 "\n",
      label, run.cycles_per_fault(), per(CostCategory::kTrap), per(CostCategory::kVmExit),
      per(CostCategory::kPageTable), per(CostCategory::kCacheMgmt),
      per(CostCategory::kDirtyTracking), per(CostCategory::kTlbShootdown),
      per(CostCategory::kDeviceIo), per(CostCategory::kMemcpy), per(CostCategory::kSyscall),
      per(CostCategory::kIdle));
}

void PartA() {
  PrintHeader("Fig 8(a): page-fault breakdown, dataset fits in memory (pmem), cycles/fault");
  uint64_t data_bytes = Scaled(16ull << 20);
  uint64_t cache_bytes = data_bytes * 2;
  uint64_t pages = data_bytes / kPageSize;

  {
    auto device = MakePmem(data_bytes, CopyFlavor::kPlain);  // kernel copies
    auto engine = MakeLinuxMmap(cache_bytes);
    DeviceBacking backing(device->direct, 0, data_bytes);
    auto map = engine->Map(&backing, data_bytes, kProtRead | kProtWrite);
    AQUILA_CHECK(map.ok());
    FaultRun run = RunFaults(*map, pages, 0.0, 1);
    PrintBreakdownRow("linux-mmap", run);
    AQUILA_CHECK(engine->Unmap(*map).ok());
  }
  {
    auto device = MakePmem(data_bytes);
    auto runtime = MakeAquila(cache_bytes);
    DeviceBacking backing(device->direct, 0, data_bytes);
    auto map = runtime->Map(&backing, data_bytes, kProtRead | kProtWrite);
    AQUILA_CHECK(map.ok());
    FaultRun run = RunFaults(*map, pages, 0.0, 1);
    PrintBreakdownRow("aquila", run);
    AQUILA_CHECK(runtime->Unmap(*map).ok());
    std::printf("paper: Linux ~5380 cycles/fault (trap 1287); Aquila trap 552 (2.33x lower); "
                "fault excl. I/O 2724 vs Aquila ~2179\n");
  }
}

void PartB() {
  PrintHeader("Fig 8(b): page-fault breakdown with evictions (out-of-memory), cycles/fault");
  uint64_t cache_bytes = Scaled(8ull << 20);
  uint64_t data_bytes = cache_bytes * 12;  // paper: 8 GB cache, 100 GB dataset
  uint64_t touches = data_bytes / kPageSize;

  {
    auto device = MakePmem(data_bytes, CopyFlavor::kPlain);
    auto engine = MakeLinuxMmap(cache_bytes);
    DeviceBacking backing(device->direct, 0, data_bytes);
    auto map = engine->Map(&backing, data_bytes, kProtRead | kProtWrite);
    AQUILA_CHECK(map.ok());
    FaultRun run = RunFaults(*map, touches, 0.5, 2);
    PrintBreakdownRow("linux-mmap", run);
    uint64_t linux_total = run.cycles_per_fault();
    AQUILA_CHECK(engine->Unmap(*map).ok());

    auto device2 = MakePmem(data_bytes);
    auto runtime = MakeAquila(cache_bytes);
    DeviceBacking backing2(device2->direct, 0, data_bytes);
    auto map2 = runtime->Map(&backing2, data_bytes, kProtRead | kProtWrite);
    AQUILA_CHECK(map2.ok());
    FaultRun run2 = RunFaults(*map2, touches, 0.5, 2);
    PrintBreakdownRow("aquila", run2);
    AQUILA_CHECK(runtime->Unmap(*map2).ok());
    std::printf("overhead ratio linux/aquila = %.2fx (paper: 2.06x)\n",
                static_cast<double>(linux_total) /
                    static_cast<double>(run2.cycles_per_fault()));
  }

  // Same out-of-memory pressure over NVMe (sequential scan), queue depth 1
  // vs the configured depth: a deep queue lets read-ahead fills and the
  // eviction batch's writeback overlap continued fault handling, where depth
  // 1 waits out every request before the next one submits — the synchronous
  // baseline.
  {
    auto run_nvme = [&](const char* name, uint32_t depth) {
      auto device = MakeNvme(data_bytes);
      Aquila::Options options = AquilaOptions(cache_bytes);
      if (depth != 0) {
        options.async_queue_depth = depth;
      }
      auto runtime = std::make_unique<Aquila>(options);
      DeviceBacking backing(device->direct, 0, data_bytes);
      auto map = runtime->Map(&backing, data_bytes, kProtRead | kProtWrite);
      AQUILA_CHECK(map.ok());
      FaultRun run = RunFaults(*map, touches, 0.5, 2, Advice::kSequential);
      PrintBreakdownRow(name, run);
      AQUILA_CHECK(runtime->Unmap(*map).ok());
      return run.cycles_per_fault();
    };
    uint64_t qd1_cpf = run_nvme("aquila-nvme-qd1", 1);
    uint64_t async_cpf = run_nvme("aquila-nvme-async", 0);
    std::printf("async writeback saves %.1f%% cycles/fault over NVMe queue depth 1 "
                "(target: >=15%%)\n",
                100.0 * (1.0 - static_cast<double>(async_cpf) /
                                   static_cast<double>(qd1_cpf)));
  }
}

void PartC() {
  PrintHeader("Fig 8(c): device access methods in Aquila, cycles/fault");
  uint64_t data_bytes = Scaled(16ull << 20);
  uint64_t cache_bytes = data_bytes * 2;
  uint64_t pages = data_bytes / kPageSize / 2;

  struct Config {
    const char* name;
    std::unique_ptr<TestDevice> device;
    BlockDevice* target;
  };
  auto run_config = [&](const char* name, BlockDevice* target) {
    auto runtime = MakeAquila(cache_bytes);
    DeviceBacking backing(target, 0, data_bytes);
    auto map = runtime->Map(&backing, data_bytes, kProtRead | kProtWrite);
    AQUILA_CHECK(map.ok());
    FaultRun run = RunFaults(*map, pages, 0.0, 3);
    PrintBreakdownRow(name, run);
    AQUILA_CHECK(runtime->Unmap(*map).ok());
    return run.cycles_per_fault();
  };

  // Cache-Hit: pages already resident (prefetched), fault only installs the
  // translation (the paper's 2179-cycle case).
  {
    auto device = MakePmem(data_bytes);
    auto runtime = MakeAquila(cache_bytes);
    DeviceBacking backing(device->direct, 0, data_bytes);
    auto map = runtime->Map(&backing, data_bytes, kProtRead | kProtWrite);
    AQUILA_CHECK(map.ok());
    AQUILA_CHECK((*map)->Advise(0, data_bytes, Advice::kWillNeed).ok());  // prefetch all
    SimClock& clock = ThisThreadClock();
    CostBreakdown before = clock.Breakdown();
    Rng rng(4);
    uint64_t faults = 0;
    for (uint64_t i = 0; i < pages; i++) {
      faults += (*map)->TouchRead(rng.Uniform(data_bytes / kPageSize) * kPageSize).faulted;
    }
    FaultRun run;
    run.faults = static_cast<double>(faults);
    run.breakdown = clock.Breakdown() - before;
    PrintBreakdownRow("cache-hit", run);
    AQUILA_CHECK(runtime->Unmap(*map).ok());
  }

  auto pmem_dax = MakePmem(data_bytes);
  uint64_t dax = run_config("dax-pmem", pmem_dax->direct);
  auto pmem_host = MakePmem(data_bytes, CopyFlavor::kPlain);
  uint64_t host_pmem = run_config("host-pmem", pmem_host->host.get());
  auto nvme = MakeNvme(data_bytes);
  uint64_t spdk = run_config("spdk-nvme", nvme->direct);
  auto nvme_host = MakeNvme(data_bytes);
  uint64_t host_nvme = run_config("host-nvme", nvme_host->host.get());
  std::printf("host-pmem/dax-pmem = %.2fx (paper: 7.77x with device included in that figure's "
              "host path)\nhost-nvme/spdk-nvme = %.2fx (paper: 1.53x)\n",
              static_cast<double>(host_pmem) / static_cast<double>(dax),
              static_cast<double>(host_nvme) / static_cast<double>(spdk));
}

}  // namespace
}  // namespace bench
}  // namespace aquila

int main() {
  aquila::bench::PartA();
  aquila::bench::PartB();
  aquila::bench::PartC();
  return 0;
}
