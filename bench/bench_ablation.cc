// Ablations of Aquila's design choices (DESIGN.md §5):
//   * batched vs per-page TLB shootdown (§4.1: one IPI per 512 pages);
//   * two-level (per-core/per-NUMA) freelist vs a single shared queue;
//   * lock-free hash vs a mutex-protected map for the cached-page index;
//   * per-core dirty trees vs one shared tree.
// The shootdown ablation reports modeled cycles; the structure ablations are
// real multi-threaded throughput on the host.
//
// The BM_Cost* benches calibrate the counted-work constants of CostModel
// (src/vmx/cost_model.h): each runs one structure operation single-threaded,
// times it, and reports
//   units          — counted units of the calibrated constant per op,
//   other_cycles   — modeled cycles per op from every other constant,
//   fit_per_unit   — (measured ns x 2.4 - other_cycles) / units: the value
//                    the constant should hold on this host,
//   model_per_unit — the value it holds now.
// Re-run with: ./build/bench/bench_ablation --benchmark_filter=BM_Cost
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/cache/dirty_tree.h"
#include "src/cache/freelist.h"
#include "src/cache/lockfree_hash.h"
#include "src/cache/page_cache.h"
#include "src/core/writeback.h"
#include "src/kvs/bloom.h"
#include "src/kvs/coding.h"
#include "src/kvs/memtable.h"
#include "src/mem/page_table.h"
#include "src/mem/tlb.h"
#include "src/util/rng.h"
#include "src/util/sim_clock.h"
#include "src/vmx/cost_model.h"
#include "src/vmx/hypervisor.h"
#include "src/vmx/ipi.h"
#include "src/vmx/vcpu.h"

namespace aquila {
namespace {

void BM_ShootdownBatched(benchmark::State& state) {
  TlbSet tlb;
  PostedIpiFabric fabric;
  std::vector<uint64_t> vpns(512);
  for (size_t i = 0; i < vpns.size(); i++) {
    vpns[i] = i;
  }
  uint64_t modeled = 0;
  for (auto _ : state) {
    SimClock clock;
    tlb.Shootdown(clock, 0, 16, vpns, fabric);
    modeled = clock.Now();
    benchmark::DoNotOptimize(modeled);
  }
  state.counters["modeled_cycles_per_page"] = static_cast<double>(modeled) / 512;
}
BENCHMARK(BM_ShootdownBatched);

void BM_ShootdownPerPage(benchmark::State& state) {
  TlbSet tlb;
  PostedIpiFabric fabric;
  uint64_t modeled = 0;
  for (auto _ : state) {
    SimClock clock;
    for (uint64_t vpn = 0; vpn < 512; vpn++) {
      tlb.Shootdown(clock, 0, 16, std::span(&vpn, 1), fabric);
    }
    modeled = clock.Now();
    benchmark::DoNotOptimize(modeled);
  }
  state.counters["modeled_cycles_per_page"] = static_cast<double>(modeled) / 512;
}
BENCHMARK(BM_ShootdownPerPage);

template <bool kTwoLevel>
void BM_FreelistAllocFree(benchmark::State& state) {
  // Shared across the benchmark's threads; gbench barriers at loop
  // start/end make the thread-0 setup/teardown safe.
  static TwoLevelFreelist* freelist = nullptr;
  if (state.thread_index() == 0) {
    TwoLevelFreelist::Options options;
    options.numa_nodes = kTwoLevel ? 2 : 1;
    // Single-queue ablation: a zero threshold forwards every free to the
    // one NUMA queue, so all threads contend there.
    options.core_queue_threshold = kTwoLevel ? 128 : 0;
    options.move_batch = kTwoLevel ? 64 : 1;
    freelist = new TwoLevelFreelist(1 << 16, options);
    freelist->AddFrames(0, 1 << 16);
  }
  int core = state.thread_index() % CoreRegistry::kMaxCores;
  std::vector<FrameId> held;
  for (auto _ : state) {
    FrameId frame = freelist->Alloc(core);
    if (frame != kInvalidFrame) {
      held.push_back(frame);
    }
    if (held.size() >= 32 || frame == kInvalidFrame) {
      for (FrameId f : held) {
        freelist->Free(core, f);
      }
      held.clear();
    }
  }
  if (state.thread_index() == 0) {
    delete freelist;
    freelist = nullptr;
  }
}
BENCHMARK(BM_FreelistAllocFree<true>)->Name("BM_FreelistTwoLevel")->Threads(8);
BENCHMARK(BM_FreelistAllocFree<false>)->Name("BM_FreelistSingleQueue")->Threads(8);

void BM_LockFreeHashMixed(benchmark::State& state) {
  static LockFreeHash* hash = nullptr;
  if (state.thread_index() == 0) {
    hash = new LockFreeHash(1 << 18);
  }
  Rng rng(state.thread_index() + 1);
  uint64_t base = static_cast<uint64_t>(state.thread_index()) << 32;
  for (auto _ : state) {
    uint64_t key = base | (rng.Uniform(4096) + 1);
    uint64_t value;
    if (rng.OneIn(4)) {
      if (!hash->Insert(key, key)) {
        hash->Remove(key);
      }
    } else {
      benchmark::DoNotOptimize(hash->Lookup(key, &value));
    }
  }
  if (state.thread_index() == 0) {
    delete hash;
    hash = nullptr;
  }
}
BENCHMARK(BM_LockFreeHashMixed)->Threads(8);

void BM_LockedMapMixed(benchmark::State& state) {
  static std::mutex* mu = nullptr;
  static std::map<uint64_t, uint64_t>* map = nullptr;
  if (state.thread_index() == 0) {
    mu = new std::mutex();
    map = new std::map<uint64_t, uint64_t>();
  }
  Rng rng(state.thread_index() + 1);
  uint64_t base = static_cast<uint64_t>(state.thread_index()) << 32;
  for (auto _ : state) {
    uint64_t key = base | (rng.Uniform(4096) + 1);
    std::lock_guard<std::mutex> guard(*mu);
    if (rng.OneIn(4)) {
      auto [it, inserted] = map->emplace(key, key);
      if (!inserted) {
        map->erase(it);
      }
    } else {
      auto it = map->find(key);
      benchmark::DoNotOptimize(it == map->end());
    }
  }
  if (state.thread_index() == 0) {
    delete map;
    delete mu;
    map = nullptr;
    mu = nullptr;
  }
}
BENCHMARK(BM_LockedMapMixed)->Threads(8);

template <bool kPerCore>
void BM_DirtyTrees(benchmark::State& state) {
  static DirtyTreeSet* set = nullptr;
  if (state.thread_index() == 0) {
    set = new DirtyTreeSet();
  }
  std::vector<DirtyItem> items(256);
  Rng rng(state.thread_index() + 7);
  int core = kPerCore ? state.thread_index() % CoreRegistry::kMaxCores : 0;
  for (auto _ : state) {
    for (auto& item : items) {
      item.sort_key = rng.Next();
      set->Insert(core, &item);
    }
    for (auto& item : items) {
      set->Remove(&item);
    }
  }
  if (state.thread_index() == 0) {
    delete set;
    set = nullptr;
  }
}
BENCHMARK(BM_DirtyTrees<true>)->Name("BM_DirtyTreesPerCore")->Threads(8);
BENCHMARK(BM_DirtyTrees<false>)->Name("BM_DirtyTreeShared")->Threads(8);

// --- Counted-work calibration ---------------------------------------------------

using CostField = uint64_t CostModel::*;

// Every counted-work constant of CostModel.
constexpr CostField kCountedFields[] = {
    &CostModel::hash_probe,    &CostModel::hash_cas,       &CostModel::freelist_op,
    &CostModel::freelist_move, &CostModel::sweep_step,     &CostModel::sweep_claim,
    &CostModel::tree_node,     &CostModel::pt_level,       &CostModel::pt_table_alloc,
    &CostModel::sort_compare,  &CostModel::skiplist_node,  &CostModel::bloom_probe,
    &CostModel::block_entry,
};

// The op's count of `unit`: its counted work with every counted constant
// at 0 except `unit` at 1.
template <typename Op>
uint64_t CountUnits(CostField unit, Op&& op) {
  CostModel saved = GlobalCostModel();
  for (CostField field : kCountedFields) {
    GlobalCostModel().*field = 0;
  }
  GlobalCostModel().*unit = 1;
  uint64_t start = CountedWork();
  op();
  uint64_t units = CountedWork() - start;
  GlobalCostModel() = saved;
  return units;
}

// Times `op` once per iteration, after an untimed `prepare`, and reports the
// counters described at the top of this file. One warm-up round runs first.
template <typename Prepare, typename Op>
void Calibrate(benchmark::State& state, CostField unit, Prepare&& prepare, Op&& op) {
  prepare();
  op();
  prepare();
  const uint64_t units = CountUnits(unit, op);
  uint64_t work = 0;
  double ns = 0;
  for (auto _ : state) {
    prepare();
    uint64_t work_before = CountedWork();
    auto start = std::chrono::steady_clock::now();
    op();
    auto end = std::chrono::steady_clock::now();
    work += CountedWork() - work_before;
    ns += std::chrono::duration<double, std::nano>(end - start).count();
  }
  const double ops = static_cast<double>(state.iterations());
  if (units == 0 || ops == 0) {
    return;
  }
  const double model = static_cast<double>(GlobalCostModel().*unit);
  const double cycles_per_ns = static_cast<double>(GlobalCostModel().cycles_per_us) / 1000;
  const double other = static_cast<double>(work) / ops - model * static_cast<double>(units);
  state.counters["units"] = static_cast<double>(units);
  state.counters["other_cycles"] = other;
  state.counters["fit_per_unit"] = (ns / ops * cycles_per_ns - other) / static_cast<double>(units);
  state.counters["model_per_unit"] = model;
}

template <typename Op>
void Calibrate(benchmark::State& state, CostField unit, Op&& op) {
  Calibrate(state, unit, [] {}, op);
}

constexpr uint64_t kHashSlots = 1 << 18;

// Hit lookups at the page cache's load factor (0.5).
void BM_CostHashLookup(benchmark::State& state) {
  LockFreeHash hash(kHashSlots);
  for (uint64_t k = 1; k <= kHashSlots / 2; k++) {
    hash.Insert(k * 7919, k);
  }
  Rng rng(1);
  std::vector<uint64_t> keys(4096);
  for (uint64_t& key : keys) {
    key = (rng.Uniform(kHashSlots / 2) + 1) * 7919;
  }
  auto lookups = [&] {
    uint64_t value = 0;
    for (uint64_t key : keys) {
      benchmark::DoNotOptimize(hash.Lookup(key, &value));
    }
  };
  Calibrate(state, &CostModel::hash_probe, lookups);
}
BENCHMARK(BM_CostHashLookup);

// Insert + remove of absent keys at load 0.5: one key claim and one removal
// per pair, on top of the probes.
void BM_CostHashInsertRemove(benchmark::State& state) {
  LockFreeHash hash(kHashSlots);
  for (uint64_t k = 1; k <= kHashSlots / 2; k++) {
    hash.Insert(k * 7919, k);
  }
  std::vector<uint64_t> keys(4096);
  for (size_t i = 0; i < keys.size(); i++) {
    keys[i] = (kHashSlots + i) * 7919;
  }
  auto pairs = [&] {
    for (uint64_t key : keys) {
      hash.Insert(key, 1);
      hash.Remove(key);
    }
  };
  Calibrate(state, &CostModel::hash_cas, pairs);
}
BENCHMARK(BM_CostHashInsertRemove);

TwoLevelFreelist::Options CalibrationFreelistOptions() {
  TwoLevelFreelist::Options options;
  options.numa_nodes = 2;
  options.core_queue_threshold = 1 << 20;  // no overflow moves
  return options;
}

// Single-frame pop + push through the owning core's queue.
void BM_CostFreelistPopPush(benchmark::State& state) {
  TwoLevelFreelist freelist(1 << 16, CalibrationFreelistOptions());
  freelist.AddFrames(0, 1 << 16);
  std::vector<FrameId> held(512);
  auto churn = [&] {
    for (FrameId& frame : held) {
      frame = freelist.Alloc(0);
    }
    for (FrameId frame : held) {
      freelist.Free(0, frame);
    }
  };
  Calibrate(state, &CostModel::freelist_op, churn);
}
BENCHMARK(BM_CostFreelistPopPush);

// A 512-frame batch free to the NUMA level, popped back one by one.
void BM_CostFreelistBatchMove(benchmark::State& state) {
  TwoLevelFreelist freelist(1 << 16, CalibrationFreelistOptions());
  std::vector<FrameId> batch(512);
  for (size_t i = 0; i < batch.size(); i++) {
    batch[i] = static_cast<FrameId>(i);
  }
  auto cycle = [&] {
    freelist.FreeBatch(0, batch.data(), static_cast<uint32_t>(batch.size()));
    for (FrameId& frame : batch) {
      frame = freelist.Alloc(0);
    }
  };
  Calibrate(state, &CostModel::freelist_move, cycle);
}
BENCHMARK(BM_CostFreelistBatchMove);

// A small page cache whose frames the sweep benches stage directly.
struct SweepFixture {
  SweepFixture() {
    Hypervisor::Options hv_options;
    hv_options.host_memory_bytes = 64ull << 20;
    hv_options.chunk_size = 1ull << 20;
    hv = std::make_unique<Hypervisor>(hv_options);
    guest = hv->CreateGuest();
    PageCache::Options options;
    options.capacity_pages = kFrames;
    options.max_pages = kFrames;
    cache = std::make_unique<PageCache>(hv.get(), guest, vcpu, options);
  }
  void SetAll(FrameState state, uint8_t referenced) {
    for (FrameId id = 0; id < kFrames; id++) {
      cache->frame(id).state.store(state, std::memory_order_relaxed);
      cache->frame(id).referenced.store(referenced, std::memory_order_relaxed);
    }
  }

  static constexpr FrameId kFrames = 4096;
  Vcpu vcpu{0};
  std::unique_ptr<Hypervisor> hv;
  int guest = 0;
  std::unique_ptr<PageCache> cache;
};

// A sweep that finds nothing to claim: every step passes a non-resident frame.
void BM_CostClockSweepStep(benchmark::State& state) {
  SweepFixture fx;
  fx.SetAll(FrameState::kFilling, 0);
  std::vector<FrameId> out(512);
  auto sweep = [&] { fx.cache->SelectVictims(out.size(), out.data()); };
  Calibrate(state, &CostModel::sweep_step, sweep);
}
BENCHMARK(BM_CostClockSweepStep);

// A sweep that claims every frame it passes (resident, unreferenced).
void BM_CostClockSweepClaim(benchmark::State& state) {
  SweepFixture fx;
  std::vector<FrameId> out(512);
  Calibrate(
      state, &CostModel::sweep_claim, [&] { fx.SetAll(FrameState::kResident, 0); },
      [&] { fx.cache->SelectVictims(out.size(), out.data()); });
}
BENCHMARK(BM_CostClockSweepClaim);

// Install + remove of 4 KB translations whose tables already exist.
void BM_CostPageTableInstallRemove(benchmark::State& state) {
  PageTable table;
  constexpr uint64_t kBase = 1ull << 30;
  for (uint64_t i = 0; i < 512; i++) {
    table.Walk(kBase + i * kPageSize);
  }
  auto churn = [&] {
    for (uint64_t i = 0; i < 512; i++) {
      table.Install(kBase + i * kPageSize, i * kPageSize, Pte::kAccessed);
    }
    for (uint64_t i = 0; i < 512; i++) {
      table.Remove(kBase + i * kPageSize);
    }
  };
  Calibrate(state, &CostModel::pt_level, churn);
}
BENCHMARK(BM_CostPageTableInstallRemove);

// Walks that each allocate a fresh leaf table (one per 2 MB of address space).
void BM_CostPageTableNewTable(benchmark::State& state) {
  constexpr uint64_t kWalks = 256;
  constexpr uint64_t kWalksPerTable = 16 * kWalks;
  auto table = std::make_unique<PageTable>();
  table->Walk(0);
  uint64_t next = 0;
  auto walks = [&] {
    for (uint64_t i = 0; i < kWalks; i++) {
      table->Walk(++next * kHugePage2M);
    }
  };
  auto fresh_table_when_full = [&] {
    if (next + kWalks > kWalksPerTable) {
      table = std::make_unique<PageTable>();
      table->Walk(0);  // the upper levels for the first 1 GB
      next = 0;
    }
  };
  Calibrate(state, &CostModel::pt_table_alloc, fresh_table_when_full, walks);
}
BENCHMARK(BM_CostPageTableNewTable);

// Insert 256 random keys into one core's dirty tree, then remove them.
void BM_CostDirtyTree(benchmark::State& state) {
  DirtyTreeSet set;
  std::vector<DirtyItem> items(256);
  Rng rng(7);
  for (DirtyItem& item : items) {
    item.sort_key = rng.Next();
  }
  auto churn = [&] {
    for (DirtyItem& item : items) {
      set.Insert(0, &item);
    }
    for (DirtyItem& item : items) {
      set.Remove(&item);
    }
  };
  Calibrate(state, &CostModel::tree_node, churn);
}
BENCHMARK(BM_CostDirtyTree);

// The writeback sort: a 512-page eviction batch in random offset order,
// with WritebackPlanner::Sort's counting comparator.
void BM_CostWritebackSort(benchmark::State& state) {
  std::vector<WritebackItem> shuffled(512);
  Rng rng(3);
  for (WritebackItem& item : shuffled) {
    item.sort_key = rng.Next();
  }
  std::vector<WritebackItem> items;
  auto sort = [&] {
    uint64_t compares = 0;
    std::sort(items.begin(), items.end(), [&compares](const WritebackItem& a,
                                                      const WritebackItem& b) {
      compares++;
      return a < b;
    });
    CountWork(compares * GlobalCostModel().sort_compare);
  };
  Calibrate(state, &CostModel::sort_compare, [&] { items = shuffled; }, sort);
}
BENCHMARK(BM_CostWritebackSort);

std::string CalibrationKey(uint64_t i) {
  char key[24];
  std::snprintf(key, sizeof(key), "user%012llu", static_cast<unsigned long long>(i));
  return key;
}

// Memtable gets over 64 K entries (YCSB-style 16-byte keys).
void BM_CostMemtableGet(benchmark::State& state) {
  MemTable table;
  constexpr uint64_t kEntries = 1 << 16;
  for (uint64_t i = 0; i < kEntries; i++) {
    table.Add(i + 1, ValueType::kValue, CalibrationKey(i * 2654435761u % kEntries), "value");
  }
  Rng rng(5);
  std::vector<std::string> keys(1024);
  for (std::string& key : keys) {
    key = CalibrationKey(rng.Uniform(kEntries));
  }
  auto gets = [&] {
    std::string value;
    bool deleted;
    for (const std::string& key : keys) {
      benchmark::DoNotOptimize(table.Get(key, &value, &deleted));
    }
  };
  Calibrate(state, &CostModel::skiplist_node, gets);
}
BENCHMARK(BM_CostMemtableGet);

// Bloom membership tests of present keys (every probe runs), hashing included.
void BM_CostBloomProbe(benchmark::State& state) {
  BloomFilterBuilder builder(10);
  std::vector<std::string> keys(4096);
  for (size_t i = 0; i < keys.size(); i++) {
    keys[i] = CalibrationKey(i);
    builder.AddKey(keys[i]);
  }
  std::string data = builder.Finish();
  BloomFilter filter{Slice(data)};
  auto probes = [&] {
    for (const std::string& key : keys) {
      benchmark::DoNotOptimize(filter.MayContain(key));
    }
  };
  Calibrate(state, &CostModel::bloom_probe, probes);
}
BENCHMARK(BM_CostBloomProbe);

// SstReader::Get's block scan: decode each entry (varint lengths, tag, key,
// value) and compare its key, over a 4 KB block of 16-byte keys.
void BM_CostBlockEntry(benchmark::State& state) {
  std::string block;
  uint64_t entries = 0;
  while (block.size() < 4096) {
    std::string key = CalibrationKey(entries++);
    PutVarint32(&block, static_cast<uint32_t>(key.size()));
    PutVarint32(&block, 100);
    PutFixed64(&block, entries << 8);
    block.append(key);
    block.append(100, 'v');
  }
  const std::string last = CalibrationKey(entries);  // sorts after every entry
  auto scan = [&] {
    const uint64_t block_entry = GlobalCostModel().block_entry;
    const char* p = block.data();
    const char* limit = p + block.size();
    while (p < limit) {
      CountWork(block_entry);
      uint32_t klen, vlen;
      p = GetVarint32Ptr(p, limit, &klen);
      p = GetVarint32Ptr(p, limit, &vlen);
      benchmark::DoNotOptimize(DecodeFixed64(p));
      p += 8;
      benchmark::DoNotOptimize(Slice(p, klen).compare(Slice(last)));
      p += klen + vlen;
    }
  };
  Calibrate(state, &CostModel::block_entry, scan);
}
BENCHMARK(BM_CostBlockEntry);

}  // namespace
}  // namespace aquila

BENCHMARK_MAIN();
