// Property-based / parameterized sweeps over the core invariants:
//   * histogram percentiles bracket true order statistics across scales;
//   * zipfian/uniform/latest generators stay in range and hit their skew;
//   * the lock-free hash behaves like a reference map under random op
//     sequences at several capacities;
//   * RB-tree invariants survive arbitrary insert/remove interleavings;
//   * the freelist conserves frames for every (threshold, batch) shape;
//   * SerializedResource conserves service time and never completes a
//     request before arrival + service;
//   * Aquila preserves read-your-writes under every (cache size, eviction
//     batch, readahead, write ratio) combination swept;
//   * SST round-trips arbitrary key/value shapes.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "src/cache/freelist.h"
#include "src/cache/lockfree_hash.h"
#include "src/cache/rbtree.h"
#include "src/core/aquila.h"
#include "src/kvs/sst.h"
#include "src/storage/pmem_device.h"
#include "src/util/histogram.h"
#include "src/util/rng.h"

namespace aquila {
namespace {

// --- Histogram -------------------------------------------------------------------

class HistogramPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HistogramPropertyTest, PercentilesBracketTrueQuantiles) {
  uint64_t scale = GetParam();
  Histogram h;
  std::vector<uint64_t> values;
  Rng rng(scale);
  for (int i = 0; i < 5000; i++) {
    uint64_t v = rng.Uniform(scale) + 1;
    values.push_back(v);
    h.Record(v);
  }
  std::sort(values.begin(), values.end());
  for (double q : {0.1, 0.5, 0.9, 0.99}) {
    uint64_t truth = values[static_cast<size_t>(q * (values.size() - 1))];
    uint64_t est = h.Percentile(q);
    // Log-bucketing: <= 12.5% relative error plus one bucket of slack.
    EXPECT_LE(est, truth + truth / 7 + 2) << "q=" << q << " scale=" << scale;
    EXPECT_GE(est + est / 7 + 2, truth) << "q=" << q << " scale=" << scale;
  }
  EXPECT_EQ(h.Percentile(1.0), h.Max());
}

INSTANTIATE_TEST_SUITE_P(Scales, HistogramPropertyTest,
                         ::testing::Values(16, 1000, 65536, 10000000, 3000000000ull));

// --- Request distributions ----------------------------------------------------------

class DistributionTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DistributionTest, ZipfianInRangeAndSkewed) {
  uint64_t n = GetParam();
  ZipfianGenerator zipf(n);
  std::map<uint64_t, uint64_t> counts;
  for (int i = 0; i < 20000; i++) {
    uint64_t v = zipf.Next();
    ASSERT_LT(v, n);
    counts[v]++;
  }
  // Rank 0 must be the clear leader.
  uint64_t max_count = 0;
  for (auto& [v, c] : counts) {
    max_count = std::max(max_count, c);
  }
  EXPECT_EQ(counts[0], max_count);
  EXPECT_GT(counts[0], 20000u / 20);  // >= 5% on item 0 for theta=.99
}

INSTANTIATE_TEST_SUITE_P(Sizes, DistributionTest,
                         ::testing::Values(10, 1000, 100000, 10000000));

// --- Lock-free hash vs reference map -----------------------------------------------

class HashModelTest : public ::testing::TestWithParam<int> {};

TEST_P(HashModelTest, MatchesReferenceUnderRandomOps) {
  int capacity_log2 = GetParam();
  LockFreeHash hash(1ull << capacity_log2);
  std::map<uint64_t, uint64_t> model;
  Rng rng(capacity_log2 * 7 + 1);
  uint64_t key_space = (1ull << capacity_log2) / 4;  // stay under load 0.5
  for (int i = 0; i < 20000; i++) {
    uint64_t key = rng.Uniform(key_space) + 1;
    switch (rng.Uniform(3)) {
      case 0: {
        bool inserted = hash.Insert(key, i);
        EXPECT_EQ(inserted, model.count(key) == 0) << key;
        if (inserted) {
          model[key] = i;
        }
        break;
      }
      case 1: {
        bool removed = hash.Remove(key);
        EXPECT_EQ(removed, model.erase(key) == 1) << key;
        break;
      }
      default: {
        uint64_t value;
        bool found = hash.Lookup(key, &value);
        auto it = model.find(key);
        ASSERT_EQ(found, it != model.end()) << key;
        if (found) {
          EXPECT_EQ(value, it->second);
        }
      }
    }
    ASSERT_EQ(hash.size(), model.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Capacities, HashModelTest, ::testing::Values(6, 10, 14));

// --- RB-tree fuzz -------------------------------------------------------------------

struct FuzzNode {
  RbNode node;
  uint64_t key;
};

struct FuzzKeyOf {
  uint64_t operator()(const RbNode* n) const {
    return reinterpret_cast<const FuzzNode*>(reinterpret_cast<const char*>(n) -
                                             offsetof(FuzzNode, node))
        ->key;
  }
};

class RbTreeFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RbTreeFuzzTest, InvariantsUnderInterleavedOps) {
  uint64_t seed = GetParam();
  Rng rng(seed);
  RbTree<FuzzKeyOf> tree;
  std::vector<FuzzNode> pool(400);
  std::vector<size_t> linked;
  std::multiset<uint64_t> model;
  for (int step = 0; step < 4000; step++) {
    if ((linked.size() < pool.size() && rng.OneIn(2)) || linked.empty()) {
      // Insert a free node.
      size_t idx;
      do {
        idx = rng.Uniform(pool.size());
      } while (pool[idx].node.linked);
      pool[idx].key = rng.Uniform(500);
      tree.Insert(&pool[idx].node);
      model.insert(pool[idx].key);
      linked.push_back(idx);
    } else {
      size_t pick = rng.Uniform(linked.size());
      size_t idx = linked[pick];
      tree.Remove(&pool[idx].node);
      model.erase(model.find(pool[idx].key));
      linked.erase(linked.begin() + pick);
    }
    if (step % 200 == 0) {
      ASSERT_GE(tree.Validate(), 1) << "step " << step;
      ASSERT_EQ(tree.size(), model.size());
    }
  }
  // Final in-order traversal equals the model.
  std::multiset<uint64_t> seen;
  for (RbNode* n = tree.First(); n != nullptr; n = RbTree<FuzzKeyOf>::Next(n)) {
    seen.insert(FuzzKeyOf()(n));
  }
  EXPECT_EQ(seen, model);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RbTreeFuzzTest, ::testing::Values(1, 7, 42, 1234, 99999));

// --- Freelist conservation -----------------------------------------------------------

struct FreelistShape {
  uint32_t threshold;
  uint32_t batch;
  int numa_nodes;
};

class FreelistShapeTest : public ::testing::TestWithParam<FreelistShape> {};

TEST_P(FreelistShapeTest, ConservesFramesUnderChurn) {
  FreelistShape shape = GetParam();
  TwoLevelFreelist::Options options;
  options.core_queue_threshold = shape.threshold;
  options.move_batch = shape.batch;
  options.numa_nodes = shape.numa_nodes;
  constexpr uint32_t kFrames = 2048;
  TwoLevelFreelist freelist(kFrames, options);
  freelist.AddFrames(0, kFrames);

  Rng rng(shape.threshold * 31 + shape.batch);
  std::vector<FrameId> held;
  std::vector<bool> owned(kFrames, false);
  for (int i = 0; i < 50000; i++) {
    int core = static_cast<int>(rng.Uniform(8));
    if (rng.OneIn(2) && held.size() < kFrames) {
      FrameId f = freelist.Alloc(core);
      if (f != kInvalidFrame) {
        ASSERT_LT(f, kFrames);
        ASSERT_FALSE(owned[f]) << "frame " << f << " double-allocated";
        owned[f] = true;
        held.push_back(f);
      }
    } else if (!held.empty()) {
      size_t pick = rng.Uniform(held.size());
      FrameId f = held[pick];
      held.erase(held.begin() + pick);
      owned[f] = false;
      freelist.Free(core, f);
    }
  }
  while (!held.empty()) {
    freelist.Free(0, held.back());
    held.pop_back();
  }
  EXPECT_EQ(freelist.ApproxFree(), kFrames);
  // Everything is allocatable again. Core queues are private to their core
  // (the paper's design), so the drain must visit every core.
  int reclaimed = 0;
  for (int core = 0; core < 8; core++) {
    while (freelist.Alloc(core) != kInvalidFrame) {
      reclaimed++;
    }
  }
  EXPECT_EQ(reclaimed, static_cast<int>(kFrames));
}

INSTANTIATE_TEST_SUITE_P(Shapes, FreelistShapeTest,
                         ::testing::Values(FreelistShape{1, 1, 1}, FreelistShape{16, 8, 2},
                                           FreelistShape{512, 256, 2},
                                           FreelistShape{64, 64, 4}));

// --- SerializedResource conservation ---------------------------------------------------

class ResourceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ResourceTest, NeverCompletesEarlyAndConservesService) {
  uint64_t service = GetParam();
  SerializedResource resource;
  Rng rng(service);
  uint64_t arrival = 0;
  uint64_t total = 0;
  for (int i = 0; i < 2000; i++) {
    arrival += rng.Uniform(3 * service + 1);
    uint64_t done = resource.Reserve(arrival, service);
    EXPECT_GE(done, arrival + service);
    total += service;
  }
  EXPECT_EQ(resource.TotalServiceCycles(), total);
  EXPECT_EQ(resource.Acquisitions(), 2000u);
}

INSTANTIATE_TEST_SUITE_P(ServiceTimes, ResourceTest,
                         ::testing::Values(1, 250, 900, 16384, 100000));

// --- Aquila read-your-writes sweep ------------------------------------------------------

// No implicit padding, for the same reason as SstShape below: the trailing
// `reserved` keeps the bytes gtest prints into the case name fixed.
struct AquilaShape {
  uint64_t cache_pages;
  uint32_t eviction_batch;
  uint32_t readahead;
  int write_percent;
  int reserved = 0;
};

class AquilaSweepTest : public ::testing::TestWithParam<AquilaShape> {};

TEST_P(AquilaSweepTest, ReadYourWritesUnderEviction) {
  AquilaShape shape = GetParam();
  PmemDevice::Options dev_options;
  dev_options.capacity_bytes = 16ull << 20;
  PmemDevice device(dev_options);

  Aquila::Options options;
  options.cache.capacity_pages = shape.cache_pages;
  options.cache.max_pages = shape.cache_pages * 2;
  options.cache.eviction_batch = shape.eviction_batch;
  options.readahead_pages = shape.readahead;
  Aquila runtime(options);

  DeviceBacking backing(&device, 0, device.capacity_bytes());
  StatusOr<MemoryMap*> map =
      runtime.Map(&backing, device.capacity_bytes(), kProtRead | kProtWrite);
  ASSERT_TRUE(map.ok());
  if (shape.readahead > 0) {
    ASSERT_TRUE((*map)->Advise(0, device.capacity_bytes(), Advice::kSequential).ok());
  }

  std::map<uint64_t, uint64_t> model;
  Rng rng(shape.cache_pages + shape.write_percent);
  uint64_t slots = device.capacity_bytes() / 64;
  for (int i = 0; i < 20000; i++) {
    uint64_t offset = rng.Uniform(slots) * 64;
    if (static_cast<int>(rng.Uniform(100)) < shape.write_percent) {
      uint64_t value = rng.Next();
      (*map)->StoreValue<uint64_t>(offset, value);
      model[offset] = value;
    } else {
      uint64_t got = (*map)->LoadValue<uint64_t>(offset);
      auto it = model.find(offset);
      uint64_t expect = it == model.end() ? 0 : it->second;
      ASSERT_EQ(got, expect) << "offset " << offset << " at op " << i;
    }
  }
  // msync then verify the device itself.
  ASSERT_TRUE((*map)->Sync(0, device.capacity_bytes()).ok());
  for (const auto& [offset, value] : model) {
    uint64_t on_device;
    std::memcpy(&on_device, device.dax_base() + offset, 8);
    ASSERT_EQ(on_device, value) << offset;
  }
  ASSERT_TRUE(runtime.Unmap(*map).ok());
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, AquilaSweepTest,
    ::testing::Values(AquilaShape{64, 16, 0, 30},     // tiny cache, constant eviction
                      AquilaShape{512, 64, 0, 50},    // medium cache, write-heavy
                      AquilaShape{512, 512, 8, 10},   // big batches + readahead
                      AquilaShape{4096, 64, 0, 30},   // everything fits
                      AquilaShape{64, 8, 4, 70}));    // thrash + readahead + writes

// --- SST round-trip shapes ---------------------------------------------------------------

// gtest names each case after the raw bytes of its SstShape, so the struct
// has no implicit padding: `reserved` fills the hole before block_size and is
// always 0, where padding would carry whatever the stack held and give the
// case a different name in every process.
struct SstShape {
  int entries;
  int key_len;
  int value_len;
  int reserved;
  uint64_t block_size;
};

class SstShapeTest : public ::testing::TestWithParam<SstShape> {};

TEST_P(SstShapeTest, RoundTripsAllEntries) {
  SstShape shape = GetParam();
  PmemDevice::Options dev_options;
  dev_options.capacity_bytes = 128ull << 20;
  PmemDevice device(dev_options);
  auto store = Blobstore::Format(ThisVcpu(), &device, Blobstore::Options{});
  ASSERT_TRUE(store.ok());
  BlobNamespace ns(store->get());
  KvsEnv::Options env_options;
  env_options.store = store->get();
  env_options.ns = &ns;
  KvsEnv env(env_options);

  auto file = env.NewWritableFile("/shape.sst");
  ASSERT_TRUE(file.ok());
  SstOptions sst_options;
  sst_options.block_size = shape.block_size;
  SstBuilder builder(file->get(), sst_options);
  Rng rng(shape.entries);
  std::vector<std::pair<std::string, std::string>> entries;
  for (int i = 0; i < shape.entries; i++) {
    char key[64];
    std::snprintf(key, sizeof(key), "%0*d", shape.key_len, i);
    std::string value(shape.value_len, static_cast<char>('a' + (i % 26)));
    entries.emplace_back(key, value);
    builder.Add(Slice(key), i, ValueType::kValue, value);
  }
  ASSERT_TRUE(builder.Finish().ok());
  ASSERT_TRUE((*file)->Sync().ok());
  ASSERT_TRUE((*file)->Close().ok());

  auto raf = env.NewRandomAccessFile("/shape.sst");
  ASSERT_TRUE(raf.ok());
  auto reader = SstReader::Open(std::move(*raf), nullptr, 1);
  ASSERT_TRUE(reader.ok());
  for (const auto& [key, expect] : entries) {
    std::string value;
    bool found, deleted;
    ASSERT_TRUE((*reader)->Get(Slice(key), &value, &found, &deleted).ok());
    ASSERT_TRUE(found) << key;
    EXPECT_EQ(value, expect);
  }
  // Full iteration sees exactly the inserted set, in order.
  SstReader::Iterator it(reader->get());
  size_t count = 0;
  for (it.SeekToFirst(); it.Valid(); it.Next()) {
    ASSERT_LT(count, entries.size());
    EXPECT_EQ(it.key().ToString(), entries[count].first);
    count++;
  }
  EXPECT_EQ(count, entries.size());
}

INSTANTIATE_TEST_SUITE_P(Shapes, SstShapeTest,
                         ::testing::Values(SstShape{1, 8, 8, 0, 4096},         // singleton
                                           SstShape{500, 8, 1024, 0, 4096},    // 1 KB values
                                           SstShape{2000, 30, 100, 0, 4096},   // YCSB keys
                                           SstShape{300, 8, 9000, 0, 4096},    // value > block
                                           SstShape{1000, 16, 64, 0, 512}));   // tiny blocks

}  // namespace
}  // namespace aquila
