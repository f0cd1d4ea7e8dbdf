// Sharded LRU block cache: the user-space I/O cache of the explicit-I/O
// baseline (Figure 1(b), §6.3).
//
// This is the structure whose management the paper measures at ~32 K cycles
// per RocksDB read (lookups + evictions): every access — hits included —
// pays a hash probe, a shard lock, and an LRU list splice. Those structural
// operations execute for real, but the simulated clock is charged only the
// fixed per-operation surcharges below, which model RocksDB's production
// cache (handle tables, ref-counting, charge tracking, LRU maintenance).
#ifndef AQUILA_SRC_KVS_BLOCK_CACHE_H_
#define AQUILA_SRC_KVS_BLOCK_CACHE_H_

#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/telemetry/metrics.h"
#include "src/util/sim_clock.h"
#include "src/util/spinlock.h"

namespace aquila {

class BlockCache {
 public:
  struct Options {
    uint64_t capacity_bytes = 64ull << 20;
    int shards = 16;
    // Modeled per-operation surcharges (cycles), calibrated so the
    // user-space cache path lands in the regime the paper measures (§6.3).
    uint64_t lookup_surcharge = 900;
    uint64_t insert_surcharge = 1600;
  };

  struct Stats {
    std::atomic<uint64_t> hits{0};
    std::atomic<uint64_t> misses{0};
    std::atomic<uint64_t> inserts{0};
    std::atomic<uint64_t> evictions{0};
  };

  explicit BlockCache(const Options& options);

  // Returns the cached block or nullptr. Charges the calling thread's clock
  // for the lookup (hits are NOT free in a user-space cache — the point of
  // the paper).
  std::shared_ptr<const std::string> Lookup(uint64_t file_id, uint64_t offset);

  // Inserts (or replaces) a block, evicting LRU entries to fit.
  void Insert(uint64_t file_id, uint64_t offset, std::shared_ptr<const std::string> block);

  void Erase(uint64_t file_id, uint64_t offset);

  uint64_t UsedBytes() const;
  const Stats& stats() const { return stats_; }

 private:
  struct Entry {
    uint64_t key;
    std::shared_ptr<const std::string> block;
    std::list<uint64_t>::iterator lru_pos;
  };

  struct alignas(kCacheLineSize) Shard {
    SpinLock lock;
    std::unordered_map<uint64_t, Entry> table;
    std::list<uint64_t> lru;  // front = oldest
    uint64_t used_bytes = 0;
  };

  static uint64_t MakeKey(uint64_t file_id, uint64_t offset) {
    return (file_id << 40) ^ offset;
  }
  Shard& ShardFor(uint64_t key);

  Options options_;
  uint64_t per_shard_capacity_;
  std::vector<Shard> shards_;
  Stats stats_;
  // Last member: callbacks read stats_, so they unregister first.
  telemetry::CallbackGroup metrics_;
};

}  // namespace aquila

#endif  // AQUILA_SRC_KVS_BLOCK_CACHE_H_
