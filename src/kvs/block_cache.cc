#include "src/kvs/block_cache.h"

#include "src/util/bitops.h"
#include "src/util/logging.h"

namespace aquila {

BlockCache::BlockCache(const Options& options)
    : options_(options),
      per_shard_capacity_(options.capacity_bytes / options.shards),
      shards_(options.shards) {
  AQUILA_CHECK(options.shards > 0);

  metrics_.AddCounter("aquila.kvs.block_cache_hits", stats_.hits);
  metrics_.AddCounter("aquila.kvs.block_cache_misses", stats_.misses);
  metrics_.AddCounter("aquila.kvs.block_cache_inserts", stats_.inserts);
  metrics_.AddCounter("aquila.kvs.block_cache_evictions", stats_.evictions);
  metrics_.AddGauge("aquila.kvs.block_cache_bytes", [this] { return UsedBytes(); });
}

BlockCache::Shard& BlockCache::ShardFor(uint64_t key) {
  return shards_[Mix64(key) % shards_.size()];
}

std::shared_ptr<const std::string> BlockCache::Lookup(uint64_t file_id, uint64_t offset) {
  ThisThreadClock().Charge(CostCategory::kCacheMgmt, options_.lookup_surcharge);

  uint64_t key = MakeKey(file_id, offset);
  Shard& shard = ShardFor(key);
  std::lock_guard<SpinLock> guard(shard.lock);
  auto it = shard.table.find(key);
  if (it == shard.table.end()) {
    stats_.misses.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  // LRU update on every hit: the management cost mmio avoids.
  shard.lru.erase(it->second.lru_pos);
  shard.lru.push_back(key);
  it->second.lru_pos = std::prev(shard.lru.end());
  stats_.hits.fetch_add(1, std::memory_order_relaxed);
  return it->second.block;
}

void BlockCache::Insert(uint64_t file_id, uint64_t offset,
                        std::shared_ptr<const std::string> block) {
  ThisThreadClock().Charge(CostCategory::kCacheMgmt, options_.insert_surcharge);

  uint64_t key = MakeKey(file_id, offset);
  uint64_t bytes = block->size() + 64;  // entry overhead
  Shard& shard = ShardFor(key);
  std::lock_guard<SpinLock> guard(shard.lock);
  auto it = shard.table.find(key);
  if (it != shard.table.end()) {
    shard.used_bytes -= it->second.block->size() + 64;
    shard.lru.erase(it->second.lru_pos);
    shard.table.erase(it);
  }
  while (shard.used_bytes + bytes > per_shard_capacity_ && !shard.lru.empty()) {
    uint64_t victim = shard.lru.front();
    shard.lru.pop_front();
    auto vit = shard.table.find(victim);
    AQUILA_DCHECK(vit != shard.table.end());
    shard.used_bytes -= vit->second.block->size() + 64;
    shard.table.erase(vit);
    stats_.evictions.fetch_add(1, std::memory_order_relaxed);
  }
  shard.lru.push_back(key);
  Entry entry{key, std::move(block), std::prev(shard.lru.end())};
  shard.table.emplace(key, std::move(entry));
  shard.used_bytes += bytes;
  stats_.inserts.fetch_add(1, std::memory_order_relaxed);
}

void BlockCache::Erase(uint64_t file_id, uint64_t offset) {
  uint64_t key = MakeKey(file_id, offset);
  Shard& shard = ShardFor(key);
  std::lock_guard<SpinLock> guard(shard.lock);
  auto it = shard.table.find(key);
  if (it != shard.table.end()) {
    shard.used_bytes -= it->second.block->size() + 64;
    shard.lru.erase(it->second.lru_pos);
    shard.table.erase(it);
  }
}

uint64_t BlockCache::UsedBytes() const {
  uint64_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<SpinLock> guard(const_cast<SpinLock&>(shard.lock));
    total += shard.used_bytes;
  }
  return total;
}

}  // namespace aquila
