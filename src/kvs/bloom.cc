#include "src/kvs/bloom.h"

#include <algorithm>

#include "src/util/sim_clock.h"
#include "src/vmx/cost_model.h"

namespace aquila {

uint32_t BloomHash(const Slice& key) {
  // Murmur-inspired 32-bit hash (leveldb's BloomHash equivalent).
  const uint32_t seed = 0xbc9f1d34;
  const uint32_t m = 0xc6a4a793;
  const char* data = key.data();
  size_t n = key.size();
  uint32_t h = seed ^ static_cast<uint32_t>(n * m);
  while (n >= 4) {
    uint32_t w;
    std::memcpy(&w, data, 4);
    h += w;
    h *= m;
    h ^= h >> 16;
    data += 4;
    n -= 4;
  }
  switch (n) {
    case 3:
      h += static_cast<unsigned char>(data[2]) << 16;
      [[fallthrough]];
    case 2:
      h += static_cast<unsigned char>(data[1]) << 8;
      [[fallthrough]];
    case 1:
      h += static_cast<unsigned char>(data[0]);
      h *= m;
      h ^= h >> 24;
  }
  return h;
}

BloomFilterBuilder::BloomFilterBuilder(int bits_per_key) : bits_per_key_(bits_per_key) {}

void BloomFilterBuilder::AddKey(const Slice& key) { hashes_.push_back(BloomHash(key)); }

std::string BloomFilterBuilder::Finish() {
  // k = bits_per_key * ln(2), clamped like leveldb.
  int k = static_cast<int>(bits_per_key_ * 0.69);
  k = std::clamp(k, 1, 30);

  size_t bits = std::max<size_t>(hashes_.size() * bits_per_key_, 64);
  size_t bytes = (bits + 7) / 8;
  bits = bytes * 8;

  std::string result(bytes, '\0');
  for (uint32_t h : hashes_) {
    uint32_t delta = (h >> 17) | (h << 15);  // double hashing
    for (int j = 0; j < k; j++) {
      uint32_t bit = h % bits;
      result[bit / 8] |= static_cast<char>(1 << (bit % 8));
      h += delta;
    }
  }
  result.push_back(static_cast<char>(k));
  return result;
}

bool BloomFilter::MayContain(const Slice& key) const {
  if (data_.size() < 2) {
    return true;  // malformed/empty filter: be conservative
  }
  size_t bits = (data_.size() - 1) * 8;
  int k = data_[data_.size() - 1];
  if (k > 30 || k < 1) {
    return true;
  }
  uint32_t h = BloomHash(key);
  uint32_t delta = (h >> 17) | (h << 15);
  const uint64_t bloom_probe = GlobalCostModel().bloom_probe;
  for (int j = 0; j < k; j++) {
    uint32_t bit = h % bits;
    if ((data_[bit / 8] & (1 << (bit % 8))) == 0) {
      CountWork((j + 1) * bloom_probe);
      return false;
    }
    h += delta;
  }
  CountWork(k * bloom_probe);
  return true;
}

}  // namespace aquila
