#include "src/kvs/memtable.h"

#include "src/kvs/coding.h"
#include "src/util/logging.h"
#include "src/util/sim_clock.h"
#include "src/vmx/cost_model.h"

namespace aquila {

// Entry layout: varint32 klen | key | fixed64 tag | varint32 vlen | value,
// where tag = (sequence << 8) | type.
namespace {

struct DecodedEntry {
  Slice key;
  uint64_t tag;
  Slice value;
};

DecodedEntry DecodeEntry(const char* entry) {
  DecodedEntry out;
  uint32_t klen = 0;
  const char* p = GetVarint32Ptr(entry, entry + 5, &klen);
  out.key = Slice(p, klen);
  p += klen;
  out.tag = DecodeFixed64(p);
  p += 8;
  uint32_t vlen = 0;
  p = GetVarint32Ptr(p, p + 5, &vlen);
  out.value = Slice(p, vlen);
  return out;
}

}  // namespace

struct MemTable::Node {
  const char* entry;
  // Flexible array of next pointers, one per level.
  std::atomic<Node*> next[1];

  Node* Next(int level) { return next[level].load(std::memory_order_acquire); }
  void SetNext(int level, Node* node) { next[level].store(node, std::memory_order_release); }
};

MemTable::MemTable() {
  char* unused;
  head_ = NewNode(0, kMaxHeight, &unused);
  head_->entry = nullptr;
  for (int i = 0; i < kMaxHeight; i++) {
    head_->SetNext(i, nullptr);
  }
}

MemTable::Node* MemTable::NewNode(size_t entry_bytes, int height, char** entry_out) {
  size_t node_bytes = sizeof(Node) + sizeof(std::atomic<Node*>) * (height - 1);
  char* mem = arena_.AllocateAligned(node_bytes + entry_bytes);
  Node* node = reinterpret_cast<Node*>(mem);
  *entry_out = mem + node_bytes;
  node->entry = *entry_out;
  return node;
}

int MemTable::RandomHeight() {
  int height = 1;
  while (height < kMaxHeight && rng_.OneIn(4)) {
    height++;
  }
  return height;
}

int MemTable::CompareEntries(const char* a, const char* b) const {
  DecodedEntry da = DecodeEntry(a);
  DecodedEntry db = DecodeEntry(b);
  int r = da.key.compare(db.key);
  if (r != 0) {
    return r;
  }
  // Descending sequence: newer entries sort first.
  if (da.tag > db.tag) {
    return -1;
  }
  if (da.tag < db.tag) {
    return 1;
  }
  return 0;
}

int MemTable::CompareEntryToKey(const char* entry, const Slice& key, uint64_t sequence) const {
  DecodedEntry de = DecodeEntry(entry);
  int r = de.key.compare(key);
  if (r != 0) {
    return r;
  }
  uint64_t tag = (sequence << 8) | 0xff;
  if (de.tag > tag) {
    return -1;
  }
  if (de.tag < tag) {
    return 1;
  }
  return 0;
}

MemTable::Node* MemTable::FindGreaterOrEqual(const Slice& key, uint64_t sequence,
                                             Node** prev) const {
  Node* node = head_;
  int level = max_height_.load(std::memory_order_relaxed) - 1;
  uint64_t visited = 0;
  while (true) {
    Node* next = node->Next(level);
    visited++;
    if (next != nullptr && CompareEntryToKey(next->entry, key, sequence) < 0) {
      node = next;
    } else {
      if (prev != nullptr) {
        prev[level] = node;
      }
      if (level == 0) {
        CountWork(visited * GlobalCostModel().skiplist_node);
        return next;
      }
      level--;
    }
  }
}

void MemTable::Add(uint64_t sequence, ValueType type, const Slice& key, const Slice& value) {
  std::string encoded;
  encoded.reserve(key.size() + value.size() + 20);
  PutVarint32(&encoded, static_cast<uint32_t>(key.size()));
  encoded.append(key.data(), key.size());
  PutFixed64(&encoded, (sequence << 8) | static_cast<uint64_t>(type));
  PutVarint32(&encoded, static_cast<uint32_t>(value.size()));
  encoded.append(value.data(), value.size());

  int height = RandomHeight();
  char* entry;
  Node* node = NewNode(encoded.size(), height, &entry);
  std::memcpy(entry, encoded.data(), encoded.size());

  Node* prev[kMaxHeight];
  for (int i = 0; i < kMaxHeight; i++) {
    prev[i] = head_;
  }
  FindGreaterOrEqual(key, sequence, prev);

  int cur_height = max_height_.load(std::memory_order_relaxed);
  if (height > cur_height) {
    max_height_.store(height, std::memory_order_relaxed);
  }
  for (int i = 0; i < height; i++) {
    node->SetNext(i, prev[i]->Next(i));
    prev[i]->SetNext(i, node);
  }
  entries_.fetch_add(1, std::memory_order_relaxed);
}

bool MemTable::Get(const Slice& key, std::string* found_value, bool* deleted) const {
  // Newest entry for `key` is the first with user key == key (sequence
  // descending), so seek with the max sequence.
  Node* node = FindGreaterOrEqual(key, UINT64_MAX >> 8, nullptr);
  if (node == nullptr) {
    return false;
  }
  DecodedEntry entry = DecodeEntry(node->entry);
  if (entry.key != key) {
    return false;
  }
  ValueType type = static_cast<ValueType>(entry.tag & 0xff);
  if (type == ValueType::kDeletion) {
    *deleted = true;
    return true;
  }
  *deleted = false;
  found_value->assign(entry.value.data(), entry.value.size());
  return true;
}

MemTable::Iterator::Iterator(const MemTable* table) : table_(table), node_(nullptr) {}

bool MemTable::Iterator::Valid() const { return node_ != nullptr; }

void MemTable::Iterator::SeekToFirst() {
  node_ = const_cast<Node*>(table_->head_)->Next(0);
}

void MemTable::Iterator::Seek(const Slice& key) {
  node_ = table_->FindGreaterOrEqual(key, UINT64_MAX >> 8, nullptr);
}

void MemTable::Iterator::Next() {
  AQUILA_DCHECK(Valid());
  node_ = const_cast<Node*>(static_cast<const Node*>(node_))->Next(0);
}

Slice MemTable::Iterator::key() const {
  return DecodeEntry(static_cast<const Node*>(node_)->entry).key;
}

uint64_t MemTable::Iterator::sequence() const {
  return DecodeEntry(static_cast<const Node*>(node_)->entry).tag >> 8;
}

ValueType MemTable::Iterator::type() const {
  return static_cast<ValueType>(DecodeEntry(static_cast<const Node*>(node_)->entry).tag & 0xff);
}

Slice MemTable::Iterator::value() const {
  return DecodeEntry(static_cast<const Node*>(node_)->entry).value;
}

}  // namespace aquila
