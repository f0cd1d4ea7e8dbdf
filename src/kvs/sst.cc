#include "src/kvs/sst.h"

#include <algorithm>

#include "src/kvs/coding.h"
#include "src/util/crc32c.h"
#include "src/util/logging.h"
#include "src/vmx/cost_model.h"

namespace aquila {

namespace {

constexpr uint64_t kSstMagic = 0x53535441514c3231ull;  // "SSTAQL21"
constexpr size_t kFooterSize = 40;

struct ParsedEntry {
  Slice key;
  uint64_t tag;
  Slice value;
  const char* next;
};

// Returns false on corruption.
bool ParseEntry(const char* p, const char* limit, ParsedEntry* out) {
  uint32_t klen, vlen;
  p = GetVarint32Ptr(p, limit, &klen);
  if (p == nullptr) {
    return false;
  }
  p = GetVarint32Ptr(p, limit, &vlen);
  if (p == nullptr || p + 8 + klen + vlen > limit) {
    return false;
  }
  out->tag = DecodeFixed64(p);
  p += 8;
  out->key = Slice(p, klen);
  out->value = Slice(p + klen, vlen);
  out->next = p + klen + vlen;
  return true;
}

}  // namespace

SstBuilder::SstBuilder(WritableFile* file, const SstOptions& options)
    : file_(file), options_(options), bloom_(options.bloom_bits_per_key) {}

void SstBuilder::Add(const Slice& key, uint64_t sequence, ValueType type, const Slice& value) {
  if (num_entries_ == 0) {
    smallest_ = key.ToString();
  }
  largest_ = key.ToString();
  bloom_.AddKey(key);

  PutVarint32(&pending_block_, static_cast<uint32_t>(key.size()));
  PutVarint32(&pending_block_, static_cast<uint32_t>(value.size()));
  PutFixed64(&pending_block_, (sequence << 8) | static_cast<uint64_t>(type));
  pending_block_.append(key.data(), key.size());
  pending_block_.append(value.data(), value.size());
  pending_last_key_ = key.ToString();
  num_entries_++;

  if (pending_block_.size() >= options_.block_size) {
    FlushBlock();
  }
}

void SstBuilder::FlushBlock() {
  if (pending_block_.empty()) {
    return;
  }
  // Index entries record the payload size; a fixed32 CRC32C trailer follows
  // each data block on disk (leveldb-style per-block checksum).
  PutLengthPrefixedSlice(&index_, pending_last_key_);
  PutFixed64(&index_, offset_);
  PutFixed64(&index_, pending_block_.size());
  PutFixed32(&pending_block_, Crc32c(pending_block_.data(), pending_block_.size()));
  Status status = file_->Append(pending_block_);
  if (!status.ok()) {
    status_ = status;
  }
  offset_ += pending_block_.size();
  pending_block_.clear();
}

Status SstBuilder::Finish() {
  FlushBlock();
  AQUILA_RETURN_IF_ERROR(status_);

  std::string filter = bloom_.Finish();
  uint64_t filter_off = offset_;
  AQUILA_RETURN_IF_ERROR(file_->Append(filter));
  offset_ += filter.size();

  uint64_t index_off = offset_;
  AQUILA_RETURN_IF_ERROR(file_->Append(index_));
  offset_ += index_.size();

  std::string footer;
  PutFixed64(&footer, index_off);
  PutFixed64(&footer, index_.size());
  PutFixed64(&footer, filter_off);
  PutFixed64(&footer, filter.size());
  PutFixed64(&footer, kSstMagic);
  AQUILA_CHECK(footer.size() == kFooterSize);
  AQUILA_RETURN_IF_ERROR(file_->Append(footer));
  offset_ += footer.size();
  return Status::Ok();
}

StatusOr<std::unique_ptr<SstReader>> SstReader::Open(std::unique_ptr<RandomAccessFile> file,
                                                     BlockCache* cache, uint64_t file_id) {
  uint64_t size = file->Size();
  if (size < kFooterSize) {
    return Status::IoError("SST too small");
  }
  char footer_buf[kFooterSize];
  Slice footer;
  AQUILA_RETURN_IF_ERROR(file->Read(size - kFooterSize, kFooterSize, footer_buf, &footer));
  if (footer.size() != kFooterSize ||
      DecodeFixed64(footer.data() + 32) != kSstMagic) {
    return Status::IoError("bad SST footer");
  }
  uint64_t index_off = DecodeFixed64(footer.data());
  uint64_t index_size = DecodeFixed64(footer.data() + 8);
  uint64_t filter_off = DecodeFixed64(footer.data() + 16);
  uint64_t filter_size = DecodeFixed64(footer.data() + 24);
  if (index_off + index_size > size || filter_off + filter_size > size) {
    return Status::IoError("bad SST footer ranges");
  }

  auto reader = std::unique_ptr<SstReader>(new SstReader());
  reader->cache_ = cache;
  reader->file_id_ = file_id;

  // Index and filter blocks are read once and pinned (RocksDB default).
  std::string index_data(index_size, '\0');
  Slice index_slice;
  AQUILA_RETURN_IF_ERROR(file->Read(index_off, index_size, index_data.data(), &index_slice));
  reader->filter_data_.resize(filter_size);
  Slice filter_slice;
  AQUILA_RETURN_IF_ERROR(
      file->Read(filter_off, filter_size, reader->filter_data_.data(), &filter_slice));
  if (filter_slice.data() != reader->filter_data_.data()) {
    reader->filter_data_.assign(filter_slice.data(), filter_slice.size());
  }

  Slice in(index_slice.data(), index_slice.size());
  while (!in.empty()) {
    Slice last_key;
    if (!GetLengthPrefixedSlice(&in, &last_key) || in.size() < 16) {
      return Status::IoError("corrupt SST index");
    }
    IndexEntry entry;
    entry.last_key = last_key.ToString();
    entry.offset = DecodeFixed64(in.data());
    entry.size = DecodeFixed64(in.data() + 8);
    in = Slice(in.data() + 16, in.size() - 16);
    reader->index_.push_back(std::move(entry));
  }
  reader->file_ = std::move(file);
  if (!reader->index_.empty()) {
    reader->largest_ = reader->index_.back().last_key;
    // Smallest: first key of the first block.
    StatusOr<std::shared_ptr<const std::string>> block = reader->ReadBlock(0);
    if (!block.ok()) {
      return block.status();
    }
    ParsedEntry entry;
    if (!ParseEntry((*block)->data(), (*block)->data() + (*block)->size(), &entry)) {
      return Status::IoError("corrupt first SST block");
    }
    reader->smallest_ = entry.key.ToString();
  }
  return reader;
}

StatusOr<std::shared_ptr<const std::string>> SstReader::ReadBlock(size_t block_index) {
  const IndexEntry& entry = index_[block_index];
  if (cache_ != nullptr) {
    std::shared_ptr<const std::string> cached = cache_->Lookup(file_id_, entry.offset);
    if (cached != nullptr) {
      return cached;
    }
  }
  auto block = std::make_shared<std::string>(entry.size + 4, '\0');
  Slice result;
  AQUILA_RETURN_IF_ERROR(file_->Read(entry.offset, entry.size + 4, block->data(), &result));
  if (result.size() != entry.size + 4) {
    return Status::IoError("short SST block read");
  }
  if (result.data() != block->data()) {
    block->assign(result.data(), result.size());
  }
  if (Crc32c(block->data(), entry.size) != DecodeFixed32(block->data() + entry.size)) {
    return Status::IoError("SST block checksum mismatch");
  }
  block->resize(entry.size);  // drop the CRC trailer; callers see payload only
  std::shared_ptr<const std::string> shared = std::move(block);
  if (cache_ != nullptr) {
    cache_->Insert(file_id_, entry.offset, shared);
  }
  return shared;
}

Status SstReader::Get(const Slice& key, std::string* value, bool* found, bool* deleted) {
  *found = false;
  *deleted = false;
  if (index_.empty()) {
    return Status::Ok();
  }
  {
    ScopedMeasure measure(ThisThreadClock(), CostCategory::kUserWork);
    if (!BloomFilter(Slice(filter_data_)).MayContain(key)) {
      return Status::Ok();
    }
  }
  // First block whose last key >= key.
  auto it = std::lower_bound(index_.begin(), index_.end(), key,
                             [](const IndexEntry& e, const Slice& k) {
                               return Slice(e.last_key).compare(k) < 0;
                             });
  if (it == index_.end()) {
    return Status::Ok();
  }
  StatusOr<std::shared_ptr<const std::string>> block =
      ReadBlock(static_cast<size_t>(it - index_.begin()));
  if (!block.ok()) {
    return block.status();
  }
  ScopedMeasure measure(ThisThreadClock(), CostCategory::kUserWork);
  const uint64_t block_entry = GlobalCostModel().block_entry;
  const char* p = (*block)->data();
  const char* limit = p + (*block)->size();
  while (p < limit) {
    ParsedEntry entry;
    CountWork(block_entry);
    if (!ParseEntry(p, limit, &entry)) {
      return Status::IoError("corrupt SST block");
    }
    int cmp = entry.key.compare(key);
    if (cmp == 0) {
      // Newest version first (sequence descending within a user key).
      *found = true;
      if (static_cast<ValueType>(entry.tag & 0xff) == ValueType::kDeletion) {
        *deleted = true;
      } else {
        value->assign(entry.value.data(), entry.value.size());
      }
      return Status::Ok();
    }
    if (cmp > 0) {
      return Status::Ok();
    }
    p = entry.next;
  }
  return Status::Ok();
}

SstReader::Iterator::Iterator(SstReader* reader) : reader_(reader) {}

bool SstReader::Iterator::LoadBlock(size_t block_index) {
  if (block_index >= reader_->index_.size()) {
    valid_ = false;
    return false;
  }
  StatusOr<std::shared_ptr<const std::string>> block = reader_->ReadBlock(block_index);
  if (!block.ok()) {
    status_ = block.status();
    valid_ = false;
    return false;
  }
  block_index_ = block_index;
  block_ = *block;
  pos_ = block_->data();
  return true;
}

bool SstReader::Iterator::ParseCurrent() {
  if (pos_ >= block_->data() + block_->size()) {
    // Advance to the next block.
    if (!LoadBlock(block_index_ + 1)) {
      return false;
    }
  }
  ParsedEntry entry;
  if (!ParseEntry(pos_, block_->data() + block_->size(), &entry)) {
    status_ = Status::IoError("corrupt SST block");
    valid_ = false;
    return false;
  }
  key_ = entry.key;
  tag_ = entry.tag;
  value_ = entry.value;
  valid_ = true;
  return true;
}

void SstReader::Iterator::SeekToFirst() {
  if (!LoadBlock(0)) {
    return;
  }
  ParseCurrent();
}

void SstReader::Iterator::Seek(const Slice& key) {
  auto it = std::lower_bound(reader_->index_.begin(), reader_->index_.end(), key,
                             [](const IndexEntry& e, const Slice& k) {
                               return Slice(e.last_key).compare(k) < 0;
                             });
  if (it == reader_->index_.end()) {
    valid_ = false;
    return;
  }
  if (!LoadBlock(static_cast<size_t>(it - reader_->index_.begin()))) {
    return;
  }
  while (ParseCurrent()) {
    if (key_.compare(key) >= 0) {
      return;
    }
    pos_ = value_.data() + value_.size();
  }
}

void SstReader::Iterator::Next() {
  AQUILA_DCHECK(valid_);
  pos_ = value_.data() + value_.size();
  ParseCurrent();
}

}  // namespace aquila
