// Device I/O accounting for the end-to-end benchmark.
//
// CountingDevice sits between Aquila and the simulated medium and counts
// every I/O that crosses it, on both paths a mapping can use: the
// synchronous BlockDevice entry points (fault reads, batched writeback,
// flushes) and the DeviceQueue the async engine submits to. The runtime's
// own DeviceStats (aquila.storage.*) only see the synchronous entry points,
// so they miss whatever the async engine writes back through its queue;
// counting here keeps the storage.* metrics right whichever path the
// runtime takes.
//
// Batches count one I/O per page. The decorator charges no simulated time:
// the inner device does all the charging, so wrapping it leaves the sim
// metrics unchanged.
#ifndef AQUILA_BENCH_E2E_COUNTING_DEVICE_H_
#define AQUILA_BENCH_E2E_COUNTING_DEVICE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/storage/block_device.h"
#include "src/storage/device_queue.h"

namespace aquila {
namespace e2e {

struct IoCounts {
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;
  uint64_t flushes = 0;
  uint64_t queued_ios = 0;  // reads + writes that went through a DeviceQueue
};

class IoCounters {
 public:
  void Read(uint64_t bytes, bool queued) {
    reads_.fetch_add(1, std::memory_order_relaxed);
    bytes_read_.fetch_add(bytes, std::memory_order_relaxed);
    if (queued) {
      queued_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  void Write(uint64_t bytes, bool queued) {
    writes_.fetch_add(1, std::memory_order_relaxed);
    bytes_written_.fetch_add(bytes, std::memory_order_relaxed);
    if (queued) {
      queued_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  void Flush() { flushes_.fetch_add(1, std::memory_order_relaxed); }

  IoCounts Snapshot() const {
    return IoCounts{reads_.load(std::memory_order_relaxed),
                    writes_.load(std::memory_order_relaxed),
                    bytes_read_.load(std::memory_order_relaxed),
                    bytes_written_.load(std::memory_order_relaxed),
                    flushes_.load(std::memory_order_relaxed),
                    queued_.load(std::memory_order_relaxed)};
  }

 private:
  std::atomic<uint64_t> reads_{0};
  std::atomic<uint64_t> writes_{0};
  std::atomic<uint64_t> bytes_read_{0};
  std::atomic<uint64_t> bytes_written_{0};
  std::atomic<uint64_t> flushes_{0};
  std::atomic<uint64_t> queued_{0};
};

// Counts submissions on the way to the inner queue. Completions pass
// through untouched apart from the base class's in-flight bookkeeping.
class CountingQueue : public DeviceQueue {
 public:
  CountingQueue(std::unique_ptr<DeviceQueue> inner, IoCounters* counters)
      : DeviceQueue(inner->depth()), inner_(std::move(inner)), counters_(counters) {}

  const char* name() const override { return inner_->name(); }
  uint64_t io_alignment() const override { return inner_->io_alignment(); }

  Status SubmitRead(Vcpu& vcpu, uint64_t offset, std::span<uint8_t> dst,
                    uint64_t user_data) override {
    Status s = inner_->SubmitRead(vcpu, offset, dst, user_data);
    if (s.ok()) {
      counters_->Read(dst.size(), /*queued=*/true);
      NoteSubmit(vcpu.clock().Now());
    }
    return s;
  }

  Status SubmitWrite(Vcpu& vcpu, uint64_t offset, std::span<const uint8_t> src,
                     uint64_t user_data) override {
    Status s = inner_->SubmitWrite(vcpu, offset, src, user_data);
    if (s.ok()) {
      counters_->Write(src.size(), /*queued=*/true);
      NoteSubmit(vcpu.clock().Now());
    }
    return s;
  }

  uint32_t Poll(Vcpu& vcpu, std::vector<Completion>* out) override {
    uint32_t n = inner_->Poll(vcpu, out);
    for (uint32_t i = 0; i < n; i++) {
      NoteComplete(vcpu.clock().Now(), /*submit_at=*/0);  // inner recorded latency
    }
    return n;
  }

  uint64_t NextReadyAt() const override { return inner_->NextReadyAt(); }

  bool Cancel(uint64_t user_data) override {
    if (!inner_->Cancel(user_data)) {
      return false;
    }
    NoteComplete(0, 0);  // the withdrawn command will never be reaped
    return true;
  }

 private:
  std::unique_ptr<DeviceQueue> inner_;
  IoCounters* counters_;
};

class CountingDevice : public BlockDevice {
 public:
  explicit CountingDevice(BlockDevice* inner) : inner_(inner) {}

  const char* name() const override { return inner_->name(); }
  uint64_t capacity_bytes() const override { return inner_->capacity_bytes(); }
  uint64_t io_alignment() const override { return inner_->io_alignment(); }
  bool supports_queueing() const override { return inner_->supports_queueing(); }

  // The inner device picks native queue or sync shim; either way the
  // submissions are counted here as queued I/O.
  std::unique_ptr<DeviceQueue> CreateQueue(uint32_t depth) override {
    return std::make_unique<CountingQueue>(inner_->CreateQueue(depth), &counters_);
  }

  IoCounts counts() const { return counters_.Snapshot(); }

 protected:
  Status DoRead(Vcpu& vcpu, uint64_t offset, std::span<uint8_t> dst) override {
    counters_.Read(dst.size(), false);
    return inner_->Read(vcpu, offset, dst);
  }
  Status DoWrite(Vcpu& vcpu, uint64_t offset, std::span<const uint8_t> src) override {
    counters_.Write(src.size(), false);
    return inner_->Write(vcpu, offset, src);
  }
  // Forwarded whole so a queueing medium still overlaps the batch.
  Status DoWriteBatch(Vcpu& vcpu, std::span<const uint64_t> offsets,
                      std::span<const uint8_t* const> pages, uint64_t page_bytes) override {
    for (size_t i = 0; i < offsets.size(); i++) {
      counters_.Write(page_bytes, false);
    }
    return inner_->WriteBatch(vcpu, offsets, pages, page_bytes);
  }
  Status DoReadBatch(Vcpu& vcpu, std::span<const uint64_t> offsets,
                     std::span<uint8_t* const> pages, uint64_t page_bytes) override {
    for (size_t i = 0; i < offsets.size(); i++) {
      counters_.Read(page_bytes, false);
    }
    return inner_->ReadBatch(vcpu, offsets, pages, page_bytes);
  }
  Status DoFlush(Vcpu& vcpu) override {
    counters_.Flush();
    return inner_->Flush(vcpu);
  }

 private:
  BlockDevice* inner_;
  IoCounters counters_;
};

}  // namespace e2e
}  // namespace aquila

#endif  // AQUILA_BENCH_E2E_COUNTING_DEVICE_H_
