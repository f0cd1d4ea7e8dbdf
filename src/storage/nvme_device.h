// SPDK-style user-space NVMe model (§3.3 "Direct access to NVMe").
//
// Aquila maps NVMe configuration registers into non-root ring 0 and drives
// the device through SPDK: per-thread submission/completion queue pairs,
// doorbell writes, and polled completions — no syscall, no interrupt. This
// model reproduces that machinery:
//
//   NvmeController — the device: a flash image, timing parameters calibrated
//       to the paper's Intel Optane P4800X (~10 us access latency, ~500 K
//       random 4 KB IOPS), and a channel modeled as a serialized resource so
//       concurrent queues observe bandwidth saturation and queueing.
//   NvmeQueuePair  — single-owner (per-core) SQ/CQ pair with a bounded ring:
//       Submit() books media time and returns a command id; Poll()/Wait()
//       reap completions, advancing the caller's simulated clock (polling
//       burns CPU, charged to kDeviceIo as on real SPDK).
//   NvmeDevice     — synchronous BlockDevice facade over per-core queue
//       pairs; WriteBatch overlaps an eviction batch on the queue before
//       draining it, which is where mmio writeback gets its batching win.
//
// Data movement is real (the flash image holds the bytes); only timing is
// modeled.
#ifndef AQUILA_SRC_STORAGE_NVME_DEVICE_H_
#define AQUILA_SRC_STORAGE_NVME_DEVICE_H_

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/storage/block_device.h"
#include "src/storage/device_queue.h"
#include "src/util/cpu.h"
#include "src/util/sim_clock.h"
#include "src/util/spinlock.h"

namespace aquila {

enum class NvmeOpcode : uint8_t {
  kFlush = 0x00,
  kWrite = 0x01,
  kRead = 0x02,
};

struct NvmeCommand {
  NvmeOpcode opcode = NvmeOpcode::kFlush;
  uint64_t slba = 0;   // starting LBA (512-byte blocks)
  uint32_t nlb = 0;    // number of blocks
  void* prp = nullptr; // data buffer
};

class NvmeController {
 public:
  static constexpr uint64_t kLbaSize = 512;

  struct Options {
    uint64_t capacity_bytes = 1ull << 30;
    // Media latency per command (~10 us at 2.4 GHz).
    uint64_t read_latency_cycles = 24000;
    uint64_t write_latency_cycles = 24000;
    // Channel occupancy per 4 KB transferred (~500 K IOPS -> 2 us -> 4800).
    uint64_t channel_cycles_per_4k = 4800;
    // CPU cost of building a descriptor + doorbell write (SPDK submit path)
    // and of reaping one completion.
    uint64_t submit_cost_cycles = 200;
    uint64_t complete_cost_cycles = 150;
    uint32_t queue_depth = 128;
  };

  explicit NvmeController(const Options& options);
  ~NvmeController();

  NvmeController(const NvmeController&) = delete;
  NvmeController& operator=(const NvmeController&) = delete;

  const Options& options() const { return options_; }
  uint64_t capacity_bytes() const { return options_.capacity_bytes; }
  uint8_t* flash() { return flash_; }

  // Books media/channel time for one command; returns its completion time.
  uint64_t ReserveMedia(uint64_t arrival, NvmeOpcode opcode, uint64_t bytes);

 private:
  Options options_;
  uint8_t* flash_ = nullptr;
  SerializedResource channel_;
};

// One SQ/CQ pair. Single-owner: not thread-safe (SPDK's contract).
class NvmeQueuePair {
 public:
  NvmeQueuePair(NvmeController* controller, uint32_t depth);

  // Submits a command. Fails with OutOfSpace when the ring is full (caller
  // must Poll first). Returns the command id.
  StatusOr<uint16_t> Submit(Vcpu& vcpu, const NvmeCommand& cmd);

  // Reaps completions whose media time has passed; returns how many.
  // Non-blocking with respect to simulated time.
  int Poll(Vcpu& vcpu);

  // Busy-polls (advancing simulated time) until command `cid` completes.
  Status Wait(Vcpu& vcpu, uint16_t cid);

  // Drains every outstanding command.
  Status WaitAll(Vcpu& vcpu);

  uint32_t outstanding() const { return outstanding_; }
  uint32_t depth() const { return depth_; }

 private:
  struct Slot {
    bool in_use = false;
    bool done = false;
    uint16_t cid = 0;
    uint64_t ready_at = 0;
  };

  NvmeController* controller_;
  uint32_t depth_;
  uint32_t outstanding_ = 0;
  uint16_t next_cid_ = 1;
  std::vector<Slot> slots_;
};

// Native DeviceQueue over one NvmeController: the SPDK queue-pair model
// behind the generic submission/completion interface. Submit charges the
// doorbell cost and books media time; Poll charges the per-completion reap
// cost once the media is done. Single-owner, like NvmeQueuePair. Accepted
// submissions count in the owning device's DeviceStats, like the
// synchronous entry points they bypass.
class NvmeDeviceQueue : public DeviceQueue {
 public:
  NvmeDeviceQueue(NvmeController* controller, uint32_t depth, DeviceStats* stats);

  const char* name() const override { return "nvme"; }
  uint64_t io_alignment() const override { return NvmeController::kLbaSize; }

  Status SubmitRead(Vcpu& vcpu, uint64_t offset, std::span<uint8_t> dst,
                    uint64_t user_data) override;
  Status SubmitWrite(Vcpu& vcpu, uint64_t offset, std::span<const uint8_t> src,
                     uint64_t user_data) override;
  uint32_t Poll(Vcpu& vcpu, std::vector<Completion>* out) override;
  uint64_t NextReadyAt() const override;

 private:
  struct Slot {
    bool in_use = false;
    uint64_t user_data = 0;
    uint64_t submit_at = 0;
    uint64_t ready_at = 0;
  };

  Status Submit(Vcpu& vcpu, NvmeOpcode opcode, uint64_t offset, uint8_t* buffer,
                uint64_t bytes, uint64_t user_data);

  NvmeController* controller_;
  DeviceStats* stats_;
  std::vector<Slot> slots_;
};

// Synchronous BlockDevice facade over per-core queue pairs (SPDK path: no
// syscalls, direct device access from non-root ring 0).
class NvmeDevice : public BlockDevice {
 public:
  explicit NvmeDevice(NvmeController* controller);

  const char* name() const override { return "nvme"; }
  uint64_t capacity_bytes() const override { return controller_->capacity_bytes(); }
  // Byte-granular at this interface: partial LBAs are bounced internally
  // (read-modify-write), exactly like the kernel's block layer.
  uint64_t io_alignment() const override { return 1; }

  bool supports_queueing() const override { return true; }
  std::unique_ptr<DeviceQueue> CreateQueue(uint32_t depth) override;

 protected:
  Status DoRead(Vcpu& vcpu, uint64_t offset, std::span<uint8_t> dst) override;
  Status DoWrite(Vcpu& vcpu, uint64_t offset, std::span<const uint8_t> src) override;
  Status DoWriteBatch(Vcpu& vcpu, std::span<const uint64_t> offsets,
                      std::span<const uint8_t* const> pages, uint64_t page_bytes) override;
  Status DoReadBatch(Vcpu& vcpu, std::span<const uint64_t> offsets,
                     std::span<uint8_t* const> pages, uint64_t page_bytes) override;

 private:
  NvmeQueuePair& QueueForThisCore();

  NvmeController* controller_;
  SpinLock qp_lock_;
  std::array<std::unique_ptr<NvmeQueuePair>, CoreRegistry::kMaxCores> qps_;
};

}  // namespace aquila

#endif  // AQUILA_SRC_STORAGE_NVME_DEVICE_H_
