#include "src/storage/nvme_device.h"

#include <sys/mman.h>

#include <cstring>
#include <vector>

#include "src/util/bitops.h"
#include "src/util/logging.h"

namespace aquila {

NvmeController::NvmeController(const Options& options) : options_(options) {
  void* mem = mmap(nullptr, options_.capacity_bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  AQUILA_CHECK(mem != MAP_FAILED);
  flash_ = static_cast<uint8_t*>(mem);
}

NvmeController::~NvmeController() {
  if (flash_ != nullptr) {
    munmap(flash_, options_.capacity_bytes);
  }
}

uint64_t NvmeController::ReserveMedia(uint64_t arrival, NvmeOpcode opcode, uint64_t bytes) {
  uint64_t latency = opcode == NvmeOpcode::kWrite ? options_.write_latency_cycles
                                                  : options_.read_latency_cycles;
  uint64_t transfer = options_.channel_cycles_per_4k * ((bytes + kPageSize - 1) / kPageSize);
  // The channel serializes transfers; fixed access latency overlaps between
  // commands (it is internal device parallelism), so only the transfer slice
  // is serialized and the latency is added on top.
  uint64_t channel_done = channel_.Reserve(arrival, transfer);
  return channel_done + latency;
}

NvmeQueuePair::NvmeQueuePair(NvmeController* controller, uint32_t depth)
    : controller_(controller), depth_(depth), slots_(depth) {}

StatusOr<uint16_t> NvmeQueuePair::Submit(Vcpu& vcpu, const NvmeCommand& cmd) {
  if (outstanding_ >= depth_) {
    return Status::OutOfSpace("submission queue full");
  }
  uint64_t bytes = static_cast<uint64_t>(cmd.nlb) * NvmeController::kLbaSize;
  uint64_t offset = cmd.slba * NvmeController::kLbaSize;
  if (offset + bytes > controller_->capacity_bytes()) {
    return Status::InvalidArgument("NVMe command out of range");
  }

  // SPDK submit path: build descriptor, ring doorbell.
  vcpu.clock().Charge(CostCategory::kDeviceIo, controller_->options().submit_cost_cycles);

  // DMA the data now (the model resolves data at submission; completion only
  // gates time). Writes copy into flash, reads out of it.
  if (cmd.opcode == NvmeOpcode::kWrite) {
    std::memcpy(controller_->flash() + offset, cmd.prp, bytes);
  } else if (cmd.opcode == NvmeOpcode::kRead) {
    std::memcpy(cmd.prp, controller_->flash() + offset, bytes);
  }

  uint64_t ready_at = controller_->ReserveMedia(vcpu.clock().Now(), cmd.opcode, bytes);

  for (Slot& slot : slots_) {
    if (!slot.in_use) {
      slot.in_use = true;
      slot.done = false;
      slot.cid = next_cid_++;
      if (next_cid_ == 0) {
        next_cid_ = 1;
      }
      slot.ready_at = ready_at;
      outstanding_++;
      return slot.cid;
    }
  }
  return Status::OutOfSpace("submission queue full");
}

int NvmeQueuePair::Poll(Vcpu& vcpu) {
  int reaped = 0;
  uint64_t now = vcpu.clock().Now();
  for (Slot& slot : slots_) {
    if (slot.in_use && !slot.done && slot.ready_at <= now) {
      slot.done = true;
      slot.in_use = false;
      outstanding_--;
      reaped++;
      vcpu.clock().Charge(CostCategory::kDeviceIo, controller_->options().complete_cost_cycles);
    }
  }
  return reaped;
}

Status NvmeQueuePair::Wait(Vcpu& vcpu, uint16_t cid) {
  for (Slot& slot : slots_) {
    if (slot.in_use && slot.cid == cid) {
      // Busy-poll: the CPU spins on the completion queue until the media is
      // done; the wait is device time from the thread's perspective.
      vcpu.clock().AdvanceTo(slot.ready_at, CostCategory::kDeviceIo);
      slot.done = true;
      slot.in_use = false;
      outstanding_--;
      vcpu.clock().Charge(CostCategory::kDeviceIo, controller_->options().complete_cost_cycles);
      return Status::Ok();
    }
  }
  return Status::NotFound("command id not outstanding");
}

Status NvmeQueuePair::WaitAll(Vcpu& vcpu) {
  uint64_t latest = 0;
  for (Slot& slot : slots_) {
    if (slot.in_use && slot.ready_at > latest) {
      latest = slot.ready_at;
    }
  }
  if (latest != 0) {
    vcpu.clock().AdvanceTo(latest, CostCategory::kDeviceIo);
  }
  Poll(vcpu);
  AQUILA_CHECK(outstanding_ == 0);
  return Status::Ok();
}

NvmeDeviceQueue::NvmeDeviceQueue(NvmeController* controller, uint32_t depth,
                                 DeviceStats* stats)
    : DeviceQueue(depth), controller_(controller), stats_(stats), slots_(this->depth()) {}

Status NvmeDeviceQueue::Submit(Vcpu& vcpu, NvmeOpcode opcode, uint64_t offset,
                               uint8_t* buffer, uint64_t bytes, uint64_t user_data) {
  if (Full()) {
    return Status::OutOfSpace("device queue full");
  }
  if (!IsAligned(offset, NvmeController::kLbaSize) ||
      !IsAligned(bytes, NvmeController::kLbaSize) || bytes == 0 ||
      offset + bytes > controller_->capacity_bytes()) {
    return Status::InvalidArgument("unaligned or out-of-range NVMe submission");
  }
  // SPDK submit path: build descriptor, ring doorbell; DMA resolves the
  // data now, the completion only gates simulated time.
  vcpu.clock().Charge(CostCategory::kDeviceIo, controller_->options().submit_cost_cycles);
  if (opcode == NvmeOpcode::kWrite) {
    std::memcpy(controller_->flash() + offset, buffer, bytes);
  } else {
    std::memcpy(buffer, controller_->flash() + offset, bytes);
  }
  uint64_t now = vcpu.clock().Now();
  uint64_t ready_at = controller_->ReserveMedia(now, opcode, bytes);
  for (Slot& slot : slots_) {
    if (!slot.in_use) {
      slot = Slot{true, user_data, now, ready_at};
      NoteSubmit(now);
      if (opcode == NvmeOpcode::kWrite) {
        stats_->writes.fetch_add(1, std::memory_order_relaxed);
        stats_->bytes_written.fetch_add(bytes, std::memory_order_relaxed);
      } else {
        stats_->reads.fetch_add(1, std::memory_order_relaxed);
        stats_->bytes_read.fetch_add(bytes, std::memory_order_relaxed);
      }
      return Status::Ok();
    }
  }
  return Status::OutOfSpace("device queue full");
}

Status NvmeDeviceQueue::SubmitRead(Vcpu& vcpu, uint64_t offset, std::span<uint8_t> dst,
                                   uint64_t user_data) {
  return Submit(vcpu, NvmeOpcode::kRead, offset, dst.data(), dst.size(), user_data);
}

Status NvmeDeviceQueue::SubmitWrite(Vcpu& vcpu, uint64_t offset, std::span<const uint8_t> src,
                                    uint64_t user_data) {
  return Submit(vcpu, NvmeOpcode::kWrite, offset, const_cast<uint8_t*>(src.data()), src.size(),
                user_data);
}

uint32_t NvmeDeviceQueue::Poll(Vcpu& vcpu, std::vector<Completion>* out) {
  uint32_t reaped = 0;
  uint64_t now = vcpu.clock().Now();
  for (Slot& slot : slots_) {
    if (slot.in_use && slot.ready_at <= now) {
      slot.in_use = false;
      vcpu.clock().Charge(CostCategory::kDeviceIo, controller_->options().complete_cost_cycles);
      NoteComplete(now, slot.submit_at);
      out->push_back(Completion{slot.user_data, Status::Ok(), slot.submit_at, slot.ready_at});
      reaped++;
    }
  }
  return reaped;
}

uint64_t NvmeDeviceQueue::NextReadyAt() const {
  uint64_t next = UINT64_MAX;
  for (const Slot& slot : slots_) {
    if (slot.in_use && slot.ready_at < next) {
      next = slot.ready_at;
    }
  }
  return next;
}

NvmeDevice::NvmeDevice(NvmeController* controller) : controller_(controller) {}

std::unique_ptr<DeviceQueue> NvmeDevice::CreateQueue(uint32_t depth) {
  return std::make_unique<NvmeDeviceQueue>(controller_, depth, &stats_);
}

NvmeQueuePair& NvmeDevice::QueueForThisCore() {
  int core = CoreRegistry::CurrentCore();
  if (qps_[core] == nullptr) {
    std::lock_guard<SpinLock> guard(qp_lock_);
    if (qps_[core] == nullptr) {
      qps_[core] =
          std::make_unique<NvmeQueuePair>(controller_, controller_->options().queue_depth);
    }
  }
  return *qps_[core];
}

namespace {

bool LbaAligned(uint64_t offset, uint64_t size) {
  return IsAligned(offset, NvmeController::kLbaSize) &&
         IsAligned(size, NvmeController::kLbaSize) && size > 0;
}

}  // namespace

Status NvmeDevice::DoRead(Vcpu& vcpu, uint64_t offset, std::span<uint8_t> dst) {
  if (!LbaAligned(offset, dst.size())) {
    // Block devices speak whole LBAs; bounce unaligned requests (the kernel
    // and SPDK helpers do the same for callers without O_DIRECT alignment).
    uint64_t lo = AlignDown(offset, NvmeController::kLbaSize);
    uint64_t hi = AlignUp(offset + dst.size(), NvmeController::kLbaSize);
    std::vector<uint8_t> bounce(hi - lo);
    AQUILA_RETURN_IF_ERROR(DoRead(vcpu, lo, std::span(bounce)));
    std::memcpy(dst.data(), bounce.data() + (offset - lo), dst.size());
    return Status::Ok();
  }
  NvmeQueuePair& qp = QueueForThisCore();
  NvmeCommand cmd{NvmeOpcode::kRead, offset / NvmeController::kLbaSize,
                  static_cast<uint32_t>(dst.size() / NvmeController::kLbaSize), dst.data()};
  StatusOr<uint16_t> cid = qp.Submit(vcpu, cmd);
  if (!cid.ok()) {
    return cid.status();
  }
  return qp.Wait(vcpu, *cid);
}

Status NvmeDevice::DoWrite(Vcpu& vcpu, uint64_t offset, std::span<const uint8_t> src) {
  if (!LbaAligned(offset, src.size())) {
    // Read-modify-write the partial head/tail blocks.
    uint64_t lo = AlignDown(offset, NvmeController::kLbaSize);
    uint64_t hi = AlignUp(offset + src.size(), NvmeController::kLbaSize);
    if (hi > capacity_bytes()) {
      return Status::InvalidArgument("NVMe write beyond capacity");
    }
    std::vector<uint8_t> bounce(hi - lo);
    AQUILA_RETURN_IF_ERROR(DoRead(vcpu, lo, std::span(bounce)));
    std::memcpy(bounce.data() + (offset - lo), src.data(), src.size());
    return DoWrite(vcpu, lo, std::span<const uint8_t>(bounce));
  }
  NvmeQueuePair& qp = QueueForThisCore();
  NvmeCommand cmd{NvmeOpcode::kWrite, offset / NvmeController::kLbaSize,
                  static_cast<uint32_t>(src.size() / NvmeController::kLbaSize),
                  const_cast<uint8_t*>(src.data())};
  StatusOr<uint16_t> cid = qp.Submit(vcpu, cmd);
  if (!cid.ok()) {
    return cid.status();
  }
  return qp.Wait(vcpu, *cid);
}

Status NvmeDevice::DoReadBatch(Vcpu& vcpu, std::span<const uint64_t> offsets,
                               std::span<uint8_t* const> pages, uint64_t page_bytes) {
  NvmeQueuePair& qp = QueueForThisCore();
  for (size_t i = 0; i < offsets.size(); i++) {
    NvmeCommand cmd{NvmeOpcode::kRead, offsets[i] / NvmeController::kLbaSize,
                    static_cast<uint32_t>(page_bytes / NvmeController::kLbaSize), pages[i]};
    StatusOr<uint16_t> cid = qp.Submit(vcpu, cmd);
    if (!cid.ok()) {
      AQUILA_RETURN_IF_ERROR(qp.WaitAll(vcpu));
      cid = qp.Submit(vcpu, cmd);
      if (!cid.ok()) {
        return cid.status();
      }
    }
  }
  return qp.WaitAll(vcpu);
}

Status NvmeDevice::DoWriteBatch(Vcpu& vcpu, std::span<const uint64_t> offsets,
                                std::span<const uint8_t* const> pages, uint64_t page_bytes) {
  NvmeQueuePair& qp = QueueForThisCore();
  for (size_t i = 0; i < offsets.size(); i++) {
    NvmeCommand cmd{NvmeOpcode::kWrite, offsets[i] / NvmeController::kLbaSize,
                    static_cast<uint32_t>(page_bytes / NvmeController::kLbaSize),
                    const_cast<uint8_t*>(pages[i])};
    StatusOr<uint16_t> cid = qp.Submit(vcpu, cmd);
    if (!cid.ok()) {
      // Ring full: drain and retry once.
      AQUILA_RETURN_IF_ERROR(qp.WaitAll(vcpu));
      cid = qp.Submit(vcpu, cmd);
      if (!cid.ok()) {
        return cid.status();
      }
    }
  }
  return qp.WaitAll(vcpu);
}

}  // namespace aquila
