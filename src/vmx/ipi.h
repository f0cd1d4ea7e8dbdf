// Posted-IPI fabric with hypervisor rate limiting (§4.1 of the paper).
//
// Aquila batches TLB shootdowns: the sender removes up to 512 mappings and
// sends one IPI per target core. Because Aquila runs unmodified user code in
// a privileged ring, the *send* path deliberately takes a vmexit (MSR write)
// so the hypervisor can rate-limit interrupt storms (DoS protection); the
// *receive* path is vmexit-less, as in Shinjuku.
//
// In the simulation the functional effect of the IPI (invalidating remote
// software TLB entries) is applied synchronously by the shootdown code in
// src/mem/tlb.*; the fabric models the *time*: the sender's clock is charged
// for the send, and the handler cost is posted to the target core's mailbox,
// where the target absorbs it at its next operation boundary — interrupt
// time stolen from the victim, exactly as on real hardware.
#ifndef AQUILA_SRC_VMX_IPI_H_
#define AQUILA_SRC_VMX_IPI_H_

#include <array>
#include <atomic>
#include <cstdint>

#include "src/telemetry/metrics.h"
#include "src/util/cpu.h"
#include "src/util/sim_clock.h"
#include "src/vmx/cost_model.h"

namespace aquila {

class PostedIpiFabric {
 public:
  enum class SendPath {
    kPosted,           // raw posted interrupt, no vmexit (298 cycles)
    kVmexitProtected,  // MSR-write path through the hypervisor (2081 cycles)
  };

  explicit PostedIpiFabric(SendPath path = SendPath::kVmexitProtected);

  // Sends one shootdown-class IPI to `target_core`, charging the sender's
  // clock for the send path and the target's mailbox for the handler.
  // `handler_cycles` is the invalidation work the target performs (depends
  // on the batch size).
  void Send(SimClock& sender, int target_core, uint64_t handler_cycles);

  // Absorbs interrupt time stolen from `core` since the last call: advances
  // `clock` by the pending handler cycles. Called at operation boundaries
  // (fault entry) by the core's owner thread.
  void Absorb(SimClock& clock, int core);

  uint64_t TotalSent() const { return total_sent_.load(std::memory_order_relaxed); }
  uint64_t TotalThrottled() const { return total_throttled_.load(std::memory_order_relaxed); }

  SendPath send_path() const { return send_path_; }

  // Hypervisor rate limit: IPIs allowed per simulated millisecond per sender
  // before the hypervisor delays the sender. 0 disables throttling.
  void set_rate_limit_per_ms(uint64_t n) { rate_limit_per_ms_ = n; }

 private:
  struct alignas(kCacheLineSize) Mailbox {
    std::atomic<uint64_t> stolen_cycles{0};
    std::atomic<uint64_t> received{0};
  };

  struct alignas(kCacheLineSize) SenderBucket {
    uint64_t window_start = 0;
    uint64_t sends_in_window = 0;
  };

  SendPath send_path_;
  uint64_t rate_limit_per_ms_ = 0;
  std::array<Mailbox, CoreRegistry::kMaxCores> mailboxes_{};
  std::array<SenderBucket, CoreRegistry::kMaxCores> buckets_{};
  std::atomic<uint64_t> total_sent_{0};
  std::atomic<uint64_t> total_throttled_{0};
  // Last member: unregisters before the counters it reads are destroyed.
  telemetry::CallbackGroup metrics_;
};

}  // namespace aquila

#endif  // AQUILA_SRC_VMX_IPI_H_
