// Writeback planning and the asynchronous overlapped I/O pipeline.
//
// Every path that cleans dirty pages — eviction, msync, madvise(DONTNEED),
// unmap — follows the same shape: collect claimed dirty frames, sort them by
// device offset so the batch reaches the medium in layout order, submit, and
// account the outcome. WritebackPlanner is that shape as an API; the call
// sites differ only in how they claim frames and what they do with them
// afterwards.
//
// Eviction and madvise(DONTNEED) use SubmitAsync: each item is routed to its
// owning mapping's AsyncWritebackEngine, which submits it on a DeviceQueue
// and returns immediately. The frame sits in FrameState::kWritingBack until
// the completion is reaped — faulting threads keep making progress (and keep
// advancing simulated time past the device's ready timestamps) while the
// writes are in flight, which is the overlap the pipeline exists for.
// Devices without a native queue get the sync-emulation shim, so this is the
// only eviction path. msync and unmap drain the engine and then finish with
// SubmitSync — one batched WritePages call per backing — as their durability
// barrier.
//
// The engine also issues read-ahead as asynchronous fills: frames stay
// kFilling (unmapped, invisible to evictors) until their completion reaps,
// at which point they are published into the cache hash.
#ifndef AQUILA_SRC_CORE_WRITEBACK_H_
#define AQUILA_SRC_CORE_WRITEBACK_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/cache/page_cache.h"
#include "src/core/backing.h"
#include "src/storage/device_queue.h"
#include "src/telemetry/span.h"
#include "src/util/spinlock.h"
#include "src/util/status.h"

namespace aquila {

class Aquila;
class AquilaMap;
class AsyncWritebackEngine;

// One dirty page claimed for writeback. The claimer owns the frame (state
// kEvicting or kWritingBack), has cleared its dirty bit, and guarantees the
// data pointer stays valid through submission.
struct WritebackItem {
  uint64_t sort_key = 0;     // (mapping_id | device page): physical write order
  uint64_t file_offset = 0;  // offset within the owning mapping's backing
  const uint8_t* data = nullptr;
  Backing* backing = nullptr;
  FrameId frame = kInvalidFrame;
  AquilaMap* owner = nullptr;  // mapping charged with the outcome

  bool operator<(const WritebackItem& other) const { return sort_key < other.sort_key; }
};

// Collect -> sort -> submit: the single writeback pipeline shared by
// eviction, msync, madvise(DONTNEED) and unmap.
class WritebackPlanner {
 public:
  void Add(const WritebackItem& item) { items_.push_back(item); }
  bool empty() const { return items_.empty(); }
  size_t size() const { return items_.size(); }
  const std::vector<WritebackItem>& items() const { return items_; }

  // Sorts by device offset, then issues one batched WritePages call per
  // backing. Returns the first error; the caller decides how to restore the
  // affected frames (the planner does not know their claim protocol).
  Status SubmitSync(Vcpu& vcpu);

  // Sorts by device offset, then hands each item to its owner's
  // AsyncWritebackEngine. Items whose submission fails at the machinery
  // level (not an I/O error — those travel in completions) are restored
  // dirty-in-place and charged to the owner; the first such error is
  // returned. On return every item is either in flight or restored.
  Status SubmitAsync(Vcpu& vcpu);

 private:
  // Sorting is dirty-tree bookkeeping work, charged to kDirtyTracking at one
  // sort_compare per comparison.
  void Sort(Vcpu& vcpu);

  std::vector<WritebackItem> items_;
};

// Per-mapping asynchronous writeback/readahead engine over the owning
// backing's DeviceQueue. Writebacks keep the cache mapping and hold the
// frame in kWritingBack so concurrent faulters wait for the completion
// instead of re-reading a page the device has not acknowledged; fills hold
// the frame in kFilling and publish it into the hash on completion.
//
// Thread safety: all queue and slot state is guarded by lock_. Lock order is
// entry locks -> maps_lock_ -> engine lock -> cache internals; the engine
// never acquires entry locks or maps_lock_.
class AsyncWritebackEngine {
 public:
  AsyncWritebackEngine(Aquila* runtime, AquilaMap* map, uint32_t depth);
  ~AsyncWritebackEngine();

  // Submits one claimed dirty page (state kWritingBack, PTE removed, dirty
  // bit cleared, cache mapping still present). Reaps completions to make
  // room when the queue is full. A non-OK return means the submission
  // machinery rejected the request — the caller must restore the frame.
  Status SubmitWriteback(Vcpu& vcpu, const WritebackItem& item);

  // Submits an async fill into `frame` (state kFilling, key set, vaddr 0,
  // not yet in the hash). On completion the engine inserts the mapping and
  // publishes kResident, or frees the frame if the page was concurrently
  // faulted in or the read failed. `demand` marks a cooperative-scheduler
  // demand fill (park point c): its publication counts a major fault rather
  // than a readahead page, and its completion status is delivered to the
  // parked owner through the wake path.
  Status SubmitFill(Vcpu& vcpu, FrameId frame, uint64_t key, uint64_t file_offset,
                    bool demand = false);

  // Fills submitted and not yet completed (published or discarded). Fills
  // for a key are submitted only under that page's entry lock, so a faulter
  // holding the lock that reads 0 here (acquire; the completion decrements
  // with release after publishing) knows a subsequent hash miss is final —
  // the fault path's gate that keeps an idle engine off the miss path.
  uint32_t fills_in_flight() const { return fills_in_flight_.load(std::memory_order_acquire); }

  // True while a fill for `key` is in flight. The cooperative fault path
  // checks this (under the page's entry lock) to decide between parking on
  // someone else's fill and submitting its own; the park protocol re-checks
  // it after PrePark, so a completion racing the check is never missed.
  bool HasPendingFill(uint64_t key);

  // Reaps every completion whose device time has passed (no waiting).
  // Returns the number of frames released to the freelist.
  size_t Harvest(Vcpu& vcpu);

  // Waits out every in-flight fill whose file page lies in [first_page,
  // last_page], reaping completions (and thus publishing the fills) as they
  // become ready. Returns true if such a fill was drained. A faulter that
  // missed in the hash while fills_in_flight() was non-zero MUST call this
  // before filling the page itself — while holding the page's entry lock —
  // so a pending read-ahead fill is consumed instead of duplicated, and so
  // the lock-free publication in CompleteLocked can never collide with the
  // faulter's own insert (fills are only submitted under the entry lock).
  // A promoter holding a whole span's entry locks calls it for the span.
  bool AwaitFills(Vcpu& vcpu, uint64_t first_page, uint64_t last_page);

  // Waits out every in-flight writeback whose file page lies in
  // [first_page, last_page], reaping completions as they become ready;
  // returns true if any such writeback was pending. msync uses this to
  // close the window where a concurrent evictor submits an async writeback
  // of an in-range page after msync's drain: the page's dirty bit was
  // cleared at claim, so the dirty-tree collection cannot see it. A
  // successful completion is durable before msync returns; a failed one is
  // restored dirty-in-place, where msync's re-collection claims it.
  bool AwaitWritebacks(Vcpu& vcpu, uint64_t first_page, uint64_t last_page);

  // Advances simulated time until at least one completion is reaped (0 when
  // nothing is in flight). Returns the number of frames released — which can
  // be 0 even after a reap (a failed writeback restores its frame instead).
  size_t WaitOne(Vcpu& vcpu);

  // Reaps everything in flight, waiting as needed. Failed writebacks are
  // restored dirty-in-place, so a caller that needs durability (msync,
  // teardown) re-collects them and surfaces the error from its own
  // synchronous pass.
  size_t Drain(Vcpu& vcpu);

  uint32_t in_flight() const { return queue_->in_flight(); }

 private:
  struct Slot {
    enum class Kind : uint8_t { kFree, kWriteback, kFill };
    Kind kind = Kind::kFree;
    bool demand = false;  // kFill submitted for a parked faulter, not readahead
    FrameId frame = kInvalidFrame;
    uint64_t key = 0;
    uint64_t sort_key = 0;
    uint64_t file_offset = 0;
    // Span context of the request that submitted this I/O ({0,0} when it was
    // not sampled). The completion — reaped on whatever thread polls next —
    // records its device time as a child span of the ORIGINATING request,
    // which is how causality crosses the DeviceQueue thread hop.
    telemetry::SpanContext span;
  };

  // Shared body of AwaitFills/AwaitWritebacks.
  bool AwaitRange(Vcpu& vcpu, Slot::Kind kind, uint64_t first_page, uint64_t last_page);
  // Finds a free slot, reaping (and waiting if necessary) when the queue is
  // saturated. Returns the slot index.
  uint32_t ClaimSlotLocked(Vcpu& vcpu);
  // Reaps ready completions; with `wait` also advances time for one more
  // when none are ready. Returns frames freed.
  size_t ReapLocked(Vcpu& vcpu, bool wait);
  void CompleteLocked(Vcpu& vcpu, const DeviceQueue::Completion& completion,
                      uint64_t overlap_until, size_t* freed);

  Aquila* runtime_;
  AquilaMap* map_;
  SpinLock lock_;
  std::unique_ptr<DeviceQueue> queue_;          // guarded by lock_
  std::vector<Slot> slots_;                     // guarded by lock_; user_data = index
  std::vector<DeviceQueue::Completion> local_;  // guarded by lock_: results of
                                                // requests executed synchronously
                                                // (no device extent to queue on)
  // Written under lock_, read lock-free by the fault path's gate.
  std::atomic<uint32_t> fills_in_flight_{0};
};

}  // namespace aquila

#endif  // AQUILA_SRC_CORE_WRITEBACK_H_
