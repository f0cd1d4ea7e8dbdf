#include "src/cache/freelist.h"

#include "src/util/race_injector.h"
#include "src/util/sim_clock.h"
#include "src/vmx/cost_model.h"

namespace aquila {

void FrameStack::Push(FrameId frame) { PushChain(frame, frame, 1); }

void FrameStack::PushChain(FrameId first, FrameId last, uint32_t count) {
  // One push, plus the count - 1 frames the caller pre-linked into the chain.
  const CostModel& costs = GlobalCostModel();
  CountWork(costs.freelist_op + (count - 1) * costs.freelist_move);
  uint64_t head = head_.load(std::memory_order_relaxed);
  while (true) {
    next_[last].store(Top(head), std::memory_order_relaxed);
    AQUILA_RACE_POINT("freelist.push.pre_cas");
    uint64_t desired = Pack(Tag(head) + 1, first);
    if (head_.compare_exchange_weak(head, desired, std::memory_order_acq_rel)) {
      size_.fetch_add(count, std::memory_order_relaxed);
      return;
    }
  }
}

FrameId FrameStack::Pop() {
  uint64_t head = head_.load(std::memory_order_acquire);
  while (true) {
    uint32_t top = Top(head);
    if (top == kNil) {
      return kInvalidFrame;  // one load: not counted
    }
    // The window between reading next_[top] and the CAS is the classic
    // Treiber ABA interval; the tag in the packed head is what makes a
    // pop-push-pop of the same frame fail the CAS. Stretch it under stress.
    uint32_t after = next_[top].load(std::memory_order_relaxed);
    AQUILA_RACE_POINT("freelist.pop.pre_cas");
    uint64_t desired = Pack(Tag(head) + 1, after);
    if (head_.compare_exchange_weak(head, desired, std::memory_order_acq_rel)) {
      size_.fetch_sub(1, std::memory_order_relaxed);
      CountWork(GlobalCostModel().freelist_op);
      return top;
    }
  }
}

uint32_t FrameStack::PopBatch(FrameId* out, uint32_t max) {
  uint32_t n = 0;
  while (n < max) {
    FrameId frame = Pop();
    if (frame == kInvalidFrame) {
      break;
    }
    out[n++] = frame;
  }
  return n;
}

TwoLevelFreelist::TwoLevelFreelist(uint32_t max_frames, const Options& options)
    : options_(options),
      capacity_(max_frames),
      next_(std::make_unique<std::atomic<uint32_t>[]>(max_frames)),
      stamps_(std::make_unique<ReuseStamp[]>(max_frames)),
      core_queues_(CoreRegistry::kMaxCores),
      numa_queues_(static_cast<size_t>(options.numa_nodes)),
      run_queues_(static_cast<size_t>(options.numa_nodes)) {
  AQUILA_CHECK(options_.numa_nodes >= 1);
  for (FrameStack& q : core_queues_) {
    q.BindNextArray(next_.get());
  }
  for (FrameStack& q : numa_queues_) {
    q.BindNextArray(next_.get());
  }
  for (FrameStack& q : run_queues_) {
    q.BindNextArray(next_.get());
  }
}

void TwoLevelFreelist::AddFrames(FrameId first, uint32_t count, uint64_t align_page) {
  AQUILA_CHECK(static_cast<uint64_t>(first) + count <= capacity_);
  if (!options_.carve_runs) {
    AddSingles(first, count);
    return;
  }
  // Carve maximal aligned runs; the lead-in below the first aligned offset
  // and the tail past the last full run stay single frames.
  uint32_t lead =
      static_cast<uint32_t>((kRunFrames - align_page % kRunFrames) % kRunFrames);
  if (lead >= count || count - lead < kRunFrames) {
    AddSingles(first, count);
    return;
  }
  FrameId run = first + lead;
  const FrameId end = first + count;
  uint32_t node = 0;
  const uint32_t nodes = static_cast<uint32_t>(run_queues_.size());
  while (run + kRunFrames <= end) {
    run_queues_[node % nodes].Push(run);
    free_frames_.fetch_add(kRunFrames, std::memory_order_relaxed);
    node++;
    run += kRunFrames;
  }
  if (lead > 0) {
    AddSingles(first, lead);
  }
  if (run < end) {
    AddSingles(run, end - run);
  }
}

void TwoLevelFreelist::AddSingles(FrameId first, uint32_t count) {
  // Spread across NUMA queues in contiguous runs, pre-linking each run
  // locally so the publish is one CAS per queue.
  uint32_t nodes = static_cast<uint32_t>(numa_queues_.size());
  uint32_t per_node = count / nodes;
  uint32_t extra = count % nodes;
  FrameId cursor = first;
  for (uint32_t node = 0; node < nodes; node++) {
    uint32_t n = per_node + (node < extra ? 1 : 0);
    if (n == 0) {
      continue;
    }
    for (uint32_t i = 0; i + 1 < n; i++) {
      next_[cursor + i].store(cursor + i + 1, std::memory_order_relaxed);
    }
    numa_queues_[node].PushChain(cursor, cursor + n - 1, n);
    free_frames_.fetch_add(n, std::memory_order_relaxed);
    cursor += n;
  }
}

FrameId TwoLevelFreelist::Alloc(int core) {
  FrameId frame = PopSingle(core);
  if (frame != kInvalidFrame) {
    free_frames_.fetch_sub(1, std::memory_order_relaxed);
  }
  return frame;
}

FrameId TwoLevelFreelist::PopSingle(int core) {
  FrameId frame = core_queues_[core].Pop();
  if (frame != kInvalidFrame) {
    stats_.core_hits.fetch_add(1, std::memory_order_relaxed);
    return frame;
  }
  int local_node = NumaTopology::NodeOfCore(core) % static_cast<int>(numa_queues_.size());
  frame = numa_queues_[local_node].Pop();
  if (frame != kInvalidFrame) {
    stats_.numa_hits.fetch_add(1, std::memory_order_relaxed);
    return frame;
  }
  for (size_t i = 0; i < numa_queues_.size(); i++) {
    if (static_cast<int>(i) == local_node) {
      continue;
    }
    frame = numa_queues_[i].Pop();
    if (frame != kInvalidFrame) {
      stats_.remote_hits.fetch_add(1, std::memory_order_relaxed);
      return frame;
    }
  }
  if (options_.carve_runs) {
    // Last resort under 4K pressure: break an intact run into singles rather
    // than force an eviction while 2 MB of frames sit idle. The run's
    // frames stay free throughout, so ApproxFree does not move until Alloc
    // hands out the one frame returned here. The reserve
    // watermark is checked approximately — a racing breaker can take the
    // count below it, which costs one promotion opportunity, not safety.
    uint32_t intact = 0;
    for (const FrameStack& q : run_queues_) {
      intact += q.ApproxSize();
    }
    if (intact <= options_.reserve_runs) {
      return kInvalidFrame;  // protect the last runs for promotion; evict
    }
    FrameId run = PopRun(local_node);
    if (run != kInvalidFrame) {
      // Run-queue frames carry no live stamps (runs never pass through the
      // stamped Free path), but the slots may hold garbage from an earlier
      // single-frame life — reset them before the frames re-enter the
      // stamped alloc path.
      for (uint32_t i = 0; i < kRunFrames; i++) {
        stamps_[run + i] = ReuseStamp{};
      }
      // Split the burst: a move_batch-sized chunk stays local for this
      // core's next allocations, the bulk goes to the NUMA queue where every
      // core can reach it. Parking all 511 in this core's queue (owner-only,
      // and under the overflow threshold) would hide them from allocation
      // everywhere else — with a mostly-run-carved freelist that is most of
      // the free memory, and other cores fall back to eviction sweeps while
      // it idles here.
      uint32_t keep = std::min(options_.move_batch, kRunFrames - 1);
      for (uint32_t i = 1; i + 1 < kRunFrames; i++) {
        next_[run + i].store(run + i + 1, std::memory_order_relaxed);
      }
      AQUILA_RACE_POINT("freelist.break_run.pre_push");
      core_queues_[core].PushChain(run + 1, run + keep, keep);
      if (keep < kRunFrames - 1) {
        numa_queues_[local_node].PushChain(run + keep + 1, run + kRunFrames - 1,
                                           kRunFrames - 1 - keep);
      }
      stats_.runs_broken.fetch_add(1, std::memory_order_relaxed);
      return run;
    }
  }
  return kInvalidFrame;
}

FrameId TwoLevelFreelist::PopRun(int local_node) {
  FrameId run = run_queues_[local_node].Pop();
  if (run != kInvalidFrame) {
    return run;
  }
  for (size_t i = 0; i < run_queues_.size(); i++) {
    if (static_cast<int>(i) == local_node) {
      continue;
    }
    run = run_queues_[i].Pop();
    if (run != kInvalidFrame) {
      stats_.run_steals.fetch_add(1, std::memory_order_relaxed);
      return run;
    }
  }
  return kInvalidFrame;
}

FrameId TwoLevelFreelist::AllocRun(int core) {
  AQUILA_DCHECK(options_.carve_runs);
  int local_node = NumaTopology::NodeOfCore(core) % static_cast<int>(run_queues_.size());
  FrameId run = PopRun(local_node);
  if (run != kInvalidFrame) {
    free_frames_.fetch_sub(kRunFrames, std::memory_order_relaxed);
    stats_.run_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  return run;
}

void TwoLevelFreelist::FreeRun(int core, FrameId first) {
  AQUILA_DCHECK(options_.carve_runs);
  AQUILA_DCHECK(static_cast<uint64_t>(first) + kRunFrames <= capacity_);
  int local_node = NumaTopology::NodeOfCore(core) % static_cast<int>(run_queues_.size());
  run_queues_[local_node].Push(first);
  free_frames_.fetch_add(kRunFrames, std::memory_order_relaxed);
  stats_.run_frees.fetch_add(1, std::memory_order_relaxed);
}

FrameId TwoLevelFreelist::Alloc(int core, ReuseStamp* stamp_out) {
  FrameId frame = Alloc(core);
  if (frame != kInvalidFrame && stamp_out != nullptr) {
    // Sequenced after the Pop CAS (acquire), which synchronizes with the
    // freeing core's Push CAS (release) — transitively through any batch
    // moves, which travel by frame id and never touch the stamp slot.
    *stamp_out = stamps_[frame];
  }
  return frame;
}

void TwoLevelFreelist::Free(int core, FrameId frame) {
  Free(core, frame, ReuseStamp{});
}

void TwoLevelFreelist::Free(int core, FrameId frame, const ReuseStamp& stamp) {
  // Plain store, published by the Push CAS below (release edge). While the
  // frame sits on a queue nothing reads or writes its stamp slot, so the
  // slot is owned by whoever holds the frame outside the stacks.
  stamps_[frame] = stamp;
  core_queues_[core].Push(frame);
  free_frames_.fetch_add(1, std::memory_order_relaxed);
  MaybeOverflow(core);
}

void TwoLevelFreelist::FreeBatch(int core, const FrameId* frames, uint32_t count) {
  if (count == 0) {
    return;
  }
  // Like the stamped Free: the slots are owned by the holder until the
  // publish CAS, and the PushChain release edge publishes the resets.
  for (uint32_t i = 0; i < count; i++) {
    stamps_[frames[i]] = ReuseStamp{};
  }
  for (uint32_t i = 0; i + 1 < count; i++) {
    next_[frames[i]].store(frames[i + 1], std::memory_order_relaxed);
  }
  AQUILA_RACE_POINT("freelist.free_batch.pre_publish");
  int node = NumaTopology::NodeOfCore(core) % static_cast<int>(numa_queues_.size());
  numa_queues_[node].PushChain(frames[0], frames[count - 1], count);
  free_frames_.fetch_add(count, std::memory_order_relaxed);
  stats_.batch_moves.fetch_add(1, std::memory_order_relaxed);
}

void TwoLevelFreelist::MaybeOverflow(int core) {
  if (core_queues_[core].ApproxSize() <= options_.core_queue_threshold) {
    return;
  }
  // Move a batch to the local NUMA queue: pop into a scratch chain, then
  // publish with one CAS.
  std::vector<FrameId> batch(options_.move_batch);
  uint32_t n = core_queues_[core].PopBatch(batch.data(), options_.move_batch);
  if (n == 0) {
    return;
  }
  // Between the pop above and the publish below the batch is invisible to
  // every queue. ApproxFree does not see the move at all (it counts frames
  // entering and leaving the freelist, not queue sizes); stretch the window
  // so the stress harness can check it never inflates across a migration.
  AQUILA_RACE_POINT("freelist.migrate.pre_publish");
  for (uint32_t i = 0; i + 1 < n; i++) {
    next_[batch[i]].store(batch[i + 1], std::memory_order_relaxed);
  }
  int node = NumaTopology::NodeOfCore(core) % static_cast<int>(numa_queues_.size());
  numa_queues_[node].PushChain(batch[0], batch[n - 1], n);
  stats_.batch_moves.fetch_add(1, std::memory_order_relaxed);
}

uint64_t TwoLevelFreelist::ApproxFree() const {
  // One counter, not a sum of queue sizes: a sum read queue by queue counts a
  // frame twice when it moves from a queue already read to one read later (a
  // core->NUMA batch migration, or an alloc on one core and a free on
  // another), so it could report more than the capacity. Frames are counted
  // after the push that frees them and uncounted after the pop that hands
  // them out; a pop can uncount a frame before its pusher counted it, so the
  // counter may dip transiently below the true free count (even below zero
  // when nearly empty), never above it.
  int64_t free = free_frames_.load(std::memory_order_relaxed);
  return free > 0 ? static_cast<uint64_t>(free) : 0;
}

}  // namespace aquila
