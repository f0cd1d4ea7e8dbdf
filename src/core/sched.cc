#include "src/core/sched.h"

#include <algorithm>

#include "src/core/mmio_region.h"
#include "src/util/race_injector.h"

namespace aquila {

CoreScheduler::CoreScheduler(SchedRegistry* registry, int core)
    : registry_(registry), core_(core) {}

void CoreScheduler::Enqueue(AquilaMap* map, const MmioRequest& request) {
  Task task;
  task.map = map;
  task.request = request;
  task.completion.user_tag = request.user_tag;
  run_queue_.push_back(std::move(task));
}

size_t CoreScheduler::RunReady(Vcpu& vcpu) {
  size_t completed = 0;
  for (Task& task : run_queue_) {
    if (task.done) {
      continue;
    }
    task.map->CoopStep(vcpu, this, &task);
    if (task.done) {
      completed++;
    }
  }
  return completed;
}

size_t CoreScheduler::PopCompleted(AquilaMap* map, std::span<MmioCompletion> out) {
  size_t n = 0;
  for (auto it = run_queue_.begin(); it != run_queue_.end() && n < out.size();) {
    if (it->map == map && it->done) {
      out[n++] = std::move(it->completion);
      it = run_queue_.erase(it);
    } else {
      ++it;
    }
  }
  return n;
}

bool CoreScheduler::HasTasks(const AquilaMap* map) const {
  return std::any_of(run_queue_.begin(), run_queue_.end(),
                     [map](const Task& t) { return t.map == map; });
}

void CoreScheduler::KickParked() {
  for (Task& task : run_queue_) {
    if (task.done || task.park_token == 0) {
      continue;
    }
    Status wake;
    if (ConsumeIfReady(task.park_token, &wake)) {
      if (task.owner_park && !wake.ok()) {
        task.completion.status = wake;
        task.completion.faulted = true;
        task.park_token = 0;
        task.done = true;
        continue;
      }
    } else {
      CancelPark(task.park_token);
    }
    task.park_token = 0;
    task.owner_park = false;  // re-run re-checks the condition from scratch
  }
}

uint64_t CoreScheduler::PrePark(uint64_t key, FrameId frame) {
  std::lock_guard<SpinLock> guard(table_lock_);
  if (parked_.size() >= registry_->max_parked_) {
    return 0;  // table full: the caller blocks instead
  }
  ParkedRequest entry;
  entry.token = registry_->next_token_.fetch_add(1, std::memory_order_relaxed);
  entry.key = key;
  entry.frame = frame;
  parked_.push_back(entry);
  registry_->parked_depth.fetch_add(1, std::memory_order_relaxed);
  return entry.token;
}

void CoreScheduler::CancelPark(uint64_t token) {
  std::lock_guard<SpinLock> guard(table_lock_);
  for (auto it = parked_.begin(); it != parked_.end(); ++it) {
    if (it->token == token) {
      parked_.erase(it);
      registry_->parked_depth.fetch_sub(1, std::memory_order_relaxed);
      return;
    }
  }
}

void CoreScheduler::CommitPark(uint64_t token) {
  (void)token;
  registry_->parked_total.fetch_add(1, std::memory_order_relaxed);
}

bool CoreScheduler::ConsumeIfReady(uint64_t token, Status* status) {
  std::lock_guard<SpinLock> guard(table_lock_);
  for (auto it = parked_.begin(); it != parked_.end(); ++it) {
    if (it->token != token) {
      continue;
    }
    if (!it->ready) {
      return false;
    }
    *status = it->wake_status;
    parked_.erase(it);
    registry_->parked_depth.fetch_sub(1, std::memory_order_relaxed);
    registry_->resumed_total.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  return false;  // entry already consumed (KickParked raced a late wake)
}

size_t CoreScheduler::Wake(uint64_t key, FrameId frame, const Status& status,
                           int waker_core) {
  AQUILA_RACE_POINT("sched.wake");
  std::lock_guard<SpinLock> guard(table_lock_);
  size_t woken = 0;
  for (ParkedRequest& entry : parked_) {
    if (entry.key != key || entry.ready) {
      continue;
    }
    entry.ready = true;
    // Only the demand owner treats the completion status as terminal; other
    // waiters re-run the access and re-derive their own outcome (exactly
    // what the blocking path does after AwaitFills/WaitOne).
    entry.wake_status =
        (entry.frame != kInvalidFrame && entry.frame == frame) ? status : Status::Ok();
    woken++;
    if (waker_core != core_) {
      registry_->steals.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return woken;
}

size_t CoreScheduler::parked_now() const {
  std::lock_guard<SpinLock> guard(table_lock_);
  return parked_.size();
}

CoreScheduler* SchedRegistry::ForCore(int core) {
  AQUILA_CHECK(core >= 0 && core < CoreRegistry::kMaxCores);
  CoreScheduler* sched = cores_[core].get();
  if (sched != nullptr) {
    return sched;
  }
  std::lock_guard<SpinLock> guard(cores_lock_);
  if (cores_[core] == nullptr) {
    cores_[core] = std::make_unique<CoreScheduler>(this, core);
    cores_created_.fetch_add(1, std::memory_order_release);
  }
  return cores_[core].get();
}

CoreScheduler* SchedRegistry::PeekCore(int core) const {
  if (core < 0 || core >= CoreRegistry::kMaxCores) {
    return nullptr;
  }
  std::lock_guard<SpinLock> guard(cores_lock_);
  return cores_[core].get();
}

size_t SchedRegistry::Wake(uint64_t key, FrameId frame, const Status& status,
                           int waker_core) {
  // Fast path: nothing parked anywhere (the common case for every workload
  // that never submits batches). One relaxed load, no locks.
  if (parked_depth.load(std::memory_order_relaxed) == 0) {
    return 0;
  }
  size_t woken = 0;
  int created = cores_created_.load(std::memory_order_acquire);
  for (int core = 0; core < CoreRegistry::kMaxCores && created > 0; core++) {
    CoreScheduler* sched;
    {
      std::lock_guard<SpinLock> guard(cores_lock_);
      sched = cores_[core].get();
    }
    if (sched == nullptr) {
      continue;
    }
    created--;
    woken += sched->Wake(key, frame, status, waker_core);
  }
  return woken;
}

}  // namespace aquila
