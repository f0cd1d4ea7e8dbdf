// In-memory span recorder for the benchmark's traced operations.
//
// The benchmark opens a span around each call it makes into a layer (KvStore,
// MemoryMap, Bfs) under a root span for the whole operation, which also
// covers the benchmark's own key generation and output checks. A span carries
// its name, parent, and simulated plus host begin/end. Self time — a
// span's duration minus what its children cover — is folded into per-layer
// totals as each span closes, so it is exact for every traced operation
// even after the stored list reaches its cap; the stored spans are written
// out as JSON lines when the run ends. The cap keeps that file well under a
// megabyte: it is a sample of whole span trees, not the source of any metric.
#ifndef AQUILA_BENCH_E2E_SPANS_H_
#define AQUILA_BENCH_E2E_SPANS_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "src/util/logging.h"
#include "src/util/sim_clock.h"

namespace aquila {
namespace e2e {

// Host nanoseconds on a steady clock.
inline int64_t HostNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// The layer a span's self time is charged to: the benchmark itself, or the
// layer the benchmark called into.
enum class Layer : uint8_t { kBench = 0, kKvs, kCore, kGraph, kCount };

inline const char* LayerName(Layer layer) {
  static constexpr const char* kNames[] = {"bench", "kvs", "core", "graph"};
  return kNames[static_cast<size_t>(layer)];
}

struct Span {
  uint32_t id = 0;      // 1-based within its thread's log
  uint32_t parent = 0;  // 0 for a root
  const char* name = "";
  Layer layer = Layer::kBench;
  uint64_t sim_begin = 0;
  uint64_t sim_end = 0;
  int64_t host_begin = 0;
  int64_t host_end = 0;
};

struct SelfTime {
  int64_t sim_cycles = 0;
  int64_t host_ns = 0;
};

class SpanLog {
 public:
  static constexpr size_t kMaxStored = 512;
  static constexpr size_t kMaxDepth = 4;

  // Opens a span under the innermost open one (or as a root).
  void Open(const char* name, Layer layer, uint64_t sim_now) {
    AQUILA_CHECK(depth_ < kMaxDepth);
    Span& s = open_[depth_];
    s.id = ++next_id_;
    s.parent = depth_ == 0 ? 0 : open_[depth_ - 1].id;
    s.name = name;
    s.layer = layer;
    s.sim_begin = sim_now;
    s.host_begin = HostNs();
    depth_++;
  }

  // Closes the innermost open span and charges its self time.
  void Close(uint64_t sim_now) {
    AQUILA_CHECK(depth_ > 0);
    Span& s = open_[--depth_];
    s.sim_end = sim_now;
    s.host_end = HostNs();
    int64_t sim = static_cast<int64_t>(s.sim_end - s.sim_begin);
    int64_t host = s.host_end - s.host_begin;
    SelfTime& own = self_[static_cast<size_t>(s.layer)];
    own.sim_cycles += sim;
    own.host_ns += host;
    if (depth_ > 0) {
      SelfTime& parent = self_[static_cast<size_t>(open_[depth_ - 1].layer)];
      parent.sim_cycles -= sim;
      parent.host_ns -= host;
    }
    if (stored_.size() < kMaxStored) {
      stored_.push_back(s);
    } else {
      dropped_++;
    }
  }

  const SelfTime& self(Layer layer) const { return self_[static_cast<size_t>(layer)]; }
  uint64_t recorded() const { return next_id_; }
  uint64_t dropped() const { return dropped_; }

  // Returns false if a write failed.
  bool WriteJsonLines(std::FILE* out, int thread) const {
    for (const Span& s : stored_) {
      int n = std::fprintf(out,
                   "{\"thread\":%d,\"id\":%u,\"parent\":%u,\"name\":\"%s\",\"layer\":\"%s\","
                   "\"sim_begin\":%llu,\"sim_end\":%llu,\"host_begin_ns\":%lld,"
                   "\"host_end_ns\":%lld}\n",
                   thread, s.id, s.parent, s.name, LayerName(s.layer),
                   static_cast<unsigned long long>(s.sim_begin),
                   static_cast<unsigned long long>(s.sim_end),
                   static_cast<long long>(s.host_begin), static_cast<long long>(s.host_end));
      if (n < 0) {
        return false;
      }
    }
    return true;
  }

 private:
  std::array<Span, kMaxDepth> open_{};
  size_t depth_ = 0;
  uint32_t next_id_ = 0;
  uint64_t dropped_ = 0;
  std::array<SelfTime, static_cast<size_t>(Layer::kCount)> self_{};
  std::vector<Span> stored_;
};

// Keeps a span open for its own lifetime when `on`; does nothing otherwise.
class SpanScope {
 public:
  SpanScope(SpanLog& log, bool on, const char* name, Layer layer, const SimClock& clock)
      : log_(log), on_(on), clock_(clock) {
    if (on_) {
      log_.Open(name, layer, clock_.Now());
    }
  }
  ~SpanScope() {
    if (on_) {
      log_.Close(clock_.Now());
    }
  }

  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanLog& log_;
  bool on_;
  const SimClock& clock_;
};

}  // namespace e2e
}  // namespace aquila

#endif  // AQUILA_BENCH_E2E_SPANS_H_
