// Cooperative fault scheduling: parked faults vs blocking faults on an
// out-of-memory random-read workload (NVMe).
//
// Every touch misses (dataset 4x the cache, readahead off), so each request
// pays a device read. The blocking leg serializes them through TouchRead:
// one touch, one ~10us round-trip, repeat. The cooperative leg submits a
// batch of B touch requests through MemoryMap::SubmitBatch; each one parks
// at its major fault after submitting an async demand fill, so B device
// reads overlap and the batch completes in roughly one round-trip.
// Throughput should scale with B until the queue or the device's internal
// parallelism saturates.
//
// Emits BENCH_fault_overlap.json (blocking vs coop kIOPS per concurrency)
// and GATES in-bench: coop must be >= 2x blocking at fill concurrency >= 4.
// `--smoke` shrinks the run for CI; the gate still applies.
#include <cinttypes>
#include <cstring>
#include <vector>

#include "bench/common.h"
#include "src/util/rng.h"

namespace aquila {
namespace bench {
namespace {

struct Row {
  uint32_t concurrency;
  double blocking_kiops;
  double coop_kiops;
  double speedup;
};

// Random single-page touch reads, B at a time through the batched surface
// (coop) or one at a time through TouchRead (blocking). Returns simulated
// kIOPS. The same seed drives both legs so they fault on the same page
// sequence.
double RunEngine(bool coop, uint32_t concurrency, uint64_t ops, uint64_t data_bytes,
                 uint64_t cache_bytes, uint32_t seed) {
  auto device = MakeNvme(data_bytes);
  // Both legs run over the same async pipeline; the only difference is
  // parking at the fault versus blocking in it.
  auto runtime = std::make_unique<Aquila>(AquilaOptions(cache_bytes));
  DeviceBacking backing(device->direct, 0, data_bytes);
  auto map = runtime->Map(&backing, data_bytes, kProtRead);
  AQUILA_CHECK(map.ok());
  // Readahead off: every batch request is its own demand fill.
  AQUILA_CHECK((*map)->Advise(0, data_bytes, Advice::kRandom).ok());

  Vcpu& vcpu = ThisVcpu();
  Rng rng(seed);
  const uint64_t pages = data_bytes / kPageSize;
  std::vector<MmioRequest> batch(concurrency);
  std::vector<MmioCompletion> completions(concurrency);
  const uint64_t start = vcpu.clock().Now();
  uint64_t done = 0;
  while (done < ops) {
    const uint32_t n = static_cast<uint32_t>(std::min<uint64_t>(concurrency, ops - done));
    if (!coop) {
      for (uint32_t i = 0; i < n; i++) {
        AQUILA_CHECK((*map)->TouchRead(rng.Uniform(pages) * kPageSize).status.ok());
      }
      done += n;
      continue;
    }
    for (uint32_t i = 0; i < n; i++) {
      batch[i] = MmioRequest{};
      batch[i].kind = MmioRequest::Kind::kRead;
      batch[i].offset = rng.Uniform(pages) * kPageSize;
      batch[i].user_tag = done + i;
    }
    AQUILA_CHECK((*map)->SubmitBatch(std::span(batch.data(), n)).ok());
    uint32_t reaped = 0;
    while (reaped < n) {
      size_t got = (*map)->Poll(std::span(completions.data(), n - reaped));
      AQUILA_CHECK(got > 0);
      for (size_t i = 0; i < got; i++) {
        AQUILA_CHECK(completions[i].status.ok());
      }
      reaped += static_cast<uint32_t>(got);
    }
    done += n;
  }
  const uint64_t elapsed = vcpu.clock().Now() - start;
  AQUILA_CHECK(runtime->Unmap(*map).ok());
  const uint64_t cycles_per_us = GlobalCostModel().cycles_per_us;
  return static_cast<double>(ops) /
         (static_cast<double>(elapsed) / (cycles_per_us * 1e6)) / 1e3;
}

}  // namespace
}  // namespace bench
}  // namespace aquila

int main(int argc, char** argv) {
  using namespace aquila;
  using namespace aquila::bench;
  bool smoke = false;
  for (int i = 1; i < argc; i++) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    }
  }
  PrintHeader("Cooperative fault overlap: out-of-memory random 4K reads, NVMe");
  const uint64_t kDataBytes = smoke ? (8ull << 20) : Scaled(64ull << 20);
  const uint64_t kCacheBytes = kDataBytes / 4;
  const uint64_t kOps = smoke ? 512 : Scaled(4000);
  const uint32_t kConcurrency[] = {1, 2, 4, 8, 16};

  std::vector<Row> rows;
  for (uint32_t b : kConcurrency) {
    Row row;
    row.concurrency = b;
    row.blocking_kiops = RunEngine(/*coop=*/false, b, kOps, kDataBytes, kCacheBytes, 7 + b);
    row.coop_kiops = RunEngine(/*coop=*/true, b, kOps, kDataBytes, kCacheBytes, 7 + b);
    row.speedup = row.coop_kiops / row.blocking_kiops;
    std::printf("concurrency %2u   blocking %8.1f kIOPS   coop %8.1f kIOPS   %5.2fx\n", b,
                row.blocking_kiops, row.coop_kiops, row.speedup);
    rows.push_back(row);
  }

  BenchJsonWriter json("fault_overlap", smoke, /*threads=*/1);
  json.AddMeta("workload", "\"out-of-memory random 4K touch reads, NVMe, batched\"");
  json.AddMeta("ops", std::to_string(kOps));
  json.BeginSection("sweep");
  for (const Row& row : rows) {
    char buf[192];
    std::snprintf(buf, sizeof(buf),
                  "{\"concurrency\": %u, \"blocking_kiops\": %.1f, "
                  "\"coop_kiops\": %.1f, \"speedup\": %.2f}",
                  row.concurrency, row.blocking_kiops, row.coop_kiops, row.speedup);
    json.AddRow(buf);
  }
  json.Write();

  // Acceptance gate: overlapped fills must at least double single-core
  // out-of-memory throughput once four fills can be in flight.
  bool ok = true;
  for (const Row& row : rows) {
    if (row.concurrency >= 4 && row.speedup < 2.0) {
      std::fprintf(stderr, "GATE FAILED: concurrency %u speedup %.2fx < 2x\n",
                   row.concurrency, row.speedup);
      ok = false;
    }
  }
  if (ok) {
    std::printf("\ngate: coop >= 2x blocking at fill concurrency >= 4 -- PASS\n");
  }
  return ok ? 0 : 1;
}
