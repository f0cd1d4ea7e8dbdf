// Cycle-cost model for privilege transitions and hardware events.
//
// These constants substitute for hardware we cannot touch from an
// unprivileged container (VT-x transitions, IPIs, FPU state switches). Every
// value is either measured by the paper itself or quoted by the paper from
// the systems it builds on (Dune, Shinjuku):
//
//   ring3 trap          1287 cycles  — §6.4 "protection domain switch cost
//                                      (excluding the handler itself)"
//   ring0 exception      552 cycles  — §6.4 "trap cost in non-root ring 0"
//   vmexit round trip    750 cycles  — §4.4, quoting Dune
//   posted IPI send      298 cycles  — §4.1, quoting Shinjuku
//   IPI send w/ vmexit  2081 cycles  — §4.1 (DoS-protected send path)
//   FPU save/restore     300 cycles  — §3.3 (XSAVEOPT/FXRSTOR, AVX state)
//   4 KB memcpy plain   2400 cycles  — §3.3
//   4 KB memcpy NT      ~900 cycles  — §3.3 (AVX2 streaming)
//
// The software paths Aquila runs for real (cache, dirty trees, page table,
// KV store) are charged per counted operation, not timed: each structure
// adds `count x constant` through CountWork (src/util/sim_clock.h) and the
// ScopedMeasure around the call site charges it. Those constants are
// calibrated once from the single-threaded BM_Cost* microbenches in
// bench/bench_ablation.cc (ns per unit x 2.4 cycles/ns, at 2.4 GHz; see
// DESIGN.md §2 for the table and README for re-running it), never tuned
// against an end-to-end benchmark. This is how the Linux baseline's lock
// costs are charged as well (lru_lock_cycles, tree_lock_cycles).
//
// The model is a plain struct so tests and ablation benches can perturb
// individual entries.
#ifndef AQUILA_SRC_VMX_COST_MODEL_H_
#define AQUILA_SRC_VMX_COST_MODEL_H_

#include <cstdint>

namespace aquila {

struct CostModel {
  // Protection-domain switches.
  uint64_t ring3_trap = 1287;       // ring3 -> ring0 fault entry + iret, excl. handler
  uint64_t ring0_exception = 552;   // exception taken and returned within ring 0
  uint64_t syscall_entry_exit = 700;  // syscall/sysret pair incl. kernel prologue

  // Virtualization transitions.
  uint64_t vmexit_roundtrip = 750;  // vmexit + vmentry hardware cost
  uint64_t vmcall_dispatch = 450;   // hypervisor-side decode/dispatch on top of the exit
  uint64_t ept_fault = 1500;        // EPT violation exit + hypervisor walk + install

  // Interrupts.
  uint64_t ipi_send_posted = 298;   // posted-interrupt send, no vmexit
  uint64_t ipi_send_vmexit = 2081;  // MSR-write send path through the hypervisor (§4.1)
  uint64_t ipi_receive = 300;       // receive + handler entry on the target core
  uint64_t tlb_invalidate_page = 120;  // per-page invalidation on a core
  uint64_t tlb_full_flush = 600;

  // Memory copies between DRAM cache and byte-addressable devices (§3.3).
  uint64_t fpu_save_restore = 300;
  uint64_t memcpy_4k_plain = 2400;
  uint64_t memcpy_4k_nt = 900;

  // Hardware page-table walk on a TLB miss (no fault).
  uint64_t hardware_walk = 50;

  // Kernel software path lengths for the Linux baseline (charged, not
  // executed): filesystem + block layer per 4 KB direct-I/O request, and the
  // generic fault path around the architectural trap.
  uint64_t kernel_io_path = 7000;
  uint64_t kernel_fault_path = 1200;

  // Counted software work (CountWork). Each entry is the median fit_per_unit
  // of its BM_Cost* microbench in bench/bench_ablation.cc over three runs on
  // a 4-CPU x86-64 KVM guest (Release build), and the ns per unit it
  // measured.
  // Slot examined by LockFreeHash: BM_CostHashLookup, 7.1 ns.
  uint64_t hash_probe = 17;
  // Key claim / removal: BM_CostHashInsertRemove, 10.8 ns.
  uint64_t hash_cas = 26;
  // Frame popped or chain pushed: BM_CostFreelistPopPush, 32.5 ns.
  uint64_t freelist_op = 78;
  // Frame linked into a pushed chain: BM_CostFreelistBatchMove, 1.3 ns.
  uint64_t freelist_move = 3;
  // Clock-hand step over one frame: BM_CostClockSweepStep, 18 ns.
  uint64_t sweep_step = 43;
  // Victim claim CAS: BM_CostClockSweepClaim, 16 ns.
  uint64_t sweep_claim = 38;
  // Dirty-tree node visited: BM_CostDirtyTree, 10.4 ns.
  uint64_t tree_node = 25;
  // Page-table level walked: BM_CostPageTableInstallRemove, 5 ns.
  uint64_t pt_level = 12;
  // Page-table node allocated: BM_CostPageTableNewTable, 219 ns.
  uint64_t pt_table_alloc = 526;
  // Writeback-sort compare: BM_CostWritebackSort, 1.3 ns.
  uint64_t sort_compare = 3;
  // Memtable skiplist node visited: BM_CostMemtableGet, 18 ns.
  uint64_t skiplist_node = 43;
  // Bloom filter bit tested: BM_CostBloomProbe, 3.9 ns.
  uint64_t bloom_probe = 9;
  // SST block entry parsed: BM_CostBlockEntry, 7.4 ns.
  uint64_t block_entry = 18;

  // CPU frequency used to convert cycles <-> time in reports (2.4 GHz, the
  // paper's testbed).
  uint64_t cycles_per_us = 2400;
};

// Global default model. Benches that perturb it must restore it.
CostModel& GlobalCostModel();

}  // namespace aquila

#endif  // AQUILA_SRC_VMX_COST_MODEL_H_
