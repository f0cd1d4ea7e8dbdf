#include "src/mem/page_table.h"

#include <array>

#include "src/util/logging.h"
#include "src/util/sim_clock.h"
#include "src/vmx/cost_model.h"

namespace aquila {

struct PageTable::Node {
  // Interior levels store Node* in the atomics; the leaf level stores PTEs.
  std::array<std::atomic<uint64_t>, kEntriesPerTable> slots{};
};

namespace {

void CountWalk(uint64_t levels, uint64_t tables_allocated) {
  const CostModel& costs = GlobalCostModel();
  CountWork(levels * costs.pt_level + tables_allocated * costs.pt_table_alloc);
}

}  // namespace

PageTable::PageTable() : root_(new Node()) {}

PageTable::~PageTable() {
  FreeRecursive(root_, kLevels - 1);
  for (Node* node : retired_) {
    delete node;  // leaf tables displaced by InstallHuge; no children
  }
}

void PageTable::FreeRecursive(Node* node, int level) {
  if (level > 0) {
    for (auto& slot : node->slots) {
      uint64_t child = slot.load(std::memory_order_relaxed);
      // A present-flagged value in an interior slot is a 2 MB leaf, not a
      // Node* (nodes are 8-aligned, so bit 0 of a pointer is always clear).
      if (child != 0 && !Pte::Present(child)) {
        FreeRecursive(reinterpret_cast<Node*>(child), level - 1);
      }
    }
  }
  delete node;
}

PageTable::Node* PageTable::EnsureChild(Node* node, int index, uint64_t* allocated) {
  uint64_t child = node->slots[index].load(std::memory_order_acquire);
  if (child != 0) {
    AQUILA_CHECK(!Pte::Present(child));  // 2 MB leaf: caller must demote first
    return reinterpret_cast<Node*>(child);
  }
  Node* fresh = new Node();
  ++*allocated;
  uint64_t expected = 0;
  if (node->slots[index].compare_exchange_strong(expected, reinterpret_cast<uint64_t>(fresh),
                                                 std::memory_order_acq_rel)) {
    return fresh;
  }
  delete fresh;  // lost the install race
  AQUILA_CHECK(!Pte::Present(expected));  // raced with InstallHuge: protocol error
  return reinterpret_cast<Node*>(expected);
}

std::atomic<uint64_t>* PageTable::Walk(uint64_t vaddr) {
  Node* node = root_;
  uint64_t allocated = 0;
  for (int level = kLevels - 1; level > 0; level--) {
    node = EnsureChild(node, IndexAt(vaddr, level), &allocated);
  }
  CountWalk(kLevels, allocated);
  return &node->slots[IndexAt(vaddr, 0)];
}

std::atomic<uint64_t>* PageTable::WalkExisting(uint64_t vaddr) const {
  Node* node = root_;
  for (int level = kLevels - 1; level > 0; level--) {
    uint64_t child = node->slots[IndexAt(vaddr, level)].load(std::memory_order_acquire);
    // Missing child or a 2 MB leaf (present-flagged value, never a Node*):
    // no 4K slot exists here.
    if (child == 0 || Pte::Present(child)) {
      CountWalk(kLevels - level, 0);
      return nullptr;
    }
    node = reinterpret_cast<Node*>(child);
  }
  CountWalk(kLevels, 0);
  return const_cast<std::atomic<uint64_t>*>(&node->slots[IndexAt(vaddr, 0)]);
}

uint64_t PageTable::Lookup(uint64_t vaddr) const {
  Node* node = root_;
  for (int level = kLevels - 1; level > 0; level--) {
    uint64_t child = node->slots[IndexAt(vaddr, level)].load(std::memory_order_acquire);
    if (child == 0) {
      CountWalk(kLevels - level, 0);
      return 0;
    }
    if (Pte::Present(child)) {
      CountWalk(kLevels - level, 0);
      // 2 MB leaf (only ever installed at level 1): synthesize the covering
      // 4K view. The run's GPAs are contiguous, so advancing the base by the
      // in-span offset lands on exactly the page a 4K PTE would name.
      AQUILA_DCHECK(level == 1);
      uint64_t offset = vaddr & (kHugePage2M - 1) & ~(kPageSize - 1);
      return Pte::Make(Pte::Gpa(child) + offset, child & Pte::kFlagsMask) | Pte::kHuge;
    }
    node = reinterpret_cast<Node*>(child);
  }
  CountWalk(kLevels, 0);
  return node->slots[IndexAt(vaddr, 0)].load(std::memory_order_acquire);
}

bool PageTable::InstallHuge(uint64_t vaddr, uint64_t gpa, uint64_t flags) {
  AQUILA_DCHECK(IsAligned(vaddr, kHugePage2M));
  AQUILA_DCHECK(IsAligned(gpa, kPageSize));
  Node* node = root_;
  uint64_t allocated = 0;
  for (int level = kLevels - 1; level > 1; level--) {
    node = EnsureChild(node, IndexAt(vaddr, level), &allocated);
  }
  CountWalk(kLevels - 1, allocated);
  std::atomic<uint64_t>& slot = node->slots[IndexAt(vaddr, 1)];
  uint64_t desired = Pte::Make(gpa, (flags & Pte::kFlagsMask) | Pte::kPresent) | Pte::kHuge;
  uint64_t old = slot.load(std::memory_order_acquire);
  while (true) {
    if (Pte::Present(old)) {
      return false;  // already huge
    }
    if (slot.compare_exchange_weak(old, desired, std::memory_order_acq_rel)) {
      break;
    }
  }
  if (old != 0) {
    // Displaced child table. The caller already removed every PTE in it, but
    // a concurrent lock-free descent may still hold the pointer: retire, do
    // not delete.
    std::lock_guard<SpinLock> guard(retired_lock_);
    retired_.push_back(reinterpret_cast<Node*>(old));
  }
  present_.fetch_add(kEntriesPerTable, std::memory_order_relaxed);
  return true;
}

uint64_t PageTable::SplitHuge(uint64_t vaddr) {
  AQUILA_DCHECK(IsAligned(vaddr, kHugePage2M));
  Node* node = root_;
  for (int level = kLevels - 1; level > 1; level--) {
    uint64_t child = node->slots[IndexAt(vaddr, level)].load(std::memory_order_acquire);
    if (child == 0) {
      CountWalk(kLevels - level, 0);
      return 0;
    }
    node = reinterpret_cast<Node*>(child);
  }
  std::atomic<uint64_t>& slot = node->slots[IndexAt(vaddr, 1)];
  uint64_t huge = slot.load(std::memory_order_acquire);
  // The replacement leaf table below is the one allocation.
  CountWalk(kLevels - 1, Pte::Present(huge) ? 1 : 0);
  // Present is the pointer-vs-leaf discriminator (a Node* is 8-aligned, so
  // its bit 0 is clear — but bit 7, the PS bit, can be anything in a heap
  // address, so Pte::Huge alone would misread a child table as a leaf).
  if (!Pte::Present(huge)) {
    return 0;  // empty slot or an already-split child table
  }
  AQUILA_DCHECK(Pte::Huge(huge));
  // Build the replacement table fully before publishing: 512 4K PTEs whose
  // translations equal the huge view bit for bit (kHuge itself stays out of
  // kFlagsMask), so stale TLB entries remain correct and the swap needs no
  // shootdown.
  Node* child = new Node();
  uint64_t flags = huge & Pte::kFlagsMask;
  for (int i = 0; i < kEntriesPerTable; i++) {
    child->slots[i].store(
        Pte::Make(Pte::Gpa(huge) + static_cast<uint64_t>(i) * kPageSize, flags),
        std::memory_order_relaxed);
  }
  slot.store(reinterpret_cast<uint64_t>(child), std::memory_order_release);
  // present_ unchanged: 512 new 4K entries replace a leaf counted as 512.
  return huge;
}

bool PageTable::Install(uint64_t vaddr, uint64_t gpa, uint64_t flags) {
  std::atomic<uint64_t>* pte = Walk(vaddr);
  uint64_t expected = pte->load(std::memory_order_acquire);
  uint64_t desired = Pte::Make(gpa, flags | Pte::kPresent);
  while (true) {
    if (Pte::Present(expected)) {
      return false;
    }
    if (pte->compare_exchange_weak(expected, desired, std::memory_order_acq_rel)) {
      present_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
  }
}

uint64_t PageTable::Remove(uint64_t vaddr) {
  std::atomic<uint64_t>* pte = WalkExisting(vaddr);
  if (pte == nullptr) {
    return 0;
  }
  uint64_t old = pte->exchange(0, std::memory_order_acq_rel);
  if (Pte::Present(old)) {
    present_.fetch_sub(1, std::memory_order_relaxed);
  }
  return old;
}

}  // namespace aquila
