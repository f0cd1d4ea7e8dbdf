// Intrusive red-black tree.
//
// Used for the per-core dirty-page trees (§3.2): dirty pages must be kept
// sorted by device offset so evictions and msync can merge them into large
// sequential writebacks, and the paper uses one tree per core to avoid a
// single contended lock. Nodes are embedded in the owning object (cache
// frames), so insert/remove never allocate — a requirement for running
// inside the fault handler.
//
// This is a textbook left-leaning-free CLRS red-black tree with parent
// pointers; not thread-safe (each per-core tree carries its own lock in
// DirtyTreeSet). Every operation counts one tree_node per node it visits
// (descent, successor search, fixup step) for the simulated clock
// (CountWork).
#ifndef AQUILA_SRC_CACHE_RBTREE_H_
#define AQUILA_SRC_CACHE_RBTREE_H_

#include <cstdint>

#include "src/util/logging.h"
#include "src/util/sim_clock.h"
#include "src/vmx/cost_model.h"

namespace aquila {

struct RbNode {
  RbNode* parent = nullptr;
  RbNode* left = nullptr;
  RbNode* right = nullptr;
  bool red = false;
  bool linked = false;  // membership flag, guards double-insert/remove
};

// Comparator: strict weak ordering over nodes, provided per-tree as a
// function of the containing object. KeyOf maps node -> uint64 sort key.
template <typename KeyOfNode>
class RbTree {
 public:
  RbTree() = default;
  explicit RbTree(KeyOfNode key_of) : key_of_(key_of) {}

  bool empty() const { return root_ == nullptr; }
  size_t size() const { return size_; }

  void Insert(RbNode* node) {
    AQUILA_DCHECK(!node->linked);
    node->parent = node->left = node->right = nullptr;
    node->red = true;
    node->linked = true;
    size_++;

    RbNode** link = &root_;
    RbNode* parent = nullptr;
    uint64_t key = key_of_(node);
    uint64_t visited = 1;
    while (*link != nullptr) {
      parent = *link;
      link = key < key_of_(parent) ? &parent->left : &parent->right;
      visited++;
    }
    node->parent = parent;
    *link = node;
    visited += FixupInsert(node);
    CountNodes(visited);
  }

  void Remove(RbNode* node) {
    AQUILA_DCHECK(node->linked);
    node->linked = false;
    size_--;

    RbNode* child;
    RbNode* parent;
    bool red;
    uint64_t visited = 1;
    if (node->left == nullptr) {
      child = node->right;
      parent = node->parent;
      red = node->red;
      Transplant(node, child);
    } else if (node->right == nullptr) {
      child = node->left;
      parent = node->parent;
      red = node->red;
      Transplant(node, child);
    } else {
      RbNode* successor = Minimum(node->right, &visited);
      red = successor->red;
      child = successor->right;
      if (successor->parent == node) {
        parent = successor;
      } else {
        parent = successor->parent;
        Transplant(successor, successor->right);
        successor->right = node->right;
        successor->right->parent = successor;
      }
      Transplant(node, successor);
      successor->left = node->left;
      successor->left->parent = successor;
      successor->red = node->red;
    }
    if (!red) {
      visited += FixupRemove(child, parent);
    }
    node->parent = node->left = node->right = nullptr;
    CountNodes(visited);
  }

  // Smallest node, or null.
  RbNode* First() const {
    if (root_ == nullptr) {
      return nullptr;
    }
    uint64_t visited = 0;
    RbNode* first = Minimum(root_, &visited);
    CountNodes(visited);
    return first;
  }

  // In-order successor.
  static RbNode* Next(RbNode* node) {
    uint64_t visited = 0;
    if (node->right != nullptr) {
      RbNode* next = Minimum(node->right, &visited);
      CountNodes(visited);
      return next;
    }
    RbNode* parent = node->parent;
    while (parent != nullptr && node == parent->right) {
      node = parent;
      parent = parent->parent;
      visited++;
    }
    CountNodes(visited + 1);
    return parent;
  }

  // First node with key >= `key`, or null.
  RbNode* LowerBound(uint64_t key) const {
    RbNode* node = root_;
    RbNode* best = nullptr;
    uint64_t visited = 0;
    while (node != nullptr) {
      visited++;
      if (key_of_(node) >= key) {
        best = node;
        node = node->left;
      } else {
        node = node->right;
      }
    }
    CountNodes(visited);
    return best;
  }

  // Validates RB invariants (test hook). Returns black height, -1 on error.
  int Validate() const { return ValidateFrom(root_, nullptr); }

 private:
  static void CountNodes(uint64_t visited) {
    CountWork(visited * GlobalCostModel().tree_node);
  }

  static RbNode* Minimum(RbNode* node, uint64_t* visited) {
    ++*visited;
    while (node->left != nullptr) {
      node = node->left;
      ++*visited;
    }
    return node;
  }

  void RotateLeft(RbNode* node) {
    RbNode* r = node->right;
    node->right = r->left;
    if (r->left != nullptr) {
      r->left->parent = node;
    }
    r->parent = node->parent;
    if (node->parent == nullptr) {
      root_ = r;
    } else if (node == node->parent->left) {
      node->parent->left = r;
    } else {
      node->parent->right = r;
    }
    r->left = node;
    node->parent = r;
  }

  void RotateRight(RbNode* node) {
    RbNode* l = node->left;
    node->left = l->right;
    if (l->right != nullptr) {
      l->right->parent = node;
    }
    l->parent = node->parent;
    if (node->parent == nullptr) {
      root_ = l;
    } else if (node == node->parent->right) {
      node->parent->right = l;
    } else {
      node->parent->left = l;
    }
    l->right = node;
    node->parent = l;
  }

  void Transplant(RbNode* out, RbNode* in) {
    if (out->parent == nullptr) {
      root_ = in;
    } else if (out == out->parent->left) {
      out->parent->left = in;
    } else {
      out->parent->right = in;
    }
    if (in != nullptr) {
      in->parent = out->parent;
    }
  }

  // Both fixups return the number of rebalancing steps taken.
  uint64_t FixupInsert(RbNode* node) {
    uint64_t steps = 0;
    while (node->parent != nullptr && node->parent->red) {
      steps++;
      RbNode* parent = node->parent;
      RbNode* grand = parent->parent;
      if (parent == grand->left) {
        RbNode* uncle = grand->right;
        if (uncle != nullptr && uncle->red) {
          parent->red = uncle->red = false;
          grand->red = true;
          node = grand;
        } else {
          if (node == parent->right) {
            node = parent;
            RotateLeft(node);
            parent = node->parent;
          }
          parent->red = false;
          grand->red = true;
          RotateRight(grand);
        }
      } else {
        RbNode* uncle = grand->left;
        if (uncle != nullptr && uncle->red) {
          parent->red = uncle->red = false;
          grand->red = true;
          node = grand;
        } else {
          if (node == parent->left) {
            node = parent;
            RotateRight(node);
            parent = node->parent;
          }
          parent->red = false;
          grand->red = true;
          RotateLeft(grand);
        }
      }
    }
    root_->red = false;
    return steps;
  }

  uint64_t FixupRemove(RbNode* node, RbNode* parent) {
    uint64_t steps = 0;
    while (node != root_ && (node == nullptr || !node->red)) {
      steps++;
      if (node == parent->left) {
        RbNode* sibling = parent->right;
        if (sibling->red) {
          sibling->red = false;
          parent->red = true;
          RotateLeft(parent);
          sibling = parent->right;
        }
        if ((sibling->left == nullptr || !sibling->left->red) &&
            (sibling->right == nullptr || !sibling->right->red)) {
          sibling->red = true;
          node = parent;
          parent = node->parent;
        } else {
          if (sibling->right == nullptr || !sibling->right->red) {
            if (sibling->left != nullptr) {
              sibling->left->red = false;
            }
            sibling->red = true;
            RotateRight(sibling);
            sibling = parent->right;
          }
          sibling->red = parent->red;
          parent->red = false;
          if (sibling->right != nullptr) {
            sibling->right->red = false;
          }
          RotateLeft(parent);
          node = root_;
          break;
        }
      } else {
        RbNode* sibling = parent->left;
        if (sibling->red) {
          sibling->red = false;
          parent->red = true;
          RotateRight(parent);
          sibling = parent->left;
        }
        if ((sibling->left == nullptr || !sibling->left->red) &&
            (sibling->right == nullptr || !sibling->right->red)) {
          sibling->red = true;
          node = parent;
          parent = node->parent;
        } else {
          if (sibling->left == nullptr || !sibling->left->red) {
            if (sibling->right != nullptr) {
              sibling->right->red = false;
            }
            sibling->red = true;
            RotateLeft(sibling);
            sibling = parent->left;
          }
          sibling->red = parent->red;
          parent->red = false;
          if (sibling->left != nullptr) {
            sibling->left->red = false;
          }
          RotateRight(parent);
          node = root_;
          break;
        }
      }
    }
    if (node != nullptr) {
      node->red = false;
    }
    return steps;
  }

  int ValidateFrom(const RbNode* node, const RbNode* parent) const {
    if (node == nullptr) {
      return 1;
    }
    if (node->parent != parent) {
      return -1;
    }
    if (node->red && ((node->left != nullptr && node->left->red) ||
                      (node->right != nullptr && node->right->red))) {
      return -1;
    }
    if (node->left != nullptr && key_of_(node->left) > key_of_(node)) {
      return -1;
    }
    if (node->right != nullptr && key_of_(node->right) < key_of_(node)) {
      return -1;
    }
    int lh = ValidateFrom(node->left, node);
    int rh = ValidateFrom(node->right, node);
    if (lh < 0 || rh < 0 || lh != rh) {
      return -1;
    }
    return lh + (node->red ? 0 : 1);
  }

  RbNode* root_ = nullptr;
  size_t size_ = 0;
  KeyOfNode key_of_{};
};

}  // namespace aquila

#endif  // AQUILA_SRC_CACHE_RBTREE_H_
