/// \file cow_ptr.h
/// \brief An intrusively counted copy-on-write pointer.
///
/// CowPtr<T> shares one heap-allocated T between all copies of the
/// pointer. Copying bumps a counter; Mutable() hands out a writable T
/// and clones it first iff another pointer still shares it. This is
/// the page discipline of graph::Instance: copying an instance copies
/// its page pointers, and a mutation clones only the page it touches.
///
/// Thread safety follows from the discipline, not from locking:
/// different CowPtr objects may be copied and destroyed from any number
/// of threads at once, while one CowPtr object (like any other value)
/// is mutated by one thread at a time. The uniqueness test in Mutable()
/// is an acquire load of the count, which pairs with the acq_rel
/// decrement of every other owner's release: once the count reads 1,
/// every read another owner made of the shared T happened before the
/// write that follows. (`std::shared_ptr::use_count()` is a relaxed
/// load and gives no such ordering.)

#ifndef GOOD_GRAPH_COW_PTR_H_
#define GOOD_GRAPH_COW_PTR_H_

#include <atomic>
#include <cstdint>
#include <utility>

namespace good::graph {

template <typename T>
class CowPtr {
 public:
  /// A null pointer; Mutable() allocates a default T on first use.
  CowPtr() = default;
  CowPtr(const CowPtr& other) : box_(other.box_) {
    if (box_ != nullptr) box_->refs.fetch_add(1, std::memory_order_relaxed);
  }
  CowPtr(CowPtr&& other) noexcept : box_(std::exchange(other.box_, nullptr)) {}
  /// One assignment serves copy and move: the by-value parameter has
  /// already taken its reference, so self-assignment is safe.
  CowPtr& operator=(CowPtr other) noexcept {
    std::swap(box_, other.box_);
    return *this;
  }
  ~CowPtr() { Release(); }

  explicit operator bool() const { return box_ != nullptr; }
  /// Shared read access; the pointer must not be null.
  const T& operator*() const { return box_->value; }
  const T* operator->() const { return &box_->value; }

  /// Write access to a T no other pointer shares: allocates a default T
  /// when null, clones the shared one otherwise. References obtained
  /// through operator* before the call may point at the old, shared T.
  T& Mutable() {
    if (box_ == nullptr) {
      box_ = new Box();
    } else if (box_->refs.load(std::memory_order_acquire) != 1) {
      Box* copy = new Box(box_->value);
      Release();
      box_ = copy;
    }
    return box_->value;
  }

 private:
  struct Box {
    Box() = default;
    explicit Box(const T& v) : value(v) {}
    std::atomic<uint32_t> refs{1};
    T value;
  };

  void Release() {
    if (box_ != nullptr &&
        box_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      delete box_;
    }
  }

  Box* box_ = nullptr;
};

}  // namespace good::graph

#endif  // GOOD_GRAPH_COW_PTR_H_
