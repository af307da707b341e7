#pragma once

// Move-only callable wrapper with a configurable inline buffer.
//
// std::function's small-object buffer is implementation-defined (16 bytes
// on libstdc++), so the scheduler's event callbacks — lambdas capturing a
// this-pointer plus job/worker/epoch state, ~48 bytes — heap-allocate on
// every ScheduleAt. InplaceFunction<Sig, Capacity> stores any callable of
// at most Capacity bytes inline (falling back to the heap above that), is
// move-only (no copyable-target requirement, so move-only captures work),
// and erases through a static ops table (three function pointers shared
// per callable type).

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace scan {

template <class Signature, std::size_t Capacity = 64>
class InplaceFunction;  // undefined; specialised for function signatures

template <class R, class... Args, std::size_t Capacity>
class InplaceFunction<R(Args...), Capacity> {
  static_assert(Capacity >= sizeof(void*),
                "buffer must at least hold the heap-fallback pointer");

 public:
  // User-provided (not defaulted) so an empty `const` instance is valid and
  // default construction never zero-fills the buffer.
  InplaceFunction() noexcept {}  // NOLINT(modernize-use-equals-default)

  template <class F, class D = std::decay_t<F>>
    requires(!std::is_same_v<D, InplaceFunction> &&
             std::is_invocable_r_v<R, D&, Args...>)
  InplaceFunction(F&& fn) {  // NOLINT(google-explicit-constructor)
    if constexpr (kInline<D>) {
      ::new (static_cast<void*>(buffer_)) D(std::forward<F>(fn));
      ops_ = &kInlineOps<D>;
    } else {
      ::new (static_cast<void*>(buffer_)) D*(new D(std::forward<F>(fn)));
      ops_ = &kHeapOps<D>;
    }
  }

  InplaceFunction(InplaceFunction&& other) noexcept { MoveFrom(other); }

  InplaceFunction& operator=(InplaceFunction&& other) noexcept {
    if (this != &other) {
      Clear();
      MoveFrom(other);
    }
    return *this;
  }

  InplaceFunction(const InplaceFunction&) = delete;
  InplaceFunction& operator=(const InplaceFunction&) = delete;

  ~InplaceFunction() { Clear(); }

  R operator()(Args... args) {
    return ops_->invoke(buffer_, std::forward<Args>(args)...);
  }

  [[nodiscard]] explicit operator bool() const { return ops_ != nullptr; }

  /// True when the stored callable lives in the inline buffer (exposed so
  /// tests can pin the no-heap property for hot-path callback sizes).
  [[nodiscard]] bool is_inline() const {
    return ops_ != nullptr && ops_->inline_storage;
  }

 private:
  template <class D>
  static constexpr bool kInline =
      sizeof(D) <= Capacity && alignof(D) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<D>;

  struct Ops {
    R (*invoke)(void*, Args&&...);
    // Move-constructs the payload from `from` into `to`, then destroys the
    // source payload (a "relocate"). Both point at raw buffer storage.
    void (*relocate)(void* from, void* to) noexcept;
    void (*destroy)(void*) noexcept;
    bool inline_storage;
  };

  template <class D>
  static constexpr Ops kInlineOps{
      [](void* buf, Args&&... args) -> R {
        return (*std::launder(reinterpret_cast<D*>(buf)))(
            std::forward<Args>(args)...);
      },
      [](void* from, void* to) noexcept {
        D* src = std::launder(reinterpret_cast<D*>(from));
        ::new (to) D(std::move(*src));
        src->~D();
      },
      [](void* buf) noexcept { std::launder(reinterpret_cast<D*>(buf))->~D(); },
      true,
  };

  template <class D>
  static constexpr Ops kHeapOps{
      [](void* buf, Args&&... args) -> R {
        return (**std::launder(reinterpret_cast<D**>(buf)))(
            std::forward<Args>(args)...);
      },
      [](void* from, void* to) noexcept {
        D** src = std::launder(reinterpret_cast<D**>(from));
        ::new (to) D*(*src);
        *src = nullptr;
      },
      [](void* buf) noexcept { delete *std::launder(reinterpret_cast<D**>(buf)); },
      false,
  };

  void MoveFrom(InplaceFunction& other) noexcept {
    if (other.ops_ != nullptr) {
      other.ops_->relocate(other.buffer_, buffer_);
      ops_ = other.ops_;
      other.ops_ = nullptr;
    }
  }

  void Clear() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(buffer_);
      ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) std::byte buffer_[Capacity];
  const Ops* ops_ = nullptr;
};

}  // namespace scan
