// Typed, zero-allocation message payloads for the simulator substrate.
//
// The original messaging core heap-allocated a shared_ptr<void> plus two
// std::function closures for every payload-carrying send() — three mallocs
// on the hottest path in the codebase — and dragged them through every
// event-queue move.  This header replaces that with:
//
//  * `payload_pool` — a slab allocator with per-size-class free lists.
//    Blocks are carved from 64 KiB slabs in cache-line multiples and
//    recycled LIFO on release, so steady-state traffic never touches the
//    global allocator and keeps re-touching hot blocks.
//  * `envelope` — a move-only, type-tagged payload handle of exactly one
//    pointer.  Payload bytes live inline in a pool block, prefixed by a
//    32-byte header (owning pool, destructor, type tag, block size), so a
//    pending event stays one cache line and queue moves are pointer
//    swaps.  Payload-less messages carry a null envelope and cost
//    nothing.
//
// Payload types are identified without RTTI: `payload_tag_of<T>()` yields
// one unique address per type, and `envelope::visit<T>()` checks the tag
// before handing out a typed pointer, turning the old unchecked
// `static_cast<const T*>(void*)` consumer pattern into a verified cast.
#ifndef DRT_SIM_MESSAGE_H
#define DRT_SIM_MESSAGE_H

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/expect.h"

namespace drt::sim {

/// Unique per-type identity without RTTI: one static byte per payload
/// type, its address is the tag.
using payload_tag = const void*;

namespace detail {
template <typename T>
struct tag_holder {
  static constexpr char value = 0;
};
}  // namespace detail

template <typename T>
constexpr payload_tag payload_tag_of() {
  return &detail::tag_holder<T>::value;
}

/// Slab allocator for payload blocks.  Sizes are served in cache-line
/// (64 B) multiples up to kMaxPooledBytes from per-class LIFO free
/// lists; fresh blocks are carved from 64 KiB slabs.  Requests above the
/// largest class fall through to operator new/delete (no overlay message
/// is anywhere near that large).
class payload_pool {
 public:
  static constexpr std::size_t kMaxPooledBytes = 4096;

  payload_pool() : free_lists_(kClassCount, nullptr) {}
  ~payload_pool() {
    for (void* slab : slabs_) ::operator delete(slab);
  }

  payload_pool(const payload_pool&) = delete;
  payload_pool& operator=(const payload_pool&) = delete;

  void* acquire(std::size_t size) {
    if (size > kMaxPooledBytes) return ::operator new(size);
    const auto cls = size_class(size);
    if (free_node* node = free_lists_[cls]) {
      free_lists_[cls] = node->next;
      return node;
    }
    return carve((cls + 1) * kBlockQuantum);
  }

  void release(void* block, std::size_t size) {
    if (size > kMaxPooledBytes) {
      ::operator delete(block);
      return;
    }
    auto* node = static_cast<free_node*>(block);
    const auto cls = size_class(size);
    node->next = free_lists_[cls];
    free_lists_[cls] = node;
  }

  /// Slabs allocated so far — a proxy for "how often did the pool have to
  /// go to the global allocator" (should plateau in steady state).
  std::size_t slab_count() const { return slabs_.size(); }

 private:
  static constexpr std::size_t kBlockQuantum = 64;
  static constexpr std::size_t kClassCount = kMaxPooledBytes / kBlockQuantum;
  static constexpr std::size_t kSlabBytes = 64 * 1024;

  struct free_node {
    free_node* next;
  };

  static std::size_t size_class(std::size_t size) {
    return size == 0 ? 0 : (size - 1) / kBlockQuantum;
  }

  void* carve(std::size_t block_bytes) {
    if (slabs_.empty() || slab_used_ + block_bytes > kSlabBytes) {
      // Plain operator new returns max_align_t-aligned storage; block
      // sizes are cache-line multiples, so every carved block keeps it.
      slabs_.push_back(::operator new(kSlabBytes));
      slab_used_ = 0;
    }
    auto* base = static_cast<std::byte*>(slabs_.back());
    void* block = base + slab_used_;
    slab_used_ += block_bytes;
    return block;
  }

  std::vector<free_node*> free_lists_;  // one LIFO list per size class
  std::vector<void*> slabs_;
  std::size_t slab_used_ = 0;
};

/// A typed message payload handle: one pointer into a pool block whose
/// 32-byte header records the owning pool, the payload destructor (null
/// for trivially destructible types), the type tag, and the block size.
/// Move-only; the simulator creates one per payload-carrying send() and
/// hands `process::on_message` a const reference.  Handlers read it with
/// `visit<T>()`, which returns nullptr for payload-less messages and
/// aborts on a type mismatch (the old void*-cast bug class).
class envelope {
 public:
  envelope() = default;
  envelope(envelope&& other) noexcept : payload_(other.payload_) {
    other.payload_ = nullptr;
  }
  envelope& operator=(envelope&& other) noexcept {
    if (this != &other) {
      reset();
      payload_ = other.payload_;
      other.payload_ = nullptr;
    }
    return *this;
  }
  envelope(const envelope&) = delete;
  envelope& operator=(const envelope&) = delete;
  ~envelope() { reset(); }

  /// Bytes of block header in front of every payload; a payload's pool
  /// class is that of kHeaderBytes + its size.
  static constexpr std::size_t kHeaderBytes = 32;

  /// Payloads up to this size ride pooled (recycled, allocation-free in
  /// steady state) blocks; bigger ones fall back to the global allocator.
  static constexpr std::size_t kMaxPooledPayload =
      payload_pool::kMaxPooledBytes - kHeaderBytes;

  /// Wrap `value` into a pool block.  The pool must outlive the envelope.
  template <typename T>
  static envelope wrap(payload_pool& pool, T value) {
    static_assert(alignof(T) <= alignof(std::max_align_t),
                  "over-aligned payloads are not supported");
    static_assert(std::is_nothrow_move_constructible_v<T>,
                  "a throwing move during placement-new would leak the "
                  "acquired pool block");
    const std::size_t bytes = sizeof(block_header) + sizeof(T);
    auto* hdr = static_cast<block_header*>(pool.acquire(bytes));
    hdr->pool = &pool;
    hdr->destroy = nullptr;
    hdr->tag = payload_tag_of<T>();
    hdr->bytes = static_cast<std::uint32_t>(bytes);
    if constexpr (!std::is_trivially_destructible_v<T>) {
      hdr->destroy = [](void* p) noexcept { static_cast<T*>(p)->~T(); };
    }
    envelope e;
    e.payload_ = hdr + 1;
    ::new (e.payload_) T(std::move(value));
    return e;
  }

  /// Wrap only the first `payload_bytes` of `value` — the variable-size
  /// variant of wrap() for fixed-capacity structs whose trailing array is
  /// partially used (one batch envelope instead of k per-event blocks).
  /// The pool block is sized to the used prefix, so a small batch rides a
  /// small size class.  The receiver sees the payload through the normal
  /// visit<T>() and must only read the initialized prefix (the struct's
  /// own count field says how much that is).
  template <typename T>
  static envelope wrap_prefix(payload_pool& pool, const T& value,
                              std::size_t payload_bytes) {
    static_assert(std::is_trivially_copyable_v<T> &&
                      std::is_trivially_destructible_v<T>,
                  "prefix wrapping memcpys raw bytes and never runs a "
                  "destructor over the truncated tail");
    static_assert(alignof(T) <= alignof(std::max_align_t),
                  "over-aligned payloads are not supported");
    DRT_EXPECT(payload_bytes <= sizeof(T));
    const std::size_t bytes = sizeof(block_header) + payload_bytes;
    auto* hdr = static_cast<block_header*>(pool.acquire(bytes));
    hdr->pool = &pool;
    hdr->destroy = nullptr;
    hdr->tag = payload_tag_of<T>();
    hdr->bytes = static_cast<std::uint32_t>(bytes);
    envelope e;
    e.payload_ = hdr + 1;
    std::memcpy(e.payload_, &value, payload_bytes);
    return e;
  }

  bool empty() const { return payload_ == nullptr; }
  explicit operator bool() const { return !empty(); }

  /// Typed read access.  nullptr when the envelope carries no payload;
  /// aborts when it carries a payload of a different type.
  template <typename T>
  const T* visit() const {
    if (payload_ == nullptr) return nullptr;
    DRT_EXPECT(header()->tag == payload_tag_of<T>());
    return static_cast<const T*>(payload_);
  }

  /// Destroy the payload and return the block to its pool.
  void reset() {
    if (payload_ == nullptr) return;
    block_header* hdr = header();
    if (hdr->destroy != nullptr) hdr->destroy(payload_);
    hdr->pool->release(hdr, hdr->bytes);
    payload_ = nullptr;
  }

 private:
  struct block_header {
    payload_pool* pool;
    void (*destroy)(void*);
    payload_tag tag;
    std::uint32_t bytes;  ///< total block size including this header
    std::uint32_t reserved;
  };
  static_assert(sizeof(block_header) == kHeaderBytes);
  static_assert(alignof(block_header) <= alignof(std::max_align_t));

  block_header* header() const {
    return static_cast<block_header*>(payload_) - 1;
  }

  void* payload_ = nullptr;  ///< block_header sits immediately before
};

}  // namespace drt::sim

#endif  // DRT_SIM_MESSAGE_H
