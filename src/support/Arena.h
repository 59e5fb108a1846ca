//===- support/Arena.h - Region arena with 32-bit handles ------*- C++ -*-===//
//
// Part of the CEAL reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A region-based bump allocator with per-size-class freelists and 32-bit
/// block handles. The self-adjusting run-time system allocates all trace
/// structures (timestamps, trace nodes, closures, user blocks) from an
/// Arena so that (a) allocation is a pointer bump, (b) freed trace
/// structures are recycled without touching malloc, (c) the high-water
/// mark of live bytes gives the "max live" metric the paper reports in
/// Tables 1 and 2, and (d) every block is addressable by a 32-bit Handle
/// — half the width of a pointer — so trace nodes can link to each other
/// in 4 bytes per edge instead of 8.
///
/// Handles work because each Arena owns one contiguous virtual-memory
/// region (mmap with MAP_NORESERVE: address space is reserved up front,
/// physical pages materialize only when touched). A Handle is the block's
/// byte offset into the region divided by the 8-byte allocation grain;
/// handle 0 is reserved as null (the bump pointer starts past offset 0).
/// The default 8 GB region keeps every handle below 2^30, leaving the
/// top handle bits free for client tags (the trace end-timestamp tag).
/// Exhausting the region — minting a handle past the 32-bit-addressable
/// space — is a checkAlways hard failure, never a silent wrap.
///
/// Under the CEAL_WIDE_TRACE build (see the CMake option of the same
/// name) Handle<T> widens to a plain pointer with the same API, so the
/// pre-compression trace layout stays buildable for A/B measurement.
///
//===----------------------------------------------------------------------===//

#ifndef CEAL_SUPPORT_ARENA_H
#define CEAL_SUPPORT_ARENA_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <new>
#include <unordered_map>

namespace ceal {

/// A 32-bit reference to a block in an Arena region (or, under
/// CEAL_WIDE_TRACE, a plain pointer with the same interface). Resolution
/// goes through the owning Arena: `A.ptr(H)` and `A.handle(P)`.
/// Default-constructed handles are null and test false.
/// Like a raw pointer, the default constructor leaves a Handle
/// uninitialized (so the trace's RawInit node constructors stay free of
/// dead stores); value-initialize — `Handle<T>{}` or `Handle<T>()` — for
/// the null handle.
#ifdef CEAL_WIDE_TRACE
template <typename T> struct Handle {
  T *Ptr;

  Handle() = default;
  explicit Handle(T *P) : Ptr(P) {}
  explicit operator bool() const { return Ptr != nullptr; }
  bool operator==(const Handle &O) const { return Ptr == O.Ptr; }
  bool operator!=(const Handle &O) const { return Ptr != O.Ptr; }
};
#else
template <typename T> struct Handle {
  uint32_t Bits;

  Handle() = default;
  explicit Handle(uint32_t B) : Bits(B) {}
  explicit operator bool() const { return Bits != 0; }
  bool operator==(const Handle &O) const { return Bits == O.Bits; }
  bool operator!=(const Handle &O) const { return Bits != O.Bits; }
};

static_assert(sizeof(Handle<int>) == 4, "Handle must be half a pointer");
#endif

/// Re-types a handle along a static_cast-compatible hierarchy edge (e.g.
/// Handle<Use> -> Handle<WriteNode> after inspecting the node's Kind).
/// Valid only for single-inheritance chains where the addresses coincide.
template <typename To, typename From>
inline Handle<To> handle_cast(Handle<From> H) {
#ifdef CEAL_WIDE_TRACE
  return Handle<To>(static_cast<To *>(H.Ptr));
#else
  return Handle<To>(H.Bits);
#endif
}

/// A single-region bump allocator with size-class freelists, live-byte
/// accounting, and handle minting.
///
/// Blocks up to MaxSmallSize bytes are rounded to 8-byte classes and
/// recycled through per-class freelists; larger blocks are bump-allocated
/// from the same region and recycled through a per-size side table, so
/// *every* block — including large user allocations that contain interior
/// trace structures — lives inside the region and is handle-addressable.
/// The whole region is released when the arena is destroyed, so clients
/// may drop whole traces in O(1).
class Arena {
public:
  /// Allocation grain: every block size is a multiple of this, every
  /// block address is aligned to it, and handles count in units of it.
  static constexpr size_t HandleGrain = 8;
  /// Default virtual region per arena. Address space only (MAP_NORESERVE)
  /// — the committed footprint is just the pages ever touched.
  static constexpr size_t DefaultRegionBytes = size_t(8) << 30;
  /// Hard cap: offsets must stay handle-encodable (2^32 grains).
  static constexpr size_t MaxRegionBytes = (size_t(1) << 32) * HandleGrain;

  /// Maps a region of \p RegionBytes (rounded up to the page size). If
  /// the mmap fails, retries at geometrically smaller sizes down to a
  /// floor before giving up with a fatal error.
  explicit Arena(size_t RegionBytes = DefaultRegionBytes);
  Arena(const Arena &) = delete;
  Arena &operator=(const Arena &) = delete;
  ~Arena();

  /// Allocates \p Size bytes aligned to HandleGrain. Defined in the
  /// header so the size-class fast path (freelist pop or pointer bump)
  /// inlines into the trace hot paths; the large-block path stays out of
  /// line.
  void *allocate(size_t Size) {
    assert(Size > 0 && "zero-size allocation");
    ++AllocCount;
    if (Size > MaxSmallSize)
      return allocateLarge(Size);
    size_t Index = classIndex(Size);
    size_t Rounded = classSize(Index);
    LiveBytes += Rounded;
    TotalAllocated += Rounded;
    if (LiveBytes > MaxLiveBytes)
      MaxLiveBytes = LiveBytes;
    if (FreeCell *Cell = FreeLists[Index]) {
      FreeLists[Index] = Cell->Next;
      return Cell;
    }
    char *Result = BumpPtr;
    if (Result + Rounded > BumpEnd)
      regionExhausted();
    BumpPtr = Result + Rounded;
    return Result;
  }

  /// Returns a block previously obtained from allocate() with \p Size.
  void deallocate(void *Ptr, size_t Size) {
    assert(Ptr && "deallocating null");
    if (Size > MaxSmallSize)
      return deallocateLarge(Ptr, Size);
    size_t Index = classIndex(Size);
    size_t Rounded = classSize(Index);
    assert(LiveBytes >= Rounded && "freelist accounting underflow");
    LiveBytes -= Rounded;
    auto *Cell = static_cast<FreeCell *>(Ptr);
    Cell->Next = FreeLists[Index];
    FreeLists[Index] = Cell;
  }

  /// Typed helper: allocate and default-construct a T.
  template <typename T, typename... Args> T *create(Args &&...As) {
    void *Mem = allocate(sizeof(T));
    return new (Mem) T(static_cast<Args &&>(As)...);
  }

  /// Typed helper: destroy and free a T obtained from create().
  template <typename T> void destroy(T *Ptr) {
    Ptr->~T();
    deallocate(Ptr, sizeof(T));
  }

  /// Resolves a handle minted by this arena to a pointer (null for the
  /// null handle). O(1): one shift and one add off the region base.
  template <typename T> T *ptr(Handle<T> H) const {
#ifdef CEAL_WIDE_TRACE
    return H.Ptr;
#else
    if (!H.Bits)
      return nullptr;
    return reinterpret_cast<T *>(Base + uint64_t(H.Bits) * HandleGrain);
#endif
  }

  /// Mints the handle for a block obtained from this arena's allocate().
  /// O(1): a subtract and a shift. Null pointers mint the null handle.
  template <typename T> Handle<T> handle(const T *P) const {
#ifdef CEAL_WIDE_TRACE
    return Handle<T>(const_cast<T *>(P));
#else
    if (!P)
      return Handle<T>();
    uintptr_t Off = reinterpret_cast<uintptr_t>(P) -
                    reinterpret_cast<uintptr_t>(Base);
    assert(Off >= HandleGrain && Off < RegionBytes &&
           (Off % HandleGrain) == 0 && "pointer not from this arena");
    return Handle<T>(static_cast<uint32_t>(Off / HandleGrain));
#endif
  }

  /// True if \p Bits decodes to an address inside the bump-allocated part
  /// of the region (auditors bounds-check every handle through this; it
  /// accepts any in-bounds offset, not just live-block starts).
  bool handleInBounds(uint32_t Bits) const {
    return uint64_t(Bits) * HandleGrain <
           static_cast<uint64_t>(BumpPtr - Base);
  }

  /// The region's base address (auditors only).
  const void *regionBase() const { return Base; }
  /// Total virtual bytes this arena's region spans.
  size_t regionBytes() const { return RegionBytes; }
  /// Bytes of the region consumed by the bump pointer so far (includes
  /// blocks currently parked on freelists).
  size_t bumpUsedBytes() const { return static_cast<size_t>(BumpPtr - Base); }

  /// Pre-reserves bump space for \p Bytes of upcoming allocations. With a
  /// single up-front region this is an overflow pre-check only — the
  /// address space is already contiguous — kept as an API so callers can
  /// fail fast before a burst rather than mid-trace.
  void reserve(size_t Bytes);

  //===--------------------------------------------------------------===//
  // Snapshot plumbing (runtime/Snapshot). Not for general use.
  //===--------------------------------------------------------------===//

  /// Releases this arena's region and claims a fresh *anonymous* region at
  /// exactly [\p WantBase, \p WantBase + \p WantBytes) — the same-base
  /// remap a snapshot load needs so that every raw pointer serialized
  /// inside the region stays valid verbatim. The claim is atomic
  /// (MAP_FIXED_NOREPLACE): if any part of the target range is already
  /// mapped, nothing is clobbered, the arena re-acquires an empty region
  /// at an arbitrary base, and this returns false. On success the arena is
  /// empty (bump at one grain, freelists clear, stats zeroed) at the fixed
  /// base.
  bool remapTo(char *WantBase, size_t WantBytes);

  /// Maps \p Bytes of \p Fd starting at the page-aligned \p FileOffset
  /// copy-on-write (MAP_PRIVATE) over the start of the region, replacing
  /// the anonymous pages there; the rest of the region stays anonymous.
  /// The mmap warm-start path uses this to adopt a snapshot's arena image
  /// without copying it. Returns false on mmap failure.
  bool mapFilePrefix(int Fd, uint64_t FileOffset, size_t Bytes);

  /// Bytes currently handed out to clients.
  size_t liveBytes() const { return LiveBytes; }

  /// How many liveBytes a block of \p Size accounts for: all sizes round
  /// up to the 8-byte grain, small ones to their size class (the same
  /// thing — classes are grain-spaced). Auditors use this to reconcile
  /// external bookkeeping with liveBytes().
  static size_t accountedSize(size_t Size) {
    return (Size + HandleGrain - 1) & ~(HandleGrain - 1);
  }

  /// High-water mark of liveBytes() since construction (or resetStats()).
  size_t maxLiveBytes() const { return MaxLiveBytes; }

  /// Total bytes ever handed out (monotone; used by the simulated GC).
  size_t totalAllocatedBytes() const { return TotalAllocated; }

  /// Number of allocate() calls served.
  size_t allocationCount() const { return AllocCount; }

  void resetStats() {
    MaxLiveBytes = LiveBytes;
    TotalAllocated = 0;
    AllocCount = 0;
  }

  static constexpr size_t MaxSmallSize = 512;

private:
  /// The snapshot subsystem serializes and restores the scalar state
  /// (bump frontier, freelist heads, statistics) directly.
  friend class Snapshot;

  static constexpr size_t NumClasses = MaxSmallSize / HandleGrain;

  struct FreeCell {
    FreeCell *Next;
  };

  static size_t classIndex(size_t Size) {
    assert(Size > 0 && Size <= MaxSmallSize && "not a small size");
    return (Size + HandleGrain - 1) / HandleGrain - 1;
  }
  static size_t classSize(size_t Index) { return (Index + 1) * HandleGrain; }

  void *allocateLarge(size_t Size);
  void deallocateLarge(void *Ptr, size_t Size);
  [[noreturn]] void regionExhausted() const;

  char *Base = nullptr;
  char *BumpPtr = nullptr;
  char *BumpEnd = nullptr;
  size_t RegionBytes = 0;
  FreeCell *FreeLists[NumClasses] = {};
  /// Freelists for recycled large blocks, keyed by grain-rounded size.
  std::unordered_map<size_t, FreeCell *> LargeFree;

  size_t LiveBytes = 0;
  size_t MaxLiveBytes = 0;
  size_t TotalAllocated = 0;
  size_t AllocCount = 0;
};

} // namespace ceal

#endif // CEAL_SUPPORT_ARENA_H
