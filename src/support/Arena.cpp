//===- support/Arena.cpp - Region arena with 32-bit handles --------------===//

#include "support/Arena.h"
#include "support/Check.h"

#include <sys/mman.h>
#include <unistd.h>

using namespace ceal;

Arena::Arena(size_t Bytes) {
  checkAlways(Bytes > 0 && Bytes <= MaxRegionBytes,
              "Arena region size out of range");
  // Reserve address space only: MAP_NORESERVE defers physical pages to
  // first touch, so an 8 GB default region costs nothing until used. If
  // the kernel refuses (strict overcommit, tiny address space), back off
  // geometrically — a smaller region just means a lower handle ceiling.
  constexpr size_t FloorBytes = size_t(256) << 20;
  size_t Attempt = Bytes;
  void *Mapped = MAP_FAILED;
  for (;;) {
    Mapped = ::mmap(nullptr, Attempt, PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (Mapped != MAP_FAILED || Attempt <= FloorBytes || Attempt <= Bytes / 64)
      break;
    Attempt /= 2;
  }
  checkAlways(Mapped != MAP_FAILED, "Arena region mmap failed");
  Base = static_cast<char *>(Mapped);
  RegionBytes = Attempt;
  // Offset 0 encodes the null handle; the first block starts one grain in.
  BumpPtr = Base + HandleGrain;
  BumpEnd = Base + RegionBytes;
}

Arena::~Arena() {
  if (Base)
    ::munmap(Base, RegionBytes);
}

void *Arena::allocateLarge(size_t Size) {
  size_t Rounded = accountedSize(Size);
  LiveBytes += Rounded;
  TotalAllocated += Rounded;
  if (LiveBytes > MaxLiveBytes)
    MaxLiveBytes = LiveBytes;
  auto It = LargeFree.find(Rounded);
  if (It != LargeFree.end() && It->second) {
    FreeCell *Cell = It->second;
    It->second = Cell->Next;
    return Cell;
  }
  char *Result = BumpPtr;
  if (Result + Rounded > BumpEnd)
    regionExhausted();
  BumpPtr = Result + Rounded;
  return Result;
}

void Arena::deallocateLarge(void *Ptr, size_t Size) {
  size_t Rounded = accountedSize(Size);
  assert(LiveBytes >= Rounded && "freelist accounting underflow");
  LiveBytes -= Rounded;
  auto *Cell = static_cast<FreeCell *>(Ptr);
  FreeCell *&Head = LargeFree[Rounded];
  Cell->Next = Head;
  Head = Cell;
}

void Arena::regionExhausted() const {
  fatalError("Arena region exhausted: trace outgrew the 32-bit handle "
             "space (construct the Arena with a larger region, up to "
             "Arena::MaxRegionBytes)");
}

bool Arena::remapTo(char *WantBase, size_t WantBytes) {
  checkAlways(WantBytes > 0 && WantBytes <= MaxRegionBytes,
              "Arena remap size out of range");
#ifndef MAP_FIXED_NOREPLACE
#define MAP_FIXED_NOREPLACE 0
#endif
  constexpr int Prot = PROT_READ | PROT_WRITE;
  constexpr int Flags =
      MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_FIXED_NOREPLACE;
  // First try with the current region still mapped; if the kernel refuses
  // (possibly because our own region overlaps the target), release ours
  // and retry once.
  void *Got = ::mmap(WantBase, WantBytes, Prot, Flags, -1, 0);
  if (Got == MAP_FAILED) {
    ::munmap(Base, RegionBytes);
    Base = nullptr;
    Got = ::mmap(WantBase, WantBytes, Prot, Flags, -1, 0);
  } else {
    ::munmap(Base, RegionBytes);
    Base = nullptr;
  }
  // Kernels without MAP_FIXED_NOREPLACE treat the request as a hint and
  // may map elsewhere; that is a failed claim, not a success.
  if (Got != MAP_FAILED && Got != WantBase) {
    ::munmap(Got, WantBytes);
    Got = MAP_FAILED;
  }
  bool Claimed = Got != MAP_FAILED;
  if (!Claimed) {
    // Re-acquire an empty region anywhere so the arena stays usable.
    Got = ::mmap(nullptr, RegionBytes, Prot,
                 MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    checkAlways(Got != MAP_FAILED, "Arena region mmap failed");
  } else {
    RegionBytes = WantBytes;
  }
  Base = static_cast<char *>(Got);
  BumpPtr = Base + HandleGrain;
  BumpEnd = Base + RegionBytes;
  for (FreeCell *&Head : FreeLists)
    Head = nullptr;
  LargeFree.clear();
  LiveBytes = MaxLiveBytes = TotalAllocated = AllocCount = 0;
  return Claimed;
}

bool Arena::mapFilePrefix(int Fd, uint64_t FileOffset, size_t Bytes) {
  size_t Page = static_cast<size_t>(::sysconf(_SC_PAGESIZE));
  checkAlways(FileOffset % Page == 0, "file offset not page-aligned");
  checkAlways(Bytes <= RegionBytes, "file prefix exceeds the region");
  size_t MapLen = (Bytes + Page - 1) & ~(Page - 1);
  if (MapLen == 0)
    return true;
  void *Got = ::mmap(Base, MapLen, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_FIXED | MAP_NORESERVE, Fd,
                     static_cast<off_t>(FileOffset));
  return Got == Base;
}

void Arena::reserve(size_t Bytes) {
  // One contiguous region exists from construction; a reservation can
  // only check that the burst will fit below the handle ceiling.
  if (static_cast<size_t>(BumpEnd - BumpPtr) < Bytes)
    regionExhausted();
}
