//===- runtime/Snapshot.cpp - Versioned trace checkpoints -----------------===//
//
// Save lays the file out as a 4096-byte header block plus six contiguous
// sections (META, the two memo bucket arrays, the root table, then the
// two page-aligned arena images) and checksums every byte: the header
// block as a whole, each section over its full padded length. Load runs
// two stages: parseAndValidate() proves the file internally consistent
// without touching the runtime (so early failures leave it untouched),
// then install() claims the recorded region bases, adopts the arena
// images (copy or mmap), restores the scalar state, and hands the result
// to TraceAudit's load-mode validator before anyone trusts it. Any
// failure after the claim rewinds the runtime to a pristine empty state.
// The Verify flag (always on for load(), WarmStartOptions-governed for
// the mmap path) selects the O(file)+O(trace) content passes — arena
// section checksums and the TraceAudit walk; everything else runs
// unconditionally.
//
// The threat model for the loader is "arbitrary bytes on disk": nothing
// read from the file is dereferenced, indexed, or size-cast before a
// bounds and alignment check, and every rejection names the section and
// offset it happened at. With Verify off that guarantee covers the
// loader itself, not the propagation that follows — see
// WarmStartOptions::VerifyTrace. See Snapshot.h for the format contract.
//
//===----------------------------------------------------------------------===//

#include "runtime/Snapshot.h"

#include "runtime/Runtime.h"
#include "runtime/TraceAudit.h"
#include "support/Checksum.h"
#include "support/FileIo.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <unistd.h>
#include <unordered_map>
#include <utility>
#include <vector>

using namespace ceal;

//===----------------------------------------------------------------------===//
// Small local helpers (no privileged access needed)
//===----------------------------------------------------------------------===//

namespace {

/// The code-address anchor. One static function stands in for "every code
/// address in this image": closures store raw function pointers (and so do
/// closure *arguments* — e.g. the map/filter/compare callbacks the list
/// cores take), which cannot be individually found and rebased, so a
/// checkpoint is only loadable when the whole image sits where the saver
/// had it. Comparing one symbol's address detects any relocation.
void snapshotAnchorSymbol() {}

uint64_t systemPageBytes() {
  long P = ::sysconf(_SC_PAGESIZE);
  return P > 0 ? static_cast<uint64_t>(P) : 4096;
}

constexpr uint64_t padTo(uint64_t V, uint64_t Align) {
  return (V + Align - 1) & ~(Align - 1);
}

bool isPow2(uint64_t V) { return V != 0 && (V & (V - 1)) == 0; }

std::string strf(const char *Fmt, ...) __attribute__((format(printf, 1, 2)));
std::string strf(const char *Fmt, ...) {
  va_list Args, Copy;
  va_start(Args, Fmt);
  va_copy(Copy, Args);
  int Len = std::vsnprintf(nullptr, 0, Fmt, Copy);
  va_end(Copy);
  std::string S(Len > 0 ? static_cast<size_t>(Len) : 0, '\0');
  if (Len > 0)
    std::vsnprintf(S.data(), S.size() + 1, Fmt, Args);
  va_end(Args);
  return S;
}

/// Append-only byte buffer for the small (non-arena) sections.
struct ByteBuf {
  std::vector<uint8_t> B;

  void u64(uint64_t V) { raw(&V, sizeof(V)); }
  void raw(const void *P, size_t N) {
    const auto *Q = static_cast<const uint8_t *>(P);
    B.insert(B.end(), Q, Q + N);
  }
  size_t size() const { return B.size(); }
  void padToLength(size_t Len) { B.resize(Len, 0); }
};

uint64_t byteswap64(uint64_t V) { return __builtin_bswap64(V); }

} // namespace

static_assert(sizeof(Snapshot::SectionEntry) == 32,
              "section table entry layout drifted");
static_assert(sizeof(Snapshot::FileHeader) == 304,
              "file header layout drifted");
static_assert(sizeof(Snapshot::FileHeader) <= Snapshot::HeaderBytes,
              "header must fit its block");
static_assert(sizeof(Snapshot::MetaFixed) % 8 == 0,
              "META fixed part must stay word-aligned");
static_assert(sizeof(Runtime::Stats) == 11 * sizeof(uint64_t),
              "Stats counters changed; bump the snapshot format version");

const char *Snapshot::statusName(Status S) {
  switch (S) {
  case Status::Ok:
    return "Ok";
  case Status::BadState:
    return "BadState";
  case Status::IoError:
    return "IoError";
  case Status::Truncated:
    return "Truncated";
  case Status::BadMagic:
    return "BadMagic";
  case Status::BadVersion:
    return "BadVersion";
  case Status::BadEndian:
    return "BadEndian";
  case Status::BadLayout:
    return "BadLayout";
  case Status::BadHeader:
    return "BadHeader";
  case Status::BadSectionTable:
    return "BadSectionTable";
  case Status::BadSectionKind:
    return "BadSectionKind";
  case Status::BadChecksum:
    return "BadChecksum";
  case Status::BadMeta:
    return "BadMeta";
  case Status::ConfigMismatch:
    return "ConfigMismatch";
  case Status::CodeMoved:
    return "CodeMoved";
  case Status::HandleOutOfBounds:
    return "HandleOutOfBounds";
  case Status::AddressUnavailable:
    return "AddressUnavailable";
  case Status::AuditFailed:
    return "AuditFailed";
  }
  return "Unknown";
}

uint64_t Snapshot::codeAnchor() {
  return reinterpret_cast<uint64_t>(&snapshotAnchorSymbol);
}

//===----------------------------------------------------------------------===//
// Runtime::readyForCheckpoint
//===----------------------------------------------------------------------===//

bool Runtime::readyForCheckpoint(std::string *Why) const {
  auto No = [Why](const char *Reason) {
    if (Why)
      *Why = Reason;
    return false;
  };
  if (CurPhase != Phase::Meta)
    return No("core execution or propagation in progress");
  if (!Main.Heap.empty())
    return No("pending invalidations queued (call propagate() first)");
  if (!Main.PendingReads.empty())
    return No("pending-read stack not empty");
  if (!PendingReadMemo.empty() || !PendingAllocMemo.empty())
    return No("construction memo inserts not flushed");
  if (!Main.DeferredFrees.empty())
    return No("deferred frees not flushed");
  if (Om.inAppendMode())
    return No("order list still in append mode");
  if (Oom)
    return No("runtime is out of memory");
  return true;
}

bool Snapshot::readyToSave(const Runtime &RT, std::string *Why) {
  return RT.readyForCheckpoint(Why);
}

//===----------------------------------------------------------------------===//
// Snapshot::Impl — all privileged access lives here (nested, so it
// inherits the friend grants on Runtime, Arena, OrderList, MemoTable)
//===----------------------------------------------------------------------===//

struct Snapshot::Impl {
  // Section indexes in the fixed file order.
  enum : size_t { IMeta = 0, IMemoRead, IMemoAlloc, IRoots, IMem, IOm };

  //===------------------------------------------------------------===//
  // Offset <-> pointer/handle translation (both handle widths)
  //===------------------------------------------------------------===//

  static uint64_t offOfPtr(const Arena &A, const void *P) {
    if (!P)
      return 0;
    return static_cast<uint64_t>(static_cast<const char *>(P) - A.Base);
  }

  template <typename T>
  static uint64_t offOfHandle(const Arena &A, Handle<T> H) {
#ifdef CEAL_WIDE_TRACE
    return offOfPtr(A, H.Ptr);
#else
    (void)A;
    return uint64_t(H.Bits) * Arena::HandleGrain;
#endif
  }

  template <typename T>
  static Handle<T> handleAtOff(const Arena &A, uint64_t Off) {
#ifdef CEAL_WIDE_TRACE
    return Handle<T>(Off ? reinterpret_cast<T *>(A.Base + Off) : nullptr);
#else
    (void)A;
    return Handle<T>(static_cast<uint32_t>(Off / Arena::HandleGrain));
#endif
  }

  //===------------------------------------------------------------===//
  // Save
  //===------------------------------------------------------------===//

  static void fillArenaMeta(ArenaMeta &AM, const Arena &A) {
    AM.BumpUsed = A.bumpUsedBytes();
    AM.LiveBytes = A.LiveBytes;
    AM.MaxLiveBytes = A.MaxLiveBytes;
    AM.TotalAllocated = A.TotalAllocated;
    AM.AllocCount = A.AllocCount;
    for (size_t I = 0; I < Arena::NumClasses; ++I)
      AM.FreeHeads[I] = offOfPtr(A, A.FreeLists[I]);
    AM.LargeCount = 0;
    for (const auto &[Size, Head] : A.LargeFree)
      if (Head)
        ++AM.LargeCount;
  }

  /// Appends the large-freelist (size, head-offset) pairs sorted by size
  /// so the section bytes are deterministic (unordered_map order is not).
  static void appendLargePairs(ByteBuf &Buf, const Arena &A) {
    std::vector<std::pair<uint64_t, uint64_t>> Pairs;
    for (const auto &[Size, Head] : A.LargeFree)
      if (Head)
        Pairs.emplace_back(Size, offOfPtr(A, Head));
    std::sort(Pairs.begin(), Pairs.end());
    for (const auto &[Size, Off] : Pairs) {
      Buf.u64(Size);
      Buf.u64(Off);
    }
  }

  template <typename NodeT>
  static ByteBuf memoSection(uint32_t Kind, const Arena &Mem,
                             const MemoTable<NodeT> &Table) {
    ByteBuf Buf;
    Buf.u64(sectionPreamble(Kind));
    Buf.u64(Table.Buckets.size());
    for (Handle<NodeT> H : Table.Buckets)
      Buf.u64(offOfHandle(Mem, H));
    return Buf;
  }

  static SaveResult save(const Runtime &RT, const std::string &Path,
                         const SaveOptions &Opt) {
    SaveResult R;
    auto Fail = [&R](Status St, std::string Diag) -> SaveResult & {
      R.St = St;
      R.Diagnostic = std::move(Diag);
      return R;
    };

    std::string Why;
    if (!RT.readyForCheckpoint(&Why))
      return Fail(Status::BadState, "runtime not checkpointable: " + Why);

    const Arena &Mem = RT.Mem;
    const Arena &OmA = RT.Om.Allocator;
    const uint64_t MemUsed = Mem.bumpUsedBytes();
    const uint64_t OmUsed = OmA.bumpUsedBytes();
    const uint64_t Page = systemPageBytes();

    for (size_t I = 0; I < Opt.Roots.size(); ++I) {
      uint64_t Off = offOfPtr(Mem, Opt.Roots[I]);
      if (!Opt.Roots[I] || Off < Arena::HandleGrain || Off >= MemUsed ||
          Off % Arena::HandleGrain != 0)
        return Fail(Status::BadState,
                    strf("root #%zu does not point into the runtime arena's "
                         "allocated space",
                         I));
    }

    // META section.
    MetaFixed MF = {};
    MF.CursorOff = offOfPtr(OmA, RT.Main.Cursor);
    MF.TraceEndOff = offOfPtr(OmA, RT.TraceEnd);
    std::memcpy(MF.Stats, &RT.Main.S, sizeof(MF.Stats));
    MF.MetaBytes = RT.MetaBytes;
    MF.GcAllocMark = RT.GcAllocMark;
    MF.BoxBytesPerNode = RT.Cfg.BoxBytesPerNode;
    MF.OmBaseOff = offOfPtr(OmA, RT.Om.Base);
    MF.OmFirstGroupOff = offOfPtr(OmA, RT.Om.FirstGroup);
    MF.OmSize = RT.Om.Size;
    MF.OmRelabels = RT.Om.Relabels;
    MF.OmRangeRelabels = RT.Om.RangeRelabels;
    MF.ReadMemoCount = RT.ReadMemo.Count;
    MF.ReadMemoBuckets = RT.ReadMemo.Buckets.size();
    MF.AllocMemoCount = RT.AllocMemo.Count;
    MF.AllocMemoBuckets = RT.AllocMemo.Buckets.size();
    MF.RootCount = Opt.Roots.size();
    fillArenaMeta(MF.MemA, Mem);
    fillArenaMeta(MF.OmA, OmA);

    ByteBuf Meta;
    Meta.u64(sectionPreamble(SecMeta));
    Meta.raw(&MF, sizeof(MF));
    appendLargePairs(Meta, Mem);
    appendLargePairs(Meta, OmA);

    ByteBuf MemoR = memoSection(SecMemoRead, Mem, RT.ReadMemo);
    ByteBuf MemoA = memoSection(SecMemoAlloc, Mem, RT.AllocMemo);

    ByteBuf Roots;
    Roots.u64(sectionPreamble(SecRoots));
    Roots.u64(Opt.Roots.size());
    for (const void *P : Opt.Roots)
      Roots.u64(offOfPtr(Mem, P));

    // Lay the sections out contiguously; ROOTS absorbs the padding that
    // page-aligns the arena images.
    FileHeader H = {};
    SectionEntry *SE = H.Sections;
    uint64_t Off = HeaderBytes;
    auto Place = [&](size_t Index, uint32_t Kind, uint64_t Length) {
      SE[Index].Kind = Kind;
      SE[Index].Offset = Off;
      SE[Index].Length = Length;
      Off += Length;
    };
    Place(IMeta, SecMeta, Meta.size());
    Place(IMemoRead, SecMemoRead, MemoR.size());
    Place(IMemoAlloc, SecMemoAlloc, MemoA.size());
    uint64_t RootsLen = padTo(Off + Roots.size(), Page) - Off;
    Roots.padToLength(RootsLen);
    Place(IRoots, SecRoots, RootsLen);
    Place(IMem, SecMem, padTo(MemUsed, Page));
    Place(IOm, SecOm, padTo(OmUsed, Page));
    const uint64_t FileBytes = Off;

    io::File F = io::File::createTrunc(Path);
    if (!F)
      return Fail(Status::IoError, "cannot create " + Path);

    // Small sections: write from the buffers, checksum the same bytes.
    const ByteBuf *Small[] = {&Meta, &MemoR, &MemoA, &Roots};
    for (size_t I = 0; I < 4; ++I) {
      if (!F.pwriteAll(Small[I]->B.data(), Small[I]->B.size(), SE[I].Offset))
        return Fail(Status::IoError, "write failed for " + Path);
      SE[I].Checksum = Checksum64::of(Small[I]->B.data(), Small[I]->B.size());
    }

    // Arena sections: an 8-byte kind preamble overlays region bytes
    // [0, 8) — never used by the runtime (offset 0 is the null handle) —
    // then the region image verbatim. The source region is not modified.
    auto WriteArena = [&](size_t Index, const Arena &A) -> bool {
      uint64_t Pre = sectionPreamble(SE[Index].Kind);
      uint64_t Len = SE[Index].Length;
      if (!F.pwriteAll(&Pre, sizeof(Pre), SE[Index].Offset) ||
          !F.pwriteAll(A.Base + Arena::HandleGrain, Len - Arena::HandleGrain,
                       SE[Index].Offset + Arena::HandleGrain))
        return false;
      Checksum64 C;
      C.update(&Pre, sizeof(Pre));
      C.update(A.Base + Arena::HandleGrain, Len - Arena::HandleGrain);
      SE[Index].Checksum = C.digest();
      return true;
    };
    if (!WriteArena(IMem, Mem) || !WriteArena(IOm, OmA))
      return Fail(Status::IoError, "write failed for " + Path);

    H.MagicWord = Magic;
    H.Version = FormatVersion;
    H.Endian = EndianTag;
    H.LayoutFingerprint = traceLayoutFingerprint();
    H.AnchorAddr = codeAnchor();
    H.FileBytes = FileBytes;
    H.PageBytes = Page;
    H.MemBase = reinterpret_cast<uint64_t>(Mem.Base);
    H.MemRegionBytes = Mem.RegionBytes;
    H.MemBumpUsed = MemUsed;
    H.OmBase = reinterpret_cast<uint64_t>(OmA.Base);
    H.OmRegionBytes = OmA.RegionBytes;
    H.OmBumpUsed = OmUsed;
    H.SectionCount = NumSections;

    // The header checksum covers the whole 4096-byte block (padding
    // included) with the checksum field itself zeroed, so with the
    // contiguous full-length section checksums above, every byte of the
    // file is under exactly one checksum.
    std::vector<uint8_t> Block(HeaderBytes, 0);
    H.HeaderChecksum = 0;
    std::memcpy(Block.data(), &H, sizeof(H));
    uint64_t Sum = Checksum64::of(Block.data(), Block.size());
    std::memcpy(Block.data() + offsetof(FileHeader, HeaderChecksum), &Sum,
                sizeof(Sum));
    if (!F.pwriteAll(Block.data(), Block.size(), 0))
      return Fail(Status::IoError, "write failed for " + Path);

    R.FileBytes = FileBytes;
    return R;
  }

  //===------------------------------------------------------------===//
  // Load stage 1: parse and validate without touching the runtime
  //===------------------------------------------------------------===//

  struct Parsed {
    io::File F;
    FileHeader H;
    MetaFixed MF;
    std::vector<std::pair<uint64_t, uint64_t>> MemLarge, OmLarge;
    std::vector<uint64_t> ReadBuckets, AllocBuckets, RootOffs;
  };

  static bool failL(LoadResult &Out, Status St, std::string Diag) {
    Out.St = St;
    Out.Diagnostic = std::move(Diag);
    return false;
  }

  /// Streams a section through Checksum64 without loading it whole.
  static bool checksumRange(const io::File &F, uint64_t Off, uint64_t Len,
                            uint64_t &Sum) {
    Checksum64 C;
    std::vector<uint8_t> Buf(1 << 20);
    while (Len > 0) {
      size_t N = Len < Buf.size() ? static_cast<size_t>(Len) : Buf.size();
      if (!F.preadAll(Buf.data(), N, Off))
        return false;
      C.update(Buf.data(), N);
      Off += N;
      Len -= N;
    }
    Sum = C.digest();
    return true;
  }

  static bool parseAndValidate(const Runtime &RT, const std::string &Path,
                               bool Mmap, bool Verify, Parsed &P,
                               LoadResult &Out) {
    P.F = io::File::openRead(Path);
    if (!P.F)
      return failL(Out, Status::IoError, "cannot open " + Path);
    int64_t ActualSize = P.F.size();
    if (ActualSize < 0)
      return failL(Out, Status::IoError, "cannot stat " + Path);
    if (static_cast<uint64_t>(ActualSize) < HeaderBytes)
      return failL(Out, Status::Truncated,
                   strf("file is %lld bytes, smaller than the %llu-byte "
                        "header block",
                        (long long)ActualSize, (unsigned long long)HeaderBytes));

    std::vector<uint8_t> Block(HeaderBytes);
    if (!P.F.preadAll(Block.data(), Block.size(), 0))
      return failL(Out, Status::IoError, "header read failed");
    FileHeader &H = P.H;
    std::memcpy(&H, Block.data(), sizeof(H));

    if (H.MagicWord != Magic) {
      if (H.MagicWord == byteswap64(Magic))
        return failL(Out, Status::BadEndian,
                     "snapshot written on a machine with different byte "
                     "order");
      return failL(Out, Status::BadMagic,
                   strf("not a CEAL snapshot (magic 0x%016llx)",
                        (unsigned long long)H.MagicWord));
    }
    if (H.Endian != EndianTag)
      return failL(Out, Status::BadEndian,
                   strf("endianness tag 0x%08x does not match this host",
                        H.Endian));
    if (H.Version != FormatVersion)
      return failL(Out, Status::BadVersion,
                   strf("format version %u; this build reads version %u",
                        H.Version, FormatVersion));
    uint64_t WantFp = traceLayoutFingerprint();
    if (H.LayoutFingerprint != WantFp)
      return failL(Out, Status::BadLayout,
                   strf("trace layout fingerprint 0x%016llx does not match "
                        "this build's 0x%016llx (CEAL_WIDE_TRACE or node "
                        "layout mismatch)",
                        (unsigned long long)H.LayoutFingerprint,
                        (unsigned long long)WantFp));

    // Malformed header fields (a crafted file can recompute the header
    // checksum, so these are real checks, not redundancy).
    if (!isPow2(H.PageBytes) || H.PageBytes < 512 ||
        H.PageBytes > (uint64_t(1) << 24))
      return failL(Out, Status::BadHeader,
                   strf("implausible page size %llu",
                        (unsigned long long)H.PageBytes));

    // Header block checksum: over all 4096 bytes with the field zeroed.
    uint64_t Stored = H.HeaderChecksum;
    std::memset(Block.data() + offsetof(FileHeader, HeaderChecksum), 0,
                sizeof(uint64_t));
    if (Checksum64::of(Block.data(), Block.size()) != Stored)
      return failL(Out, Status::BadHeader, "header checksum mismatch");

    if (static_cast<uint64_t>(ActualSize) < H.FileBytes)
      return failL(Out, Status::Truncated,
                   strf("file is %lld bytes but the header records %llu",
                        (long long)ActualSize,
                        (unsigned long long)H.FileBytes));
    if (static_cast<uint64_t>(ActualSize) > H.FileBytes)
      return failL(Out, Status::BadSectionTable,
                   strf("%llu trailing bytes beyond the recorded file size",
                        (unsigned long long)(ActualSize - H.FileBytes)));

    // Region geometry.
    if (H.MemRegionBytes == 0 || H.MemRegionBytes > Arena::MaxRegionBytes ||
        H.OmRegionBytes == 0 || H.OmRegionBytes > Arena::MaxRegionBytes)
      return failL(Out, Status::BadHeader, "region size out of range");
    if (H.MemBase == 0 || H.OmBase == 0 || H.MemBase % H.PageBytes != 0 ||
        H.OmBase % H.PageBytes != 0)
      return failL(Out, Status::BadHeader, "region base not page-aligned");
    if (H.MemBase + H.MemRegionBytes < H.MemBase ||
        H.OmBase + H.OmRegionBytes < H.OmBase)
      return failL(Out, Status::BadHeader, "region wraps the address space");
    bool Disjoint = H.MemBase + H.MemRegionBytes <= H.OmBase ||
                    H.OmBase + H.OmRegionBytes <= H.MemBase;
    if (!Disjoint)
      return failL(Out, Status::BadHeader, "arena regions overlap");
    if (H.MemBumpUsed < Arena::HandleGrain ||
        H.MemBumpUsed % Arena::HandleGrain != 0 ||
        H.MemBumpUsed > H.MemRegionBytes || H.OmBumpUsed < Arena::HandleGrain ||
        H.OmBumpUsed % Arena::HandleGrain != 0 ||
        H.OmBumpUsed > H.OmRegionBytes)
      return failL(Out, Status::BadHeader,
                   "arena bump frontier outside its region");

    // Section table: exact kinds in order, contiguous from the header
    // block to FileBytes, arena sections page-aligned with the lengths
    // their bump frontiers dictate.
    if (H.SectionCount != NumSections)
      return failL(Out, Status::BadSectionTable,
                   strf("section count %u, expected %u", H.SectionCount,
                        NumSections));
    static const uint32_t WantKinds[NumSections] = {
        SecMeta, SecMemoRead, SecMemoAlloc, SecRoots, SecMem, SecOm};
    uint64_t Cursor = HeaderBytes;
    for (size_t I = 0; I < NumSections; ++I) {
      const SectionEntry &E = H.Sections[I];
      if (E.Kind != WantKinds[I])
        return failL(Out, Status::BadSectionTable,
                     strf("section %zu has kind %u, expected %u", I, E.Kind,
                          WantKinds[I]));
      if (E.Offset != Cursor)
        return failL(Out, Status::BadSectionTable,
                     strf("section %zu not contiguous (offset %llu, expected "
                          "%llu)",
                          I, (unsigned long long)E.Offset,
                          (unsigned long long)Cursor));
      if (E.Length < 8 || E.Length % 8 != 0 ||
          E.Length > H.FileBytes - Cursor)
        return failL(Out, Status::BadSectionTable,
                     strf("section %zu length %llu is invalid", I,
                          (unsigned long long)E.Length));
      Cursor += E.Length;
    }
    if (Cursor != H.FileBytes)
      return failL(Out, Status::BadSectionTable,
                   "sections do not cover the file exactly");
    if (H.Sections[IMem].Offset % H.PageBytes != 0 ||
        H.Sections[IOm].Offset % H.PageBytes != 0)
      return failL(Out, Status::BadSectionTable,
                   "arena section not page-aligned");
    if (H.Sections[IMem].Length != padTo(H.MemBumpUsed, H.PageBytes) ||
        H.Sections[IOm].Length != padTo(H.OmBumpUsed, H.PageBytes))
      return failL(Out, Status::BadSectionTable,
                   "arena section length disagrees with its bump frontier");

    // Section content checksums, then the embedded kind preambles (so a
    // checksum-preserving payload swap is still caught). The fast
    // warm-start path verifies only the header (already done) and the
    // META and root sections here: the memo sections are trace-sized
    // (one word per bucket), so checksumming them would scale the warm
    // start with the trace again. Every bucket offset installed from
    // them is still bounds-checked in parseMeta either way.
    std::vector<uint8_t> Small[4];
    for (size_t I = 0; I < 4; ++I) {
      const SectionEntry &E = H.Sections[I];
      Small[I].resize(E.Length);
      if (!P.F.preadAll(Small[I].data(), E.Length, E.Offset))
        return failL(Out, Status::IoError, "section read failed");
      if (!Verify && (I == IMemoRead || I == IMemoAlloc))
        continue;
      if (Checksum64::of(Small[I].data(), E.Length) != E.Checksum)
        return failL(Out, Status::BadChecksum,
                     strf("section %zu checksum mismatch", I));
    }
    // The arena payloads are the O(file) part; the fast warm-start path
    // skips their content checksums by contract (WarmStartOptions) —
    // their geometry, preambles, and every offset installed from them
    // are still checked below.
    if (Verify)
      for (size_t I : {IMem, IOm}) {
        uint64_t Sum = 0;
        if (!checksumRange(P.F, H.Sections[I].Offset, H.Sections[I].Length,
                           Sum))
          return failL(Out, Status::IoError, "section read failed");
        if (Sum != H.Sections[I].Checksum)
          return failL(Out, Status::BadChecksum,
                       strf("section %zu checksum mismatch", I));
      }
    for (size_t I = 0; I < NumSections; ++I) {
      uint64_t Pre = 0;
      if (I < 4)
        std::memcpy(&Pre, Small[I].data(), sizeof(Pre));
      else if (!P.F.preadAll(&Pre, sizeof(Pre), H.Sections[I].Offset))
        return failL(Out, Status::IoError, "section read failed");
      if (Pre != sectionPreamble(H.Sections[I].Kind))
        return failL(Out, Status::BadSectionKind,
                     strf("section %zu payload carries the wrong kind tag "
                          "(swapped payloads?)",
                          I));
    }

    return parseMeta(RT, Mmap, Small, P, Out);
  }

  /// META/memo/roots parsing + semantic validation (file still the only
  /// thing touched; the runtime is read for config comparison only).
  static bool parseMeta(const Runtime &RT, bool Mmap,
                        const std::vector<uint8_t> Small[4], Parsed &P,
                        LoadResult &Out) {
    const FileHeader &H = P.H;
    MetaFixed &MF = P.MF;
    const std::vector<uint8_t> &Meta = Small[IMeta];
    if (Meta.size() < 8 + sizeof(MetaFixed))
      return failL(Out, Status::BadMeta, "META section too short");
    std::memcpy(&MF, Meta.data() + 8, sizeof(MF));

    // Cross-checks between the header and META copies of the frontier.
    if (MF.MemA.BumpUsed != H.MemBumpUsed || MF.OmA.BumpUsed != H.OmBumpUsed)
      return failL(Out, Status::BadMeta,
                   "META arena frontier disagrees with the header");

    // Large-freelist pairs (Mem's, then Om's). Check each count against
    // the tail capacity separately — the counts are untrusted uint64s and
    // summing them first can wrap past the bound.
    uint64_t PairCap = (Meta.size() - 8 - sizeof(MetaFixed)) / 16;
    if (MF.MemA.LargeCount > PairCap ||
        MF.OmA.LargeCount > PairCap - MF.MemA.LargeCount)
      return failL(Out, Status::BadMeta,
                   "META large-freelist table exceeds its section");
    const uint8_t *Tail = Meta.data() + 8 + sizeof(MetaFixed);
    auto ReadPairs = [&Tail](std::vector<std::pair<uint64_t, uint64_t>> &Dst,
                             uint64_t N) {
      for (uint64_t I = 0; I < N; ++I) {
        uint64_t Size, Off;
        std::memcpy(&Size, Tail, 8);
        std::memcpy(&Off, Tail + 8, 8);
        Tail += 16;
        Dst.emplace_back(Size, Off);
      }
    };
    ReadPairs(P.MemLarge, MF.MemA.LargeCount);
    ReadPairs(P.OmLarge, MF.OmA.LargeCount);

    // Every offset the loader will turn into a pointer gets bounds- and
    // alignment-checked against the serialized frontier it indexes.
    auto OffOk = [](uint64_t Off, uint64_t Need, uint64_t Used) {
      return Off >= Arena::HandleGrain && Off % Arena::HandleGrain == 0 &&
             Need <= Used && Off <= Used - Need;
    };
    auto BadOff = [&Out](const char *What, uint64_t Off) {
      return failL(Out, Status::HandleOutOfBounds,
                   strf("%s offset %llu points outside the serialized arena",
                        What, (unsigned long long)Off));
    };
    if (!OffOk(MF.CursorOff, sizeof(OmNode), H.OmBumpUsed))
      return BadOff("cursor timestamp", MF.CursorOff);
    if (!OffOk(MF.TraceEndOff, sizeof(OmNode), H.OmBumpUsed))
      return BadOff("trace-end timestamp", MF.TraceEndOff);
    if (!OffOk(MF.OmBaseOff, sizeof(OmNode), H.OmBumpUsed))
      return BadOff("order-list base", MF.OmBaseOff);
    if (!OffOk(MF.OmFirstGroupOff, sizeof(OmGroup), H.OmBumpUsed))
      return BadOff("order-list first group", MF.OmFirstGroupOff);
    if (MF.OmSize == 0 || MF.OmSize > H.OmBumpUsed / sizeof(OmNode) + 1)
      return failL(Out, Status::BadMeta,
                   strf("order-list size %llu impossible for a %llu-byte "
                        "arena",
                        (unsigned long long)MF.OmSize,
                        (unsigned long long)H.OmBumpUsed));
    for (size_t I = 0; I < Arena::NumClasses; ++I) {
      if (MF.MemA.FreeHeads[I] &&
          !OffOk(MF.MemA.FreeHeads[I], Arena::classSize(I), H.MemBumpUsed))
        return BadOff("trace-arena freelist head", MF.MemA.FreeHeads[I]);
      if (MF.OmA.FreeHeads[I] &&
          !OffOk(MF.OmA.FreeHeads[I], Arena::classSize(I), H.OmBumpUsed))
        return BadOff("order-arena freelist head", MF.OmA.FreeHeads[I]);
    }
    auto CheckLarge =
        [&](const std::vector<std::pair<uint64_t, uint64_t>> &Pairs,
            uint64_t Used, const char *What) {
          uint64_t PrevSize = 0;
          for (const auto &[Size, Off] : Pairs) {
            if (Size <= Arena::MaxSmallSize || Size % Arena::HandleGrain ||
                Size <= PrevSize)
              return failL(Out, Status::BadMeta,
                           strf("%s large-freelist table malformed", What));
            if (!Off || !OffOk(Off, Size, Used))
              return BadOff(What, Off);
            PrevSize = Size;
          }
          return true;
        };
    if (!CheckLarge(P.MemLarge, H.MemBumpUsed, "trace-arena") ||
        !CheckLarge(P.OmLarge, H.OmBumpUsed, "order-arena"))
      return false;

    // Memo bucket arrays.
    auto ParseMemo = [&](size_t Index, uint64_t WantBuckets, uint64_t Count,
                         uint64_t NodeBytes, std::vector<uint64_t> &Dst,
                         const char *Name) {
      const std::vector<uint8_t> &Sec = Small[Index];
      if (!isPow2(WantBuckets) || WantBuckets < 64 ||
          WantBuckets > (uint64_t(1) << 31))
        return failL(Out, Status::BadMeta,
                     strf("%s memo bucket count %llu invalid", Name,
                          (unsigned long long)WantBuckets));
      if (Count > H.MemBumpUsed / NodeBytes)
        return failL(Out, Status::BadMeta,
                     strf("%s memo count exceeds the arena's capacity", Name));
      if (Sec.size() < 16 || (Sec.size() - 16) / 8 < WantBuckets)
        return failL(Out, Status::BadMeta,
                     strf("%s memo section too short for its buckets", Name));
      uint64_t Stored;
      std::memcpy(&Stored, Sec.data() + 8, 8);
      if (Stored != WantBuckets)
        return failL(Out, Status::BadMeta,
                     strf("%s memo bucket count disagrees with META", Name));
      Dst.resize(WantBuckets);
      std::memcpy(Dst.data(), Sec.data() + 16, WantBuckets * 8);
      for (uint64_t Off : Dst)
        if (Off && !OffOk(Off, NodeBytes, H.MemBumpUsed))
          return BadOff("memo bucket", Off);
      return true;
    };
    if (!ParseMemo(IMemoRead, MF.ReadMemoBuckets, MF.ReadMemoCount,
                   sizeof(ReadNode), P.ReadBuckets, "read") ||
        !ParseMemo(IMemoAlloc, MF.AllocMemoBuckets, MF.AllocMemoCount,
                   sizeof(AllocNode), P.AllocBuckets, "alloc"))
      return false;

    // Root table.
    const std::vector<uint8_t> &RootsSec = Small[IRoots];
    if (RootsSec.size() < 16 || (RootsSec.size() - 16) / 8 < MF.RootCount)
      return failL(Out, Status::BadMeta,
                   "root section too short for its count");
    uint64_t StoredRoots;
    std::memcpy(&StoredRoots, RootsSec.data() + 8, 8);
    if (StoredRoots != MF.RootCount)
      return failL(Out, Status::BadMeta,
                   "root count disagrees between META and the root section");
    P.RootOffs.resize(MF.RootCount);
    std::memcpy(P.RootOffs.data(), RootsSec.data() + 16, MF.RootCount * 8);
    for (uint64_t Off : P.RootOffs)
      if (!OffOk(Off, Arena::HandleGrain, H.MemBumpUsed))
        return BadOff("root", Off);

    // Environment compatibility, last: everything about the *file* is
    // now known-consistent, so these name the actual incompatibility.
    if (H.AnchorAddr != codeAnchor())
      return failL(Out, Status::CodeMoved,
                   strf("code anchor moved (saved 0x%llx, this process "
                        "0x%llx); load from the same binary with ASLR "
                        "disabled",
                        (unsigned long long)H.AnchorAddr,
                        (unsigned long long)codeAnchor()));
    if (MF.BoxBytesPerNode != RT.Cfg.BoxBytesPerNode)
      return failL(Out, Status::ConfigMismatch,
                   strf("checkpoint used BoxBytesPerNode=%llu, runtime has "
                        "%u",
                        (unsigned long long)MF.BoxBytesPerNode,
                        RT.Cfg.BoxBytesPerNode));
    if (Mmap && H.PageBytes != systemPageBytes())
      return failL(Out, Status::BadMeta,
                   strf("saved with %llu-byte pages, this host has %llu "
                        "(use the copying load path)",
                        (unsigned long long)H.PageBytes,
                        (unsigned long long)systemPageBytes()));
    return true;
  }

  //===------------------------------------------------------------===//
  // Load stage 2: install into the runtime
  //===------------------------------------------------------------===//

  /// Rewinds a runtime whose install failed partway back to the pristine
  /// empty state a fresh Runtime has: both regions are dropped and
  /// re-claimed anonymously at their current bases (guaranteed free once
  /// our own mappings are gone), the order list is rebuilt, and every
  /// scalar is reset. A failed load is therefore always recoverable —
  /// the runtime can run cores again or retry a different checkpoint.
  static void resetToPristine(Runtime &RT) {
    RT.Mem.remapTo(RT.Mem.Base, RT.Mem.RegionBytes);
    RT.Om.Allocator.remapTo(RT.Om.Allocator.Base, RT.Om.Allocator.RegionBytes);
    RT.Om.rebuildEmpty();
    RT.Main.Cursor = RT.TraceEnd = RT.Om.base();
    RT.Main.IntervalEnd = nullptr;
    RT.Main.PendingSubst = 0;
    RT.Main.SplicedFlag = false;
    RT.CurPhase = Runtime::Phase::Meta;
    RT.Main.PendingReads.clear();
    RT.Main.Heap.clear();
    RT.PendingReadMemo.clear();
    RT.PendingAllocMemo.clear();
    RT.Main.DeferredFrees.clear();
    RT.ReadMemo.Buckets.assign(64, Handle<ReadNode>{});
    RT.ReadMemo.Count = 0;
    RT.AllocMemo.Buckets.assign(64, Handle<AllocNode>{});
    RT.AllocMemo.Count = 0;
    RT.Main.S = Runtime::Stats();
    RT.MetaBytes = 0;
    RT.GcAllocMark = 0;
    RT.Oom = false;
  }

  /// Walks one serialized freelist chain, rejecting any cell outside
  /// [grain, frontier) bounds or off the 8-byte grid, and any chain
  /// longer than the arena could hold (a cycle). The chain links are raw
  /// pointers inside the freshly adopted image, so this must run before
  /// the arena is allowed to pop them.
  static bool checkFreeChain(const Arena &A, uint64_t HeadOff,
                             uint64_t CellBytes, uint64_t Used,
                             const char *Name, LoadResult &Out) {
    uint64_t Off = HeadOff;
    uint64_t Steps = 0;
    const uint64_t Cap = Used / Arena::HandleGrain + 2;
    while (Off != 0) {
      if (Off < Arena::HandleGrain || Off % Arena::HandleGrain != 0 ||
          CellBytes > Used || Off > Used - CellBytes)
        return failL(Out, Status::HandleOutOfBounds,
                     strf("%s freelist cell at offset %llu outside the "
                          "serialized arena",
                          Name, (unsigned long long)Off));
      if (++Steps > Cap)
        return failL(Out, Status::AuditFailed,
                     strf("%s freelist chain does not terminate (cycle)",
                          Name));
      const void *Next;
      std::memcpy(&Next, A.Base + Off, sizeof(Next));
      Off = Next ? static_cast<uint64_t>(
                       reinterpret_cast<uintptr_t>(Next) -
                       reinterpret_cast<uintptr_t>(A.Base))
                 : 0;
    }
    return true;
  }

  static bool restoreArena(Arena &A, const ArenaMeta &AM, uint64_t Used,
                           const std::vector<std::pair<uint64_t, uint64_t>>
                               &Large,
                           bool Verify, const char *Name, LoadResult &Out) {
    A.BumpPtr = A.Base + Used;
    A.LiveBytes = AM.LiveBytes;
    A.MaxLiveBytes = AM.MaxLiveBytes;
    A.TotalAllocated = AM.TotalAllocated;
    A.AllocCount = AM.AllocCount;
    // The chain *heads* were bounds-checked in parseMeta; the chains
    // themselves are arena payload, so on the fast warm-start path they
    // are adopted unwalked (the walk would fault in a page per scattered
    // free cell — the single largest cost of a warm start — to check
    // bytes the contract already trusts).
    for (size_t I = 0; I < Arena::NumClasses; ++I) {
      uint64_t HeadOff = AM.FreeHeads[I];
      if (Verify &&
          !checkFreeChain(A, HeadOff, Arena::classSize(I), Used, Name, Out))
        return false;
      A.FreeLists[I] =
          HeadOff ? reinterpret_cast<Arena::FreeCell *>(A.Base + HeadOff)
                  : nullptr;
    }
    A.LargeFree.clear();
    for (const auto &[Size, HeadOff] : Large) {
      if (Verify && !checkFreeChain(A, HeadOff, Size, Used, Name, Out))
        return false;
      A.LargeFree[Size] = reinterpret_cast<Arena::FreeCell *>(A.Base + HeadOff);
    }
    return true;
  }

  template <typename NodeT>
  static void restoreMemo(MemoTable<NodeT> &Table, const Arena &Mem,
                          const std::vector<uint64_t> &Offsets,
                          uint64_t Count) {
    Table.Buckets.assign(Offsets.size(), Handle<NodeT>{});
    for (size_t I = 0; I < Offsets.size(); ++I)
      Table.Buckets[I] = handleAtOff<NodeT>(Mem, Offsets[I]);
    Table.Count = static_cast<size_t>(Count);
  }

  static bool install(Runtime &RT, Parsed &P, bool Mmap, bool Verify,
                      LoadResult &Out) {
    const FileHeader &H = P.H;
    if (RT.CurPhase != Runtime::Phase::Meta || RT.Om.size() != 1 ||
        RT.Mem.allocationCount() != 0 || RT.Mem.liveBytes() != 0)
      return failL(Out, Status::BadState,
                   "load requires a pristine runtime (fresh, no trace)");

    // Claim the recorded bases. The claims are atomic (nothing foreign is
    // clobbered); the one retry covers the case where this runtime's own
    // other region sat on a target and has since been moved off it.
    char *MemWant = reinterpret_cast<char *>(H.MemBase);
    char *OmWant = reinterpret_cast<char *>(H.OmBase);
    bool MemOk = RT.Mem.remapTo(MemWant, H.MemRegionBytes);
    bool OmOk = RT.Om.Allocator.remapTo(OmWant, H.OmRegionBytes);
    if (!MemOk)
      MemOk = RT.Mem.remapTo(MemWant, H.MemRegionBytes);
    if (!MemOk || !OmOk) {
      resetToPristine(RT);
      return failL(Out, Status::AddressUnavailable,
                   strf("cannot claim the recorded region bases %p/%p "
                        "(address space occupied; load in a fresh process, "
                        "with ASLR disabled for cross-process use)",
                        (void *)MemWant, (void *)OmWant));
    }

    // Adopt the arena images. The copy path reads past the 8-byte kind
    // preamble so region bytes [0, 8) stay zero; the mmap path maps the
    // whole page-aligned section copy-on-write (the preamble lands in the
    // never-used first grain).
    bool ContentOk;
    if (Mmap) {
      ContentOk = RT.Mem.mapFilePrefix(P.F.fd(), H.Sections[IMem].Offset,
                                       H.Sections[IMem].Length) &&
                  RT.Om.Allocator.mapFilePrefix(
                      P.F.fd(), H.Sections[IOm].Offset,
                      H.Sections[IOm].Length);
    } else {
      ContentOk =
          (H.MemBumpUsed == Arena::HandleGrain ||
           P.F.preadAll(RT.Mem.Base + Arena::HandleGrain,
                        H.MemBumpUsed - Arena::HandleGrain,
                        H.Sections[IMem].Offset + Arena::HandleGrain)) &&
          (H.OmBumpUsed == Arena::HandleGrain ||
           P.F.preadAll(RT.Om.Allocator.Base + Arena::HandleGrain,
                        H.OmBumpUsed - Arena::HandleGrain,
                        H.Sections[IOm].Offset + Arena::HandleGrain));
    }
    if (!ContentOk) {
      resetToPristine(RT);
      return failL(Out, Status::IoError,
                   "reading the arena images into the region failed");
    }

    if (!restoreArena(RT.Mem, P.MF.MemA, H.MemBumpUsed, P.MemLarge, Verify,
                      "trace-arena", Out) ||
        !restoreArena(RT.Om.Allocator, P.MF.OmA, H.OmBumpUsed, P.OmLarge,
                      Verify, "order-arena", Out)) {
      resetToPristine(RT);
      return false;
    }

    OrderList &Om = RT.Om;
    char *OmB = Om.Allocator.Base;
    Om.Base = reinterpret_cast<OmNode *>(OmB + P.MF.OmBaseOff);
    Om.FirstGroup = reinterpret_cast<OmGroup *>(OmB + P.MF.OmFirstGroupOff);
    Om.Size = static_cast<size_t>(P.MF.OmSize);
    Om.Relabels = static_cast<size_t>(P.MF.OmRelabels);
    Om.RangeRelabels = static_cast<size_t>(P.MF.OmRangeRelabels);
    Om.FillLimit = OrderList::GroupLimit;
    Om.AppendActive = false;

    RT.Main.Cursor = reinterpret_cast<OmNode *>(OmB + P.MF.CursorOff);
    RT.TraceEnd = reinterpret_cast<OmNode *>(OmB + P.MF.TraceEndOff);
    RT.Main.IntervalEnd = nullptr;
    RT.Main.PendingSubst = 0;
    RT.Main.SplicedFlag = false;
    RT.CurPhase = Runtime::Phase::Meta;
    RT.Main.PendingReads.clear();
    RT.Main.Heap.clear();
    RT.PendingReadMemo.clear();
    RT.PendingAllocMemo.clear();
    RT.Main.DeferredFrees.clear();
    std::memcpy(&RT.Main.S, P.MF.Stats, sizeof(RT.Main.S));
    RT.MetaBytes = static_cast<size_t>(P.MF.MetaBytes);
    RT.GcAllocMark = static_cast<size_t>(P.MF.GcAllocMark);
    RT.Oom = false;

    restoreMemo(RT.ReadMemo, RT.Mem, P.ReadBuckets, P.MF.ReadMemoCount);
    restoreMemo(RT.AllocMemo, RT.Mem, P.AllocBuckets, P.MF.AllocMemoCount);

    Out.Roots.reserve(P.RootOffs.size());
    for (uint64_t Off : P.RootOffs)
      Out.Roots.push_back(RT.Mem.Base + Off);

    // Untrusted-file validation: the linear TraceAudit load mode, plus
    // the full sanitizer on the safe copying path. The fast warm-start
    // path (Verify off) skips this O(trace) walk by contract — the
    // scalar state installed above was bounds-checked piece by piece, so
    // the *loader* cannot have faulted, and what remains unverified is
    // the mapped trace payload itself (WarmStartOptions::VerifyTrace
    // documents the trade).
    if (Verify) {
      TraceAudit::Report Rep = TraceAudit::validateLoaded(RT);
      if (Rep.ok() && !Mmap)
        Rep = TraceAudit::inspect(RT);
      if (!Rep.ok()) {
        resetToPristine(RT);
        Out.Roots.clear();
        return failL(Out, Status::AuditFailed,
                     "loaded trace failed validation:\n" + Rep.summary());
      }
    }
    return true;
  }

  static LoadResult load(Runtime &RT, const std::string &Path, bool Mmap,
                         bool Verify) {
    LoadResult Out;
    Parsed P;
    if (!parseAndValidate(RT, Path, Mmap, Verify, P, Out))
      return Out;
    install(RT, P, Mmap, Verify, Out);
    // The fd may close now even on the mmap path: MAP_PRIVATE mappings
    // keep their file reference after close (and after unlink).
    return Out;
  }

  //===------------------------------------------------------------===//
  // Trace shape digest
  //===------------------------------------------------------------===//

  static uint64_t digest(const Runtime &RT) {
    checkAlways(RT.CurPhase == Runtime::Phase::Meta,
                "traceShapeDigest outside the meta phase");
    const uint64_t RegionBase = reinterpret_cast<uint64_t>(RT.Mem.Base);
    const uint64_t Region = RT.Mem.RegionBytes;
    uint64_t H = 0x4345414c53484150ULL;
    auto MixRaw = [&H](uint64_t W) { H = hashMixWord(H, W); };
    // Word values routinely hold arena pointers (list cells, modrefs,
    // blocks). Raw addresses differ between runtimes at different region
    // bases, and raw *offsets* differ when equivalent traces placed
    // their blocks differently (the allocation history decides which
    // freelist block a node gets). Addresses are opaque identities to
    // core code (only equality is observable), so the digest is made
    // placement-abstract: each distinct in-region value is renamed to its
    // first-occurrence ordinal in trace order. Two digests agree iff the
    // traces match up to a bijection of block addresses — exactly
    // observational equivalence.
    std::unordered_map<uint64_t, uint64_t> Names;
    auto MixVal = [&](Word W) {
      if (W >= RegionBase && W - RegionBase < Region) {
        auto It = Names.try_emplace(W - RegionBase, Names.size()).first;
        MixRaw(1);
        MixRaw(It->second);
      } else {
        MixRaw(0);
        MixRaw(W);
      }
    };
    auto MixClosure = [&](const Closure *C) {
      MixRaw(C->identityBits());
      for (size_t I = 0, N = C->numArgs(); I < N; ++I)
        MixVal(C->args()[I]);
    };
    for (const OmNode *N = RT.Om.base()->Next; N; N = N->Next) {
      OmItem Item = N->Item;
      if (isEndItem(Item)) {
        MixRaw(2);
        continue;
      }
      const TraceNode *T = itemNode(RT.Mem, Item);
      MixRaw(3);
      MixRaw(static_cast<uint64_t>(T->Kind));
      MixRaw(T->Flags);
      switch (T->Kind) {
      case TraceKind::Read: {
        const auto *R = static_cast<const ReadNode *>(T);
        MixVal(toWord(RT.Mem.ptr(R->Ref)));
        MixVal(R->SeenValue);
        MixClosure(RT.Mem.ptr(R->Clo));
        break;
      }
      case TraceKind::Write: {
        const auto *W = static_cast<const WriteNode *>(T);
        MixVal(toWord(RT.Mem.ptr(W->Ref)));
        MixVal(W->Value);
        break;
      }
      case TraceKind::Alloc: {
        const auto *A = static_cast<const AllocNode *>(T);
        MixVal(toWord(RT.Mem.ptr(A->Block)));
        MixRaw(A->Size);
        MixClosure(RT.Mem.ptr(A->Init));
        break;
      }
      }
    }
    return H;
  }
};

//===----------------------------------------------------------------------===//
// Public entry points
//===----------------------------------------------------------------------===//

Snapshot::SaveResult Snapshot::save(const Runtime &RT, const std::string &Path,
                                    const SaveOptions &Opt) {
  return Impl::save(RT, Path, Opt);
}

Snapshot::LoadResult Snapshot::load(Runtime &RT, const std::string &Path) {
  return Impl::load(RT, Path, /*Mmap=*/false, /*Verify=*/true);
}

Snapshot::LoadResult Snapshot::mmapWarmStart(Runtime &RT,
                                             const std::string &Path) {
  return mmapWarmStart(RT, Path, WarmStartOptions());
}

Snapshot::LoadResult Snapshot::mmapWarmStart(Runtime &RT,
                                             const std::string &Path,
                                             const WarmStartOptions &Opt) {
  return Impl::load(RT, Path, /*Mmap=*/true, Opt.VerifyTrace);
}

uint64_t Snapshot::traceShapeDigest(const Runtime &RT) {
  return Impl::digest(RT);
}
