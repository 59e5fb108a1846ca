//===- runtime/Snapshot.h - Versioned trace checkpoints --------*- C++ -*-===//
//
// Part of the CEAL reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Trace persistence: a versioned, integrity-checked checkpoint of a
/// quiescent Runtime — the arena regions (trace nodes, closures, user
/// blocks, OM timestamps and groups), the memo indexes, the runtime's
/// scalar state, and caller-chosen root pointers — plus two load paths:
///
///  * load()           safe copying restore: every section is read into
///                     freshly claimed regions, every byte checksummed,
///                     and the full trace sanitizer (TraceAudit::inspect)
///                     runs on top of the linear load validator. The
///                     trust-nothing path for untrusted files.
///  * mmapWarmStart()  maps the arena sections copy-on-write straight
///                     from the file and resumes propagation in place in
///                     O(metadata): by default the O(file) arena
///                     checksums and the O(trace) validator are skipped —
///                     the file is assumed to be save()'s own unmodified
///                     output — which is what makes a warm start cheaper
///                     than re-running the core from scratch.
///                     WarmStartOptions::VerifyTrace restores load()'s
///                     full verification on this path.
///
/// The format is position-dependent by design: PR 5 made every *trace
/// edge* a region offset, but user data words, OM node/group links, and
/// freelist chains are raw addresses, so the loader claims the exact
/// region bases recorded in the header (an atomic MAP_FIXED_NOREPLACE
/// claim; AddressUnavailable if the space is taken) and the entire region
/// image is then valid verbatim. Code addresses (closure functions and
/// function-pointer arguments) must also coincide, which the header's
/// anchor-address field checks (CodeMoved otherwise); cross-process use
/// therefore requires the same binary loaded at the same base — run both
/// ends with ASLR disabled (`setarch -R`) or from a non-PIE build. See
/// DESIGN.md "Trace persistence".
///
/// On-disk layout (all integers native-endian; an endianness tag rejects
/// foreign files):
///
///   [0, 4096)   FileHeader + section table, zero-padded; checksummed as
///               a whole with the checksum field zeroed.
///   sections    contiguous (each starts where the previous ended, the
///               last ends at FileBytes), in the fixed order META,
///               MEMO_READ, MEMO_ALLOC, ROOTS, MEM, OM; MEM and OM are
///               page-aligned so they can be mapped directly. Every
///               section starts with an 8-byte kind preamble — for the
///               arena sections it overlays region bytes [0, 8), which
///               the runtime never uses (offset 0 is the null handle) —
///               so a checksum-preserving payload swap still fails.
///
/// The loader trusts nothing about the file's *structure* on either
/// path: header fields, the section table, and every offset, handle, and
/// pointer the loader itself follows are bounds-checked before any
/// dereference, and every rejection carries a located diagnostic.
/// Content verification (arena checksums + the trace walk) is always on
/// for load() and opt-in for mmapWarmStart(). A failure before the
/// address-space claim leaves the Runtime untouched; a failure after it
/// leaves the Runtime safe to destroy but not to use.
///
//===----------------------------------------------------------------------===//

#ifndef CEAL_RUNTIME_SNAPSHOT_H
#define CEAL_RUNTIME_SNAPSHOT_H

#include <cstdint>
#include <string>
#include <vector>

namespace ceal {

class Runtime;

class Snapshot {
public:
  /// Load/save outcome. Each failure mode has its own code so tests (and
  /// operators) can tell a foreign file from a corrupt one from an
  /// environment problem.
  enum class Status : uint8_t {
    Ok,
    /// Runtime not quiescent (save) or not pristine (load), or a bad root.
    BadState,
    /// open/read/write/stat failed (see the diagnostic for errno text).
    IoError,
    /// File shorter than its header claims (including a zero-length file).
    Truncated,
    /// Not a CEAL snapshot.
    BadMagic,
    /// Format version newer than this build understands.
    BadVersion,
    /// Written on a machine with different byte order.
    BadEndian,
    /// Trace layout fingerprint mismatch (e.g. CEAL_WIDE_TRACE vs
    /// compressed build).
    BadLayout,
    /// Header block checksum mismatch.
    BadHeader,
    /// Section table inconsistent (kinds, order, offsets, coverage).
    BadSectionTable,
    /// Section content carries the wrong kind preamble (payload swap).
    BadSectionKind,
    /// Section content checksum mismatch.
    BadChecksum,
    /// Metadata section semantically invalid (counts, sizes, geometry).
    BadMeta,
    /// Runtime configuration incompatible with the checkpoint
    /// (trace-layout-affecting knobs must match).
    ConfigMismatch,
    /// The code anchor moved: the loading process's code is not at the
    /// address the checkpoint was saved against.
    CodeMoved,
    /// An offset/handle points outside the serialized arena extent.
    HandleOutOfBounds,
    /// The recorded region base addresses are already occupied in this
    /// process (retry in a fresh process, or with ASLR disabled).
    AddressUnavailable,
    /// Content passed all checksums but failed the load-time trace
    /// validation (TraceAudit load mode).
    AuditFailed,
  };
  static const char *statusName(Status S);

  //===--------------------------------------------------------------===//
  // On-disk format (public contract; tests and tooling build on it)
  //===--------------------------------------------------------------===//

  static constexpr uint64_t Magic = 0x50414e534c414543ULL; // "CEALSNAP"
  // Version 2: Checksum64 moved to the 32-lane block format
  // (support/Checksum.h), so v1 digests no longer verify.
  static constexpr uint32_t FormatVersion = 2;
  static constexpr uint32_t EndianTag = 0x01020304;
  static constexpr uint64_t HeaderBytes = 4096;

  enum SectionKind : uint32_t {
    SecMeta = 1,
    SecMemoRead = 2,
    SecMemoAlloc = 3,
    SecRoots = 4,
    SecMem = 5,
    SecOm = 6,
  };
  static constexpr uint32_t NumSections = 6;

  /// The 8-byte tag at the start of every section payload.
  static constexpr uint64_t sectionPreamble(uint32_t Kind) {
    return Magic ^ ((uint64_t(Kind) << 32) | Kind);
  }

  struct SectionEntry {
    uint32_t Kind;
    uint32_t Reserved;
    uint64_t Offset;   ///< Absolute file offset.
    uint64_t Length;   ///< Padded length; the next section starts here.
    uint64_t Checksum; ///< Checksum64 over [Offset, Offset + Length).
  };

  struct FileHeader {
    uint64_t MagicWord;
    uint32_t Version;
    uint32_t Endian;
    uint64_t LayoutFingerprint; ///< traceLayoutFingerprint() of the saver.
    uint64_t AnchorAddr;        ///< codeAnchor() of the saving process.
    uint64_t FileBytes;         ///< Total file size.
    uint64_t PageBytes;         ///< Saver's page size (mmap path only).
    uint64_t MemBase, MemRegionBytes, MemBumpUsed;
    uint64_t OmBase, OmRegionBytes, OmBumpUsed;
    uint32_t SectionCount;
    uint32_t Reserved0;
    uint64_t HeaderChecksum; ///< Over the 4096-byte block, field zeroed.
    SectionEntry Sections[NumSections];
  };

  /// Per-arena scalar state inside the META section.
  struct ArenaMeta {
    uint64_t BumpUsed;
    uint64_t LiveBytes, MaxLiveBytes, TotalAllocated, AllocCount;
    uint64_t FreeHeads[64]; ///< Region offsets of freelist heads; 0 null.
    uint64_t LargeCount;    ///< (size, head-offset) pairs in the tail.
  };

  /// Fixed part of the META section body (follows the 8-byte preamble;
  /// the variable tail holds the Mem then Om large-freelist pairs). All
  /// pointers are stored as region offsets.
  struct MetaFixed {
    uint64_t CursorOff, TraceEndOff; ///< OM-region offsets.
    uint64_t Stats[11];              ///< Runtime::Stats, declared order.
    uint64_t MetaBytes, GcAllocMark;
    uint64_t BoxBytesPerNode; ///< Layout-affecting config, must match.
    uint64_t OmBaseOff, OmFirstGroupOff;
    uint64_t OmSize, OmRelabels, OmRangeRelabels;
    uint64_t ReadMemoCount, ReadMemoBuckets;
    uint64_t AllocMemoCount, AllocMemoBuckets;
    uint64_t RootCount;
    ArenaMeta MemA, OmA;
  };

  //===--------------------------------------------------------------===//
  // Entry points
  //===--------------------------------------------------------------===//

  struct SaveOptions {
    /// Mutator pointers into the runtime arena (modrefs, cells, blocks)
    /// to persist and hand back from load(); how a cross-process mutator
    /// reconstructs its handles on the structures it built.
    std::vector<const void *> Roots;
  };

  struct SaveResult {
    Status St = Status::Ok;
    std::string Diagnostic;
    uint64_t FileBytes = 0;
    bool ok() const { return St == Status::Ok; }
  };

  struct LoadResult {
    Status St = Status::Ok;
    std::string Diagnostic;
    /// The saver's SaveOptions::Roots, revalidated, in order.
    std::vector<void *> Roots;
    bool ok() const { return St == Status::Ok; }
  };

  /// Writes a checkpoint of the quiescent \p RT to \p Path.
  static SaveResult save(const Runtime &RT, const std::string &Path,
                         const SaveOptions &Opt = {});

  /// Safe copying restore into the pristine \p RT (no trace yet): claims
  /// the recorded region bases, copies every section in, runs the linear
  /// load validator and then the full trace sanitizer. This is the
  /// trust-nothing path: every byte is checksummed and every trace
  /// structure walked before the runtime may propagate. Use it whenever
  /// the file crossed a machine, a network, or an untrusted writer.
  static LoadResult load(Runtime &RT, const std::string &Path);

  struct WarmStartOptions {
    /// Treat the file as untrusted: verify the arena and memo sections'
    /// content checksums, walk the serialized freelist chains, and run
    /// the linear TraceAudit load validator, exactly like load(). Off by
    /// default — the warm-start contract is a checkpoint save() wrote on
    /// this host that nothing modified since, and its point is to resume
    /// in O(metadata) instead of O(trace). The header, META, and root
    /// sections are still fully checksummed either way, and every offset
    /// the loader installs (cursor, roots, freelist heads, memo buckets)
    /// is bounds-checked, so a *loader* crash stays impossible; what the
    /// fast path gives up is detecting corruption inside the trace-sized
    /// payloads (the mapped arenas, the memo bucket words, the freelist
    /// chains) before propagation walks them. See DESIGN.md "Trace
    /// persistence".
    bool VerifyTrace = false;
  };

  /// Warm start: like load(), but the arena sections are mapped
  /// copy-on-write from the file instead of copied, and the O(trace)
  /// verification passes are governed by \p Opt (off by default; the
  /// page-in cost is deferred to first touch during propagation).
  /// Requires the saver's page size. (Two overloads rather than a `= {}`
  /// default: a nested aggregate's member initializers are not usable in
  /// a default argument of the enclosing class.)
  static LoadResult mmapWarmStart(Runtime &RT, const std::string &Path);
  static LoadResult mmapWarmStart(Runtime &RT, const std::string &Path,
                                  const WarmStartOptions &Opt);

  /// Insensitive only where semantics are (memo chain order and block
  /// placement are excluded): a digest of the trace's observable shape —
  /// the timestamp sequence with each node's kind, flags, values, and
  /// closure identity, with in-region values renamed to first-occurrence
  /// ordinals so two traces equal up to a bijection of block addresses
  /// digest alike. Identical digests mean observationally identical
  /// traces; the round-trip oracle compares a reloaded trace against a
  /// continuously-running one with this.
  static uint64_t traceShapeDigest(const Runtime &RT);

  /// Equivalent to RT.readyForCheckpoint(Why).
  static bool readyToSave(const Runtime &RT, std::string *Why = nullptr);

  /// The code-address anchor the header records: one symbol in this
  /// image, standing in for "all code is where the saver had it".
  static uint64_t codeAnchor();

private:
  struct Impl; ///< Defined in Snapshot.cpp; inherits the friendships.
};

} // namespace ceal

#endif // CEAL_RUNTIME_SNAPSHOT_H
