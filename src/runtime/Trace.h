//===- runtime/Trace.h - Trace nodes and modifiables ------------*- C++ -*-===//
//
// Part of the CEAL reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The dynamic dependence graph. Every traced action of a core execution
/// owns a node: reads (with their re-executable closure and time
/// interval), writes (imperative multi-write modifiables in the style of
/// Acar et al., POPL 2008), and memo-keyed allocations (Hammer and Acar,
/// ISMM 2008). Nodes are threaded through the order-maintenance list so a
/// time interval can be enumerated and revoked, and reads/writes of one
/// modifiable form a per-modifiable list in timestamp order so a write can
/// invalidate exactly the readers it governs.
///
/// Every inter-node edge is a 32-bit arena handle (Arena::Handle), not a
/// pointer: trace nodes, closures, and user blocks live in the runtime's
/// Mem arena, timestamps in the order list's own arena, and each edge
/// names its target by region offset. That packs the per-node layouts to
///
///   TraceNode  8 B   (kind, flags, start timestamp)
///   Use       20 B   (+ modifiable, prev/next use)
///   ReadNode  56 B   (+ closure, seen value, end, governing write,
///                      queue index, memo links)
///   WriteNode 32 B   (+ value)
///   AllocNode 32 B   (+ initializer, block, size, memo links)
///   Modref    24 B   (initial value + head/tail/hint of the use list)
///
/// — roughly half the pointer-width layout, which the CEAL_WIDE_TRACE
/// build keeps available for A/B comparison (handles widen to pointers,
/// same code shape). See DESIGN.md "Trace memory layout".
///
//===----------------------------------------------------------------------===//

#ifndef CEAL_RUNTIME_TRACE_H
#define CEAL_RUNTIME_TRACE_H

#include "om/OrderList.h"
#include "runtime/Closure.h"
#include "runtime/MemoTable.h"
#include "runtime/Word.h"

#include <cstdint>

namespace ceal {

struct Modref;
struct Use;
struct WriteNode;
struct ReadNode;

enum class TraceKind : uint8_t {
  Read,
  Write,
  Alloc,
};

/// Base of all trace nodes. Start is the node's timestamp (a handle into
/// the order list's arena); the timestamp's Item refers back to this node
/// (reads additionally tag their end timestamp, see ReadNode::End).
struct TraceNode {
  TraceKind Kind;
  uint8_t Flags;
  Handle<OmNode> Start;

  /// Tag for Runtime::newNode: skip zero-initializing the fields the
  /// tracing hot paths overwrite unconditionally before anything reads
  /// them (every trace node is stamped, linked, and memo-keyed in the
  /// same traced operation that creates it). Kind and Flags are still
  /// initialized — the dirty bit must start clear no matter who
  /// allocates (as must ReadNode's queue index, see its RawInit).
  struct RawInit {};

  explicit TraceNode(TraceKind K) : Kind(K), Flags(0), Start{} {}
  TraceNode(TraceKind K, RawInit) : Kind(K), Flags(0) {}
};

/// Base of per-modifiable uses (reads and writes), linked in time order.
struct Use : TraceNode {
  Handle<Modref> Ref;
  Handle<Use> PrevUse;
  Handle<Use> NextUse;

  explicit Use(TraceKind K) : TraceNode(K), Ref{}, PrevUse{}, NextUse{} {}
  Use(TraceKind K, RawInit R) : TraceNode(K, R) {}
};

/// A traced read: the modifiable, the closure that consumed the value, the
/// value it saw, and the time interval its body occupied. The interval's
/// end is the point where the enclosing tail-call chain finished; during
/// change propagation the closure re-executes inside (Start, End).
struct ReadNode : Use {
  ReadNode()
      : Use(TraceKind::Read), Clo{}, SeenValue(0), End{}, Gov{},
        HeapIndex(-1), Memo{} {}
  /// End is initialized (not raw) so an open read — created and linked
  /// but not yet end-stamped by its trampoline — is recognizable (see the
  /// open-interval check in Runtime::revokeRead).
  explicit ReadNode(RawInit R)
      : Use(TraceKind::Read, R), End{}, HeapIndex(-1) {}

  static constexpr uint8_t FlagDirty = 1;

  Handle<Closure> Clo;
  Word SeenValue;
  Handle<OmNode> End;
  /// Governing-write cache: the latest write strictly preceding this read
  /// in its modifiable's use list — the write whose value the read
  /// observes — or null when the prefix holds no write (the read is
  /// governed by Modref::Initial). Maintained by Runtime::insertUse /
  /// write / revokeWrite so valueGoverning is O(1) instead of
  /// O(reads since the last write); audited against a full backward walk
  /// by TraceAudit. Only reads carry the cache: a write's governing write
  /// is derived in O(1) from its predecessor (Runtime::writeGoverning).
  Handle<WriteNode> Gov;
  /// Position in the propagation queue, or -1.
  int32_t HeapIndex;

  /// Memo-table chaining (keyed by modifiable, function, argument words).
  MemoLinks<ReadNode> Memo;

  bool isDirty() const { return Flags & FlagDirty; }
  void setDirty(bool D) {
    Flags = D ? (Flags | FlagDirty) : (Flags & ~FlagDirty);
  }
};

/// A traced write of a word into a modifiable.
struct WriteNode : Use {
  WriteNode() : Use(TraceKind::Write), Value(0) {}
  explicit WriteNode(RawInit R) : Use(TraceKind::Write, R) {}

  Word Value;
};

/// A traced, memo-keyed allocation. Init is retained because its function
/// pointer and argument words are the memo key; Block is the user memory.
/// A re-execution that allocates with the same key steals Block, giving
/// the pointer identity that lets downstream writes equality-cut and
/// downstream reads memo-match (the paper's Sec. 1 "memoization" role).
struct AllocNode : TraceNode {
  AllocNode()
      : TraceNode(TraceKind::Alloc), Init{}, Block{}, Size(0), Memo{} {}
  explicit AllocNode(RawInit R) : TraceNode(TraceKind::Alloc, R) {}

  static constexpr uint8_t FlagModref = 1;

  Handle<Closure> Init;
  Handle<void> Block;
  uint32_t Size;

  MemoLinks<AllocNode> Memo;

  bool isModrefBlock() const { return Flags & FlagModref; }
};

/// A modifiable reference: an initial (meta-written) value plus the
/// time-ordered list of traced uses. The value visible to a read at time t
/// is the value of the latest traced write before t, else Initial.
struct Modref {
  Word Initial = 0;
  Handle<Use> Head{};
  Handle<Use> Tail{};
  /// Insertion cursor: the use most recently inserted into (or left
  /// adjacent to an unlink from) this list. Runtime::insertUse starts
  /// its placement scan here instead of at Tail, so runs of nearby
  /// insertions — the common case during mid-interval re-execution —
  /// cost O(distance from the previous insertion) rather than
  /// O(uses after the position). Never dangles: unlinkUse repairs it.
  Handle<Use> Hint{};
};

// The compressed size-class contracts (see the file comment): each layout
// must exactly fill its 8-byte arena class; growing any of them is a
// measured regression on every app's max-live footprint, so it fails the
// build rather than landing silently. The wide build only bounds the
// layouts loosely — it exists for A/B measurement, not for a contract.
#ifndef CEAL_WIDE_TRACE
static_assert(sizeof(TraceNode) == 8, "TraceNode outgrew its packed layout");
static_assert(sizeof(Use) == 20, "Use outgrew its packed layout");
static_assert(sizeof(ReadNode) == 56, "ReadNode outgrew its size class");
static_assert(sizeof(WriteNode) == 32, "WriteNode outgrew its size class");
static_assert(sizeof(AllocNode) == 32, "AllocNode outgrew its size class");
static_assert(sizeof(Modref) == 24, "Modref outgrew its size class");
#else
static_assert(sizeof(ReadNode) <= 112, "ReadNode outgrew its size class");
static_assert(sizeof(WriteNode) <= 48, "WriteNode outgrew its size class");
static_assert(sizeof(AllocNode) <= 64, "AllocNode outgrew its size class");
#endif

/// A fingerprint of the trace's in-memory layout, derived from the
/// static_asserted node sizes above plus the handle width and grain. Two
/// builds agree on this value exactly when a trace region serialized by
/// one is byte-compatible with the other, so the snapshot loader
/// (runtime/Snapshot) embeds it in the checkpoint header and rejects any
/// mismatch — in particular, a CEAL_WIDE_TRACE build can never load a
/// compressed-trace checkpoint or vice versa.
inline uint64_t traceLayoutFingerprint() {
  uint64_t H = 0x4345414c00000001ULL; // format root: 'CEAL', revision 1
  auto Mix = [&H](uint64_t W) { H = hashMixWord(H, W); };
#ifdef CEAL_WIDE_TRACE
  Mix(2);
#else
  Mix(1);
#endif
  Mix(sizeof(void *));
  Mix(Arena::HandleGrain);
  Mix(sizeof(Handle<int>));
  Mix(sizeof(OmItem));
  Mix(sizeof(OmNode));
  Mix(sizeof(OmGroup));
  Mix(sizeof(Closure));
  Mix(sizeof(TraceNode));
  Mix(sizeof(Use));
  Mix(sizeof(ReadNode));
  Mix(sizeof(WriteNode));
  Mix(sizeof(AllocNode));
  Mix(sizeof(Modref));
  Mix(sizeof(MemoLinks<ReadNode>));
  return H;
}

/// Tagging scheme for OmNode::Item (an OmItem — see om/OrderList.h). A
/// trace node's start timestamp carries the node's Mem-arena handle; a
/// read's end timestamp carries the read's handle with the tag bit set so
/// interval walks can tell starts from ends. Compressed items tag bit 31
/// — which requires the trace arena region to stay under 2^31 grains
/// (16 GB; the default region is 8 GB) — wide items tag bit 0 of the
/// pointer (all trace nodes are 8-aligned).
#ifdef CEAL_WIDE_TRACE

inline OmItem itemOf(const Arena &, const TraceNode *T) {
  return reinterpret_cast<uintptr_t>(T);
}
inline OmItem endItemOf(const Arena &, const ReadNode *R) {
  return reinterpret_cast<uintptr_t>(R) | 1;
}
inline bool isEndItem(OmItem I) { return I & 1; }
inline TraceNode *itemNode(const Arena &, OmItem I) {
  return reinterpret_cast<TraceNode *>(I);
}
inline ReadNode *endItemRead(const Arena &, OmItem I) {
  return reinterpret_cast<ReadNode *>(I & ~uintptr_t(1));
}

#else

constexpr OmItem OmItemEndBit = OmItem(1) << 31;

inline OmItem itemOf(const Arena &Mem, const TraceNode *T) {
  OmItem I = Mem.handle(T).Bits;
  assert(!(I & OmItemEndBit) && "trace arena outgrew the end-tag bit");
  return I;
}
inline OmItem endItemOf(const Arena &Mem, const ReadNode *R) {
  OmItem I = Mem.handle(R).Bits;
  assert(!(I & OmItemEndBit) && "trace arena outgrew the end-tag bit");
  return I | OmItemEndBit;
}
inline bool isEndItem(OmItem I) { return I & OmItemEndBit; }
inline TraceNode *itemNode(const Arena &Mem, OmItem I) {
  return Mem.ptr(Handle<TraceNode>(I));
}
inline ReadNode *endItemRead(const Arena &Mem, OmItem I) {
  return Mem.ptr(Handle<ReadNode>(I & ~OmItemEndBit));
}

#endif

} // namespace ceal

#endif // CEAL_RUNTIME_TRACE_H
