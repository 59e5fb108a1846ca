//===- runtime/RaceCheck.h - Determinacy-race detector ---------*- C++ -*-===//
//
// Part of the CEAL reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The dynamic half of the parallel-safety subsystem: a determinacy-race
/// detector for change propagation. The static interference analysis
/// (analysis/Interference) proves entry-point pairs disjoint at the
/// region-class level; this detector tests the same property on concrete
/// traces, instance by instance, so a propagation whose dirty set the
/// static analysis could not separate can still be shown partitionable.
///
/// The partition is the one an interval-parallel propagator would use
/// (ROADMAP: parallel change propagation over OM-timestamp intervals):
/// at the start of propagate() the pending dirty reads are sorted by
/// start timestamp, merged into clusters of overlapping [Start, End]
/// trace intervals (read intervals nest, so overlapping dirty reads are
/// transitively one re-execution region), and the clusters are split
/// contiguously into at most Config::RaceCheckIntervals groups. A
/// parallel propagator could run those groups concurrently if and only
/// if no group touches a modifiable another group touches conflictingly.
///
/// Propagation still runs single-threaded and fully deterministic; the
/// detector only tags. Every traced read, write, memo splice, and
/// cascade invalidation performed while re-executing a read is charged
/// to that read's interval group, and per modifiable the detector keeps
/// interval bitmasks of readers and writers:
///
///  * write from interval i with another interval in the writer mask:
///    WW conflict — the groups are unordered, the store order would be
///    scheduler-dependent.
///  * write from interval i with another interval in the reader mask
///    (or a read observing a foreign writer bit): RW conflict — the
///    read's value would depend on the schedule.
///  * a re-execution in interval i invalidating a read owned by another
///    interval: a cross-interval cascade — the other group's work list
///    would grow mid-flight, so the groups are ordered, not independent.
///
/// Zero conflicts across a propagation means that propagation was
/// provably partitionable into the reported intervals.
///
/// Discipline matches runtime/Profile.h: always compiled, off by
/// default, and when off every hot-path hook is one predictable branch
/// on a single bool. All detector state lives in side tables keyed by
/// node/modref address — trace node layouts (and their size contracts
/// in Trace.h) are untouched. Diagnostics carry modifiable addresses as
/// opaque ids; they are never dereferenced after the propagation ends.
///
//===----------------------------------------------------------------------===//

#ifndef CEAL_RUNTIME_RACECHECK_H
#define CEAL_RUNTIME_RACECHECK_H

#include <cstdint>
#include <ostream>
#include <unordered_map>
#include <vector>

namespace ceal {

class Runtime;
struct Modref;
struct ReadNode;

/// One cross-interval conflict observed during a propagation.
struct RaceConflict {
  enum Kind : uint8_t {
    WW,                ///< two intervals wrote the same modifiable
    RW,                ///< one interval read what another wrote
    CascadeInvalidate, ///< one interval invalidated a read owned by another
  };
  Kind K;
  /// The two interval groups involved (A is the acting interval).
  uint32_t IntervalA = 0;
  uint32_t IntervalB = 0;
  /// Opaque identity of the contended object: the modifiable's address
  /// for WW/RW, the invalidated read's address for cascades. Never
  /// dereferenced — valid only as a correlation key.
  uintptr_t ObjectId = 0;
};

inline const char *raceConflictKindName(RaceConflict::Kind K) {
  switch (K) {
  case RaceConflict::WW:
    return "ww";
  case RaceConflict::RW:
    return "rw";
  case RaceConflict::CascadeInvalidate:
    return "cascade";
  }
  return "?";
}

/// What one checked propagation did, retained until the next one begins
/// (readable from the meta phase via Runtime::raceReport()).
struct RaceReport {
  /// Interval groups the dirty set was split into (<= the configured
  /// count; 0 when the propagation had nothing pending).
  uint32_t Intervals = 0;
  /// Overlap clusters before the contiguous split (>= Intervals).
  uint32_t Clusters = 0;
  uint64_t InitialDirtyReads = 0;
  /// Operations charged to an interval during the propagation.
  uint64_t TaggedReads = 0;
  uint64_t TaggedWrites = 0;
  uint64_t TaggedMemoHits = 0;
  /// Reads invalidated while propagating (any interval, own included).
  uint64_t CascadeInvalidations = 0;
  /// Conflict tallies count every occurrence; Conflicts records the
  /// first MaxRecorded with their interval pair and object id.
  uint64_t WwConflicts = 0;
  uint64_t RwConflicts = 0;
  uint64_t CascadeConflicts = 0;
  static constexpr size_t MaxRecorded = 64;
  std::vector<RaceConflict> Conflicts;

  uint64_t conflictCount() const {
    return WwConflicts + RwConflicts + CascadeConflicts;
  }
  /// True when the propagation was proven safe to run with its interval
  /// groups in parallel (vacuously true for <= 1 interval).
  bool partitionable() const { return conflictCount() == 0; }

  /// Emits the report as one JSON object (no trailing newline).
  void writeJson(std::ostream &Out) const;
};

/// The interval clustering the race detector partitions: the pending
/// dirty reads in start-timestamp order, each tagged with the overlap
/// cluster it belongs to. Clusters are disjoint timestamp ranges — the
/// units a parallel propagator could distribute and the detector's
/// conflict-partition granularity.
struct DirtyClustering {
  /// Deduplicated pending reads, sorted by start timestamp.
  std::vector<ReadNode *> Sorted;
  /// Cluster index per entry of Sorted (non-decreasing).
  std::vector<uint32_t> ClusterOf;
  uint32_t NumClusters = 0;
};

/// The detector; owned by Runtime, driven from propagate() and the
/// traced-operation hot paths (all hooks behind the single Active bool).
class RaceCheck {
public:
  /// Clusters \p Pending (any order, duplicates allowed — the dirty heap
  /// can briefly hold duplicate entries, so they are removed first) into
  /// overlap clusters of nesting [Start, End] trace intervals.
  static DirtyClustering clusterPending(Runtime &RT,
                                        std::vector<ReadNode *> Pending);
  /// Clusters the runtime's current pending dirty set.
  static DirtyClustering clusterDirty(Runtime &RT);
  /// True only while a checked propagation is running; every hook site
  /// in the runtime tests exactly this flag.
  bool Active = false;

  /// Partitions the pending dirty reads into at most \p MaxIntervals
  /// interval groups and arms the hooks. Meta state (the previous
  /// report) is replaced.
  void beginPropagate(Runtime &RT, unsigned MaxIntervals);
  /// Charges subsequent operations to the interval owning \p R; called
  /// for every dirty read popped from the propagation queue.
  void setCurrent(const ReadNode *R);
  /// Disarms the hooks; the report stays readable.
  void finishPropagate();

  /// A read was traced during re-execution.
  void onRead(const Modref *M, const ReadNode *R);
  /// A read memo-spliced (its old trace was adopted wholesale).
  void onMemoHit();
  /// A write was traced during re-execution.
  void onWrite(const Modref *M);
  /// A clean read became dirty during re-execution (cascade).
  void onInvalidate(const ReadNode *R);
  /// A read node is being revoked; drop its ownership record so a
  /// freelist reuse of the node cannot inherit a stale interval.
  void onRevokeRead(const ReadNode *R);

  const RaceReport &report() const { return Rep; }

private:
  /// Interval masks are uint32; the configured count is clamped here.
  static constexpr unsigned MaxIntervalBits = 32;

  struct Access {
    uint32_t Readers = 0;
    uint32_t Writers = 0;
  };

  void recordConflict(RaceConflict::Kind K, uint32_t Other, uintptr_t Id);

  /// Per-modifiable interval masks for the running propagation.
  std::unordered_map<const Modref *, Access> AccessMap;
  /// Which interval each pending/traced read belongs to.
  std::unordered_map<const ReadNode *, uint32_t> Owner;
  uint32_t Cur = 0;
  RaceReport Rep;
};

} // namespace ceal

#endif // CEAL_RUNTIME_RACECHECK_H
