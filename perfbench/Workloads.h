//===- perfbench/Workloads.h - The benchmark's workloads -------*- C++ -*-===//
//
// Part of the CEAL reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The three workloads of the repository benchmark (RATIONALE.md says why
/// each exists). Every workload is one single-threaded, closed-loop
/// mutator driving the public meta interface; runWorkload measures it
/// for a time budget and returns the end-to-end metrics (untraced run)
/// or the per-layer metrics (traced run).
///
//===----------------------------------------------------------------------===//

#ifndef CEAL_PERFBENCH_WORKLOADS_H
#define CEAL_PERFBENCH_WORKLOADS_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Faults the self-test injects to prove the failure accounting.
enum class Inject {
  None,
  /// The verifier sees a perturbed copy of every checked output.
  CorruptOutput,
  /// Traced runs: the session checkpoint's header is damaged before the
  /// warm start.
  SnapshotFail,
};

struct RunOptions {
  std::string Workload;
  uint64_t Seed = 1;
  /// Sets the op budget (see OpsPerSecond in Workloads.cpp); the work a
  /// run does is a function of this and the workload, not of the clock.
  double Seconds = 10;
  bool Trace = false;
  Inject Inj = Inject::None;
  /// Input size; 0 selects the workload's default.
  size_t N = 0;
  /// Each measured loop runs at least this many ops.
  size_t MinOps = 1000;
  /// Where the checkpoint file and the span log go.
  std::string ScratchDir = ".";
};

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
};

struct RunResult {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// Ops whose output went through the full reference check.
  uint64_t Checked = 0;
  /// The from-scratch output and the end-of-run state both verified.
  bool SetupOk = true;
  bool FinalOk = true;
  size_t N = 0;
  size_t Sweeps = 0;
  /// A loop hit its wall-clock cap before finishing its op budget.
  bool Capped = false;
  /// One in CheckEvery ops is fully checked (seeded choice).
  unsigned CheckEvery = 1;
  std::vector<Metric> Metrics;
  /// The traced run's span log file and per-span-name summary (JSON);
  /// both empty for untraced runs.
  std::string SpansPath;
  std::string SpanSummary;
  /// Why the first failed op (or failed set-up) failed; empty if none.
  std::string FirstFailure;
  /// Non-empty when the run could not be carried out at all.
  std::string Error;
};

const std::vector<std::string> &workloadNames();

RunResult runWorkload(const RunOptions &O);

/// Per-layer unit costs of single public operations (OM insert and
/// compare, closure make, modify/deref, arena pair, checksum bandwidth).
std::vector<Metric> measureUnitCosts();

/// One-line JSON object describing build, host and environment; sets
/// \p Comparable to false for runs whose numbers must not be compared
/// against a shipped-defaults Release build.
std::string provenanceJson(const RunOptions &O, bool &Comparable);

} // namespace perfbench

#endif // CEAL_PERFBENCH_WORKLOADS_H
