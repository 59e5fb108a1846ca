//===- perfbench/selftest.cpp - The benchmark's own tests -----------------===//
//
// Part of the CEAL reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
//
// perfbench_selftest [SCRATCH_DIR]
//
// Checks the benchmark itself: the sweep schedule edits every position
// exactly once per sweep and is a function of the seed; a corrupted
// output and a forced Snapshot failure each count as failed ops; clean
// small runs of every workload fail nothing; a traced run checkpoints
// and warm-starts its sessions. Exit code 0 iff all pass.
//
//===----------------------------------------------------------------------===//

#include "Schedule.h"
#include "Workloads.h"

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <string>
#include <vector>

using namespace perfbench;

namespace {

int Failures = 0;

void expect(bool Ok, const std::string &What) {
  std::printf("%s %s\n", Ok ? "PASS" : "FAIL", What.c_str());
  Failures += !Ok;
}

void testSweepSchedule() {
  for (size_t N : {size_t(1), size_t(2), size_t(7), size_t(1000)}) {
    SweepSchedule A(N, 42), B(N, 42);
    std::vector<size_t> Identity(N);
    std::iota(Identity.begin(), Identity.end(), size_t(0));
    bool Same = true, Permutation = true;
    for (int Sweep = 0; Sweep < 5; ++Sweep) {
      std::vector<size_t> SA = A.nextSweep();
      Same &= SA == B.nextSweep();
      std::sort(SA.begin(), SA.end());
      Permutation &= SA == Identity;
    }
    expect(Same, "same seed gives the same schedule, n=" + std::to_string(N));
    expect(Permutation,
           "each sweep edits every position once, n=" + std::to_string(N));
  }
  SweepSchedule A(1000, 42), B(1000, 43);
  expect(A.nextSweep() != B.nextSweep(), "different seeds differ");
  SweepSchedule C(1000, 42);
  std::vector<size_t> First = C.nextSweep();
  expect(First != C.nextSweep(), "successive sweeps use fresh orders");
}

void testBatchSweep() {
  constexpr size_t N = 96, Batch = 8;
  SweepSchedule S(N / Batch, 9);
  bool Once = true;
  for (int Sweep = 0; Sweep < 3; ++Sweep) {
    std::vector<int> Hits(N, 0);
    for (size_t Slot : S.nextSweep())
      for (size_t Pos : batchPositions(Slot, N, Batch))
        ++Hits[Pos];
    Once &= std::all_of(Hits.begin(), Hits.end(),
                        [](int H) { return H == 1; });
  }
  expect(Once, "hull batches edit every position once per sweep");
  std::vector<size_t> P = batchPositions(3, N, Batch);
  expect(P.front() == 3 && P[1] == 3 + N / Batch,
         "batch b holds {p_b + k*n/8}");
}

RunResult run(const std::string &Workload, Inject Inj, const char *Scratch,
              bool Trace = false) {
  RunOptions O;
  O.Workload = Workload;
  O.Seed = 5;
  O.Seconds = 0.05;
  O.N = 64;
  O.MinOps = 40;
  O.Trace = Trace;
  O.Inj = Inj;
  O.ScratchDir = Scratch;
  return runWorkload(O);
}

void testFailureAccounting(const char *Scratch) {
  for (const std::string &W : workloadNames()) {
    RunResult Clean = run(W, Inject::None, Scratch);
    expect(Clean.Error.empty() && Clean.Attempted >= 40 &&
               Clean.Failed == 0 && Clean.Checked > 0 && Clean.SetupOk &&
               Clean.FinalOk,
           W + ": a clean run fails no op");
    RunResult Bad = run(W, Inject::CorruptOutput, Scratch);
    expect(Bad.Failed > 0 && Bad.Failed == Bad.Checked,
           W + ": a corrupted output counts as a failed op");
  }
  RunResult Traced = run("qsort_edits", Inject::None, Scratch, true);
  auto Value = [&Traced](const char *Name) {
    for (const Metric &M : Traced.Metrics)
      if (M.Name == Name)
        return M.Value;
    return 0.0;
  };
  expect(Traced.Failed == 0 && Value("trace_overhead") > 0 &&
             !Traced.SpansPath.empty(),
         "a traced run reports trace_overhead and writes its spans");
  expect(Value("runtime.snapshot.mb") > 0 &&
             Value("runtime.snapshot.warm_start_ms") > 0,
         "a traced run checkpoints and warm-starts its sessions");
  RunResult Snap = run("qsort_edits", Inject::SnapshotFail, Scratch, true);
  expect(Snap.Failed > 0 && !Snap.FinalOk && !Snap.FirstFailure.empty(),
         "a forced Snapshot failure counts as a failed op");
}

} // namespace

int main(int Argc, char **Argv) {
  const char *Scratch = Argc > 1 ? Argv[1] : ".";
  testSweepSchedule();
  testBatchSweep();
  testFailureAccounting(Scratch);
  std::printf("%s: %d failure(s)\n", Failures ? "FAILED" : "OK", Failures);
  return Failures ? 1 : 0;
}
