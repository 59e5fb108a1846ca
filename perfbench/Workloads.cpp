//===- perfbench/Workloads.cpp - The benchmark's workloads ----------------===//
//
// Part of the CEAL reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
//
// Every timing and count here is taken from the benchmark's side of a
// public call (Runtime, Snapshot, Vm, cl::parseProgram,
// optimize::runPassPipeline, the apps builders); no library code is
// instrumented. Verification against independent references runs
// outside the timed spans.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"
#include "Schedule.h"
#include "Spans.h"

#include "bench/AppBench.h"
#include "cl/Parser.h"
#include "cl/Samples.h"
#include "interp/Vm.h"
#include "normalize/Optimize.h"
#include "runtime/Snapshot.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <sstream>

#include <sys/resource.h>
#include <unistd.h>

using namespace ceal;

namespace perfbench {
namespace {

constexpr double MiB = 1024.0 * 1024.0;
/// Set-ups per run, spread over the run; setup_s is their median.
constexpr size_t SetupReps = 16;
/// A measured loop that has not finished its op budget after this long
/// stops at the next sweep boundary and reports itself capped, so a run
/// on a very slow host still ends in bounded time.
constexpr double LoopCapSeconds = 70;

/// Independent seeded streams per run: input values, edit schedule, and
/// the subset of ops the verifier checks.
enum Stream : uint64_t { InputStream = 1, ScheduleStream, CheckStream };
uint64_t streamSeed(uint64_t Seed, Stream S) { return hashPair(Seed, S); }

double percentile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * double(V.size() - 1);
  size_t Lo = size_t(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - double(Lo));
}

double peakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return double(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB on Linux.
}

/// Keeps a read value observable so the output read is not elided.
volatile Word Sink;

/// Perturbs an observed output so the verifier must reject it.
template <typename T> void corrupt(std::vector<T> &Out) {
  if (Out.empty())
    Out.push_back(T{});
  else
    Out.pop_back();
}

//===----------------------------------------------------------------------===//
// Counter deltas (traced run)
//===----------------------------------------------------------------------===//

/// Public counters at one instant: Runtime::stats(), the profiler's exact
/// counters, the arena's allocation count, and the VM closure census.
struct Counters {
  Runtime::Stats S;
  PropagationProfile P;
  uint64_t ArenaAllocs = 0, Closures = 0, EnvWords = 0;
};

Counters capture(Runtime &RT, uint64_t Closures = 0, uint64_t EnvWords = 0) {
  return {RT.stats(), RT.profile(), RT.arena().allocationCount(), Closures,
          EnvWords};
}

/// Sums of counter deltas over the measured ops.
struct Deltas {
  double Reexec = 0, Revoked = 0, UseScan = 0, MemoHits = 0,
         Propagations = 0, Dispatches = 0, MemoLookups = 0, QueuePops = 0,
         ParallelRuns = 0, JoinWaitNs = 0, OmInserts = 0, MemoInserts = 0,
         ArenaAllocs = 0, Closures = 0, EnvWords = 0;

  void add(const Counters &A, const Counters &B) {
    Reexec += double(B.S.ReadsReexecuted - A.S.ReadsReexecuted);
    Revoked += double(B.S.NodesRevoked - A.S.NodesRevoked);
    UseScan += double(B.S.UseScanSteps - A.S.UseScanSteps);
    MemoHits += double(B.S.MemoReadHits + B.S.MemoAllocHits -
                       A.S.MemoReadHits - A.S.MemoAllocHits);
    Propagations += double(B.S.Propagations - A.S.Propagations);
    Dispatches += double(B.P.ClosureDispatches - A.P.ClosureDispatches);
    MemoLookups += double(B.P.MemoLookups - A.P.MemoLookups);
    QueuePops += double(B.P.QueuePops - A.P.QueuePops);
    ParallelRuns += double(B.P.ParallelRuns - A.P.ParallelRuns);
    JoinWaitNs += double(B.P.JoinWaitNs - A.P.JoinWaitNs);
    OmInserts += double(B.P.OmInserts - A.P.OmInserts);
    MemoInserts += double(B.P.MemoInserts - A.P.MemoInserts);
    ArenaAllocs += double(B.ArenaAllocs - A.ArenaAllocs);
    Closures += double(B.Closures - A.Closures);
    EnvWords += double(B.EnvWords - A.EnvWords);
  }
};

/// What one measured loop produced.
struct Outcome {
  std::vector<double> SetupS;
  std::vector<double> OpNs;
  uint64_t Attempted = 0, Failed = 0, Checked = 0;
  bool SetupOk = true, FinalOk = true;
  size_t Sweeps = 0;
  bool Capped = false;
  unsigned CheckEvery = 1;
  size_t MaxLive = 0;
  Deltas D;
  MemoryStats Mem;
  double SnapshotBytes = 0;
  double ReferenceMs = 0;
  /// Why the first failed op failed (empty when none failed).
  std::string FirstFailure;

  void noteFailure(std::string Why) {
    if (FirstFailure.empty())
      FirstFailure = std::move(Why);
  }
};

Runtime::Config runtimeConfig(bool Traced) {
  Runtime::Config C; // Shipped defaults...
  C.EnableProfile = Traced; // ...plus the profiler's exact counters.
  return C;
}

//===----------------------------------------------------------------------===//
// Edit workloads
//===----------------------------------------------------------------------===//

/// Removes the checkpoint file on every exit path.
struct ScratchFile {
  std::string Path;
  ~ScratchFile() { ::unlink(Path.c_str()); }
};

/// Flips one byte of the checkpoint header (a forced Snapshot failure).
void damageHeader(const std::string &Path) {
  if (std::FILE *F = std::fopen(Path.c_str(), "r+b")) {
    std::fseek(F, 16, SEEK_SET);
    int C = std::fgetc(F);
    std::fseek(F, 16, SEEK_SET);
    std::fputc(C ^ 0xff, F);
    std::fclose(F);
  }
}

/// One session of an edit workload: a runtime holding the from-scratch
/// trace of one input, the mutator's handles on it, and an independent
/// reference the verifier compares the output against.
class EditWorkload {
public:
  virtual ~EditWorkload() = default;
  /// Edit slots per sweep.
  virtual size_t slots() const = 0;
  /// One in checkEvery() ops gets the full reference check.
  virtual unsigned checkEvery() const = 0;
  /// Builds a fresh session: runtime, input, from-scratch run, output
  /// read. Any previous session must have been torn down.
  virtual void setup(SpanLog &L, const Runtime::Config &Cfg) = 0;
  virtual void teardown() = 0;
  Runtime &runtime() { return *RT; }
  /// The mutator half of an op: delete (or reinsert) the slot's cells.
  virtual void edit(size_t Slot, bool Delete) = 0;
  virtual Word readOutputRoot() = 0;
  /// Mirrors an edit into the reference (outside the timed span).
  virtual void track(size_t Slot, bool Delete) = 0;
  /// Full check of the current output against the reference.
  virtual bool verify(bool Corrupt) = 0;
  /// Checks beyond verify() made on the from-scratch and final states.
  virtual bool deepCheck() { return verify(false); }
  /// Conventional from-scratch time of the reference computation.
  virtual double referenceMs() = 0;
  virtual Counters counters() { return capture(runtime()); }
  /// The pointers a checkpoint of the session keeps as roots; empty for a
  /// session whose state is not all in its runtime (the VM's is not), so
  /// it is never checkpointed.
  virtual std::vector<const void *> checkpointRoots() const { return {}; }

  /// Checkpoints the session to \p Path, destroys its runtime, and
  /// warm-starts the checkpoint into a fresh runtime that takes its
  /// place. The trace maps back where it was, so every handle the session
  /// holds stays valid. Returns "" or why it failed; a failed session can
  /// only be torn down.
  std::string checkpointRoundTrip(SpanLog &L, const Runtime::Config &Cfg,
                                  const std::string &Path, Inject Inj,
                                  double &FileBytes) {
    ScratchFile File{Path};
    Snapshot::SaveOptions SO;
    SO.Roots = checkpointRoots();
    Snapshot::SaveResult SR;
    {
      Scope S(L, "runtime.snapshot.save");
      SR = Snapshot::save(*RT, Path, SO);
    }
    if (!SR.ok())
      return std::string("save: ") + Snapshot::statusName(SR.St) + ": " +
             SR.Diagnostic;
    FileBytes = double(SR.FileBytes);
    {
      Scope S(L, "runtime.teardown");
      RT.reset();
    }
    if (Inj == Inject::SnapshotFail)
      damageHeader(Path);
    RT = std::make_unique<Runtime>(Cfg);
    Snapshot::LoadResult LR;
    {
      Scope S(L, "runtime.snapshot.warm_start");
      LR = Snapshot::mmapWarmStart(*RT, Path);
    }
    if (!LR.ok())
      return std::string("warm start: ") + Snapshot::statusName(LR.St) +
             ": " + LR.Diagnostic;
    if (!std::equal(SO.Roots.begin(), SO.Roots.end(), LR.Roots.begin(),
                    LR.Roots.end()))
      return "warm start: the roots came back moved";
    return "";
  }

protected:
  std::unique_ptr<Runtime> RT;
};

/// The sort workloads' reference: the seeded input, which positions are
/// linked, and an incrementally maintained sorted copy of the linked
/// values.
struct SortedInput {
  std::vector<Word> In, Sorted;
  std::vector<bool> Present;

  SortedInput(size_t N, uint64_t Seed) : Present(N, true) {
    Rng R(streamSeed(Seed, InputStream));
    In = bench::randomWords(R, N);
    Sorted = In;
    std::sort(Sorted.begin(), Sorted.end());
  }

  void track(size_t Slot, bool Delete) {
    Present[Slot] = !Delete;
    if (Delete)
      Sorted.erase(std::lower_bound(Sorted.begin(), Sorted.end(), In[Slot]));
    else
      Sorted.insert(std::upper_bound(Sorted.begin(), Sorted.end(), In[Slot]),
                    In[Slot]);
  }
};

class QsortEdits final : public EditWorkload {
public:
  QsortEdits(size_t N, uint64_t Seed) : N(N), Ref(N, Seed) {}

  size_t slots() const override { return N; }
  unsigned checkEvery() const override { return 8; }

  void setup(SpanLog &L, const Runtime::Config &Cfg) override {
    RT = std::make_unique<Runtime>(Cfg);
    RT->reserveTrace(bench::listExpectedOps(bench::ListKind::Quicksort, N));
    {
      Scope S(L, "apps.input_build");
      List = apps::buildList(*RT, Ref.In);
      Dst = RT->modref();
    }
    {
      Scope S(L, "runtime.run_core");
      bench::runListCore(*RT, bench::ListKind::Quicksort, List.Head, Dst);
    }
    Scope S(L, "runtime.output_read");
    Sink = RT->deref(Dst);
  }
  void teardown() override {
    List = apps::ListHandle();
    RT.reset();
  }

  void edit(size_t Slot, bool Delete) override {
    if (Delete)
      apps::detachCell(*RT, List, Slot);
    else
      apps::reattachCell(*RT, List, Slot);
  }
  Word readOutputRoot() override { return RT->deref(Dst); }

  void track(size_t Slot, bool Delete) override { Ref.track(Slot, Delete); }
  bool verify(bool Corrupt) override {
    std::vector<Word> Out = apps::readList(*RT, Dst);
    if (Corrupt)
      corrupt(Out);
    return Out == Ref.Sorted;
  }
  double referenceMs() override {
    return bench::convListSeconds(bench::ListKind::Quicksort, Ref.In) * 1e3;
  }
  std::vector<const void *> checkpointRoots() const override {
    return {List.Head, Dst};
  }

private:
  size_t N;
  SortedInput Ref;
  apps::ListHandle List;
  Modref *Dst = nullptr;
};

class HullBatches final : public EditWorkload {
public:
  static constexpr size_t Batch = 8;

  HullBatches(size_t N, uint64_t Seed)
      : N(std::max(Batch, N / Batch * Batch)),
        PointSeed(streamSeed(Seed, InputStream)), Present(this->N, true) {}

  size_t slots() const override { return N / Batch; }
  unsigned checkEvery() const override { return 4; }

  void setup(SpanLog &L, const Runtime::Config &Cfg) override {
    RT = std::make_unique<Runtime>(Cfg);
    RT->reserveTrace(8 * N);
    {
      Scope S(L, "apps.input_build");
      Rng R(PointSeed);
      Pts = apps::randomPoints(*RT, R, N);
      List = apps::buildPointList(*RT, Pts);
      Dst = RT->modref();
    }
    {
      Scope S(L, "runtime.run_core");
      RT->runCore<&apps::quickhullCore>(List.Head, Dst);
    }
    Scope S(L, "runtime.output_read");
    Sink = RT->deref(Dst);
  }
  void teardown() override {
    List = apps::ListHandle();
    Pts.clear();
    RT.reset();
  }

  void edit(size_t Slot, bool Delete) override {
    std::vector<size_t> P = batchPositions(Slot, N, Batch);
    if (Delete)
      for (size_t Pos : P)
        apps::detachCell(*RT, List, Pos);
    else
      for (size_t K = Batch; K-- > 0;)
        apps::reattachCell(*RT, List, P[K]);
  }
  Word readOutputRoot() override { return RT->deref(Dst); }

  void track(size_t Slot, bool Delete) override {
    for (size_t Pos : batchPositions(Slot, N, Batch))
      Present[Pos] = !Delete;
  }
  bool verify(bool Corrupt) override {
    std::vector<Word> Out = apps::readList(*RT, Dst);
    if (Corrupt)
      corrupt(Out);
    std::vector<const apps::Point *> Hull = apps::conv::quickhull(current());
    if (Out.size() != Hull.size())
      return false;
    for (size_t I = 0; I < Out.size(); ++I)
      if (fromWord<const apps::Point *>(Out[I]) != Hull[I])
        return false;
    return true;
  }
  double referenceMs() override {
    std::vector<const apps::Point *> Cur = current();
    double Best = 1e99;
    for (int Rep = 0; Rep < 3; ++Rep) {
      Timer T;
      Sink = Word(apps::conv::quickhull(Cur).size());
      Best = std::min(Best, T.milliseconds());
    }
    return Best;
  }
  std::vector<const void *> checkpointRoots() const override {
    return {List.Head, Dst};
  }

private:
  std::vector<const apps::Point *> current() const {
    std::vector<const apps::Point *> Cur;
    for (size_t I = 0; I < N; ++I)
      if (Present[I])
        Cur.push_back(Pts[I]);
    return Cur;
  }

  size_t N;
  uint64_t PointSeed;
  std::vector<bool> Present;
  std::vector<apps::Point *> Pts;
  apps::ListHandle List;
  Modref *Dst = nullptr;
};

/// The CL quicksort sample through the `cealc -O` path (parse, then the
/// optimization pipeline around NORMALIZE), executed by the VM. List
/// cells use the samples' layout: [0] head, [1] tail modref.
class VmQsortEdits final : public EditWorkload {
public:
  VmQsortEdits(size_t N, uint64_t Seed) : N(N), Ref(N, Seed) {
    cl::ParseResult P = cl::parseProgram(cl::samples::Quicksort);
    if (P)
      Orig = std::move(*P.Prog);
  }

  size_t slots() const override { return N; }
  unsigned checkEvery() const override { return 8; }

  void setup(SpanLog &L, const Runtime::Config &Cfg) override {
    cl::ParseResult P;
    {
      Scope S(L, "cl.parse");
      P = cl::parseProgram(cl::samples::Quicksort);
    }
    checkAlways(bool(P), "the quicksort CL sample failed to parse");
    {
      Scope S(L, "normalize.pipeline");
      Opt = std::make_unique<cl::Program>(
          optimize::runPassPipeline(*P.Prog).Prog);
    }
    RT = std::make_unique<Runtime>(Cfg);
    M = std::make_unique<interp::Vm>(*RT, *Opt);
    {
      Scope S(L, "apps.input_build");
      Head = M->metaModref();
      Cells.clear();
      Tails.clear();
      Modref *Cur = Head;
      for (Word V : Ref.In) {
        auto *Blk = static_cast<Word *>(M->metaAlloc(2 * sizeof(Word)));
        Modref *Tail = M->metaModref();
        Blk[0] = V;
        Blk[1] = toWord(Tail);
        M->metaWrite(Cur, toWord(Blk));
        Cells.push_back(Blk);
        Tails.push_back(Tail);
        Cur = Tail;
      }
      Out = M->metaModref();
    }
    {
      Scope S(L, "runtime.run_core");
      M->runCore("qsort", {toWord(Head), toWord(Out)});
    }
    Scope S(L, "runtime.output_read");
    Sink = RT->deref(Out);
  }
  void teardown() override {
    M.reset();
    RT.reset();
    Opt.reset();
  }

  void edit(size_t Slot, bool Delete) override {
    Modref *Owner = Slot == 0 ? Head : Tails[Slot - 1];
    RT->modify(Owner, Delete ? RT->deref(Tails[Slot]) : toWord(Cells[Slot]));
  }
  Word readOutputRoot() override { return RT->deref(Out); }

  void track(size_t Slot, bool Delete) override { Ref.track(Slot, Delete); }
  bool verify(bool Corrupt) override {
    std::vector<Word> Got = output();
    if (Corrupt)
      corrupt(Got);
    return Got == Ref.Sorted;
  }
  /// Also runs the unoptimized program on the conventional interpreter
  /// over the current input and compares.
  bool deepCheck() override {
    if (!verify(false) || Orig.Funcs.empty())
      return false;
    return output() == convRun();
  }
  double referenceMs() override {
    double Best = 1e99;
    for (int Rep = 0; Rep < 3; ++Rep) {
      Timer T;
      Sink = Word(convRun().size());
      Best = std::min(Best, T.milliseconds());
    }
    return Best;
  }
  Counters counters() override {
    return capture(*RT, M->closuresMade(), M->closureEnvWords());
  }

private:
  std::vector<Word> output() {
    std::vector<Word> R;
    for (Word W = RT->deref(Out); W;) {
      const Word *Blk = fromWord<const Word *>(W);
      R.push_back(Blk[0]);
      W = RT->deref(fromWord<const Modref *>(Blk[1]));
    }
    return R;
  }
  std::vector<Word> convRun() const {
    interp::ConvInterp CI(Orig);
    Word *CHead = CI.newCell(0);
    Word *Cur = CHead;
    for (size_t I = 0; I < N; ++I) {
      if (!Ref.Present[I])
        continue;
      auto *Blk = static_cast<Word *>(CI.alloc(2 * sizeof(Word)));
      Word *Tail = CI.newCell(0);
      Blk[0] = Ref.In[I];
      Blk[1] = toWord(Tail);
      *Cur = toWord(Blk);
      Cur = Tail;
    }
    Word *COut = CI.newCell(0);
    CI.run("qsort", {toWord(CHead), toWord(COut)});
    std::vector<Word> R;
    for (Word W = *COut; W;) {
      const Word *Blk = fromWord<const Word *>(W);
      R.push_back(Blk[0]);
      W = *fromWord<const Word *>(Blk[1]);
    }
    return R;
  }

  size_t N;
  SortedInput Ref;
  cl::Program Orig;
  std::unique_ptr<cl::Program> Opt;
  std::unique_ptr<interp::Vm> M;
  Modref *Head = nullptr, *Out = nullptr;
  std::vector<Word *> Cells;
  std::vector<Modref *> Tails;
};


using WorkloadFactory =
    std::function<std::unique_ptr<EditWorkload>(uint64_t SessionSeed)>;

/// Sessions of one whole seeded sweep each, every session on its own
/// seeded input, as many as cover \p Budget ops. Each session runs its
/// share of the set-up reps first. Each op is edit + propagate +
/// output-root read; its latency is the wall time of those three calls.
/// Many independent inputs per run average out how much one input's
/// shape (pivots, hull vertices) sets the tail of its update costs, and
/// one sweep per session gives every session the same trace age.
Outcome runEdits(const WorkloadFactory &Make, const RunOptions &O,
                 double Budget, SpanLog &Log) {
  Outcome R;
  bool Traced = Log.enabled();
  Runtime::Config Cfg = runtimeConfig(Traced);
  bool Corrupt = O.Inj == Inject::CorruptOutput;
  std::string CheckpointPath = O.ScratchDir + "/" + O.Workload + "-" +
                               std::to_string(::getpid()) + ".ckpt";
  double MaxLiveSum = 0;
  size_t Sessions = 1;
  Timer Loop;
  for (size_t K = 0; K < Sessions; ++K, ++R.Sweeps) {
    if (Loop.seconds() > LoopCapSeconds) {
      R.Capped = true;
      break;
    }
    uint64_t SessionSeed = hashPair(O.Seed, K);
    std::unique_ptr<EditWorkload> W = Make(SessionSeed);
    if (K == 0)
      Sessions = size_t(std::max(
          1.0, std::ceil(Budget / (2.0 * double(W->slots())))));
    size_t Reps = (SetupReps + Sessions - 1) / Sessions;
    for (size_t Rep = 0; Rep < Reps; ++Rep) {
      if (Rep) {
        Scope S(Log, "runtime.teardown");
        W->teardown();
      }
      Timer T;
      {
        Scope S(Log, "setup");
        W->setup(Log, Cfg);
      }
      R.SetupS.push_back(T.seconds());
    }
    if (!W->deepCheck()) {
      R.SetupOk = false;
      R.noteFailure("from-scratch output differs from the reference");
    }

    Runtime &RT = W->runtime();
    R.CheckEvery = W->checkEvery();
    SweepSchedule Sched(W->slots(), streamSeed(SessionSeed, ScheduleStream));
    Rng CheckR(streamSeed(SessionSeed, CheckStream));
    Counters C0 = Traced ? W->counters() : Counters();
    for (size_t Slot : Sched.nextSweep()) {
      for (bool Delete : {true, false}) {
        Log.setOp(int64_t(R.OpNs.size()));
        uint64_t T0 = Timer::nowNs();
        {
          Scope Op(Log, "op");
          {
            Scope S(Log, "runtime.edit");
            W->edit(Slot, Delete);
          }
          {
            Scope S(Log, "runtime.propagate");
            RT.propagate();
          }
          Scope S(Log, "runtime.output_read");
          Sink = W->readOutputRoot();
        }
        R.OpNs.push_back(double(Timer::nowNs() - T0));
        W->track(Slot, Delete);
        bool Ok = !RT.outOfMemory();
        if (!Ok)
          R.noteFailure("out of memory");
        if (CheckR.below(R.CheckEvery) == 0) {
          ++R.Checked;
          if (!W->verify(Corrupt)) {
            Ok = false;
            R.noteFailure("output differs from the reference");
          }
        }
        R.Failed += !Ok;
      }
    }
    Log.setOp(-1);
    MaxLiveSum += double(RT.maxLiveBytes());
    if (Traced) {
      R.D.add(C0, W->counters());
      R.Mem = RT.memoryStats();
      R.ReferenceMs = W->referenceMs();
    }
    // A traced run checkpoints the session and warm-starts it for the
    // snapshot layers; the final check then reads the warm runtime. A
    // failed round trip counts as a failed op.
    std::string Lost;
    if (Traced && !W->checkpointRoots().empty())
      Lost = W->checkpointRoundTrip(Log, Cfg, CheckpointPath, O.Inj,
                                    R.SnapshotBytes);
    if (!Lost.empty()) {
      ++R.Failed;
      R.FinalOk = false;
      R.noteFailure(Lost);
    } else if (!W->deepCheck()) {
      R.FinalOk = false;
      R.noteFailure("final output differs from the reference");
    }
    Scope S(Log, "runtime.teardown");
    W->teardown();
  }
  R.Attempted = R.OpNs.size();
  // The mean over sessions: one input's peak is an extreme value of its
  // worst edit, which the average over independent inputs steadies.
  R.MaxLive = size_t(MaxLiveSum / double(std::max<size_t>(R.Sweeps, 1)));
  return R;
}

//===----------------------------------------------------------------------===//
// Metrics
//===----------------------------------------------------------------------===//

struct WorkloadDef {
  const char *Name;
  size_t DefaultN;
  /// Ops per second of --seconds. A run's work is fixed by --seconds
  /// through this rate, not by a clock: trace aging makes later sweeps
  /// slower, so a clock-bounded loop would hand a faster build more
  /// (and slower) sweeps. The rates make one second of budget about one
  /// second of op loop on the host RATIONALE.md names.
  double OpsPerSecond;
};

/// RATIONALE.md records how sizes and rates were chosen.
constexpr WorkloadDef Defs[] = {
    {"qsort_edits", 2000, 2500},
    {"hull_batches", 8000, 600},
    {"vm_qsort_edits", 1500, 2100},
};

Outcome measure(const RunOptions &O, const WorkloadDef &Def, size_t N,
                double Seconds, SpanLog &Log) {
  double Budget = std::max(double(O.MinOps), Seconds * Def.OpsPerSecond);
  WorkloadFactory Make = [&](uint64_t Seed) -> std::unique_ptr<EditWorkload> {
    if (O.Workload == "qsort_edits")
      return std::make_unique<QsortEdits>(N, Seed);
    if (O.Workload == "hull_batches")
      return std::make_unique<HullBatches>(N, Seed);
    return std::make_unique<VmQsortEdits>(N, Seed);
  };
  return runEdits(Make, O, Budget, Log);
}

double sum(const std::vector<double> &V) {
  double S = 0;
  for (double X : V)
    S += X;
  return S;
}

void addEndToEnd(const Outcome &R, std::vector<Metric> &M) {
  M.push_back({"setup_s", percentile(R.SetupS, 0.5), "s"});
  M.push_back({"op_p50_us", percentile(R.OpNs, 0.5) / 1e3, "us"});
  M.push_back({"op_p99_us", percentile(R.OpNs, 0.99) / 1e3, "us"});
  M.push_back({"ops_per_s", double(R.OpNs.size()) / (sum(R.OpNs) / 1e9),
               "ops/s"});
  M.push_back({"max_live_mb", double(R.MaxLive) / MiB, "MiB"});
  M.push_back({"peak_rss_mb", peakRssMb(), "MiB"});
}

void addPerLayer(const Outcome &T, const SpanLog &Log, double UntracedP50Ns,
                 std::vector<Metric> &M) {
  auto P = [&](const char *Span, double Q, double Scale) {
    return percentile(Log.selfTimes(Span), Q) / Scale;
  };
  double Ops = double(std::max<uint64_t>(T.Attempted, 1));
  auto Ratio = [](double A, double B) { return B > 0 ? A / B : 0.0; };
  const Deltas &D = T.D;
  M.push_back({"apps.input_build_ms", P("apps.input_build", 0.5, 1e6), "ms"});
  M.push_back({"cl.parse_ms", P("cl.parse", 0.5, 1e6), "ms"});
  M.push_back({"normalize.pipeline_ms", P("normalize.pipeline", 0.5, 1e6),
               "ms"});
  M.push_back({"runtime.run_core_ms", P("runtime.run_core", 0.5, 1e6), "ms"});
  M.push_back({"runtime.edit_us", P("runtime.edit", 0.5, 1e3), "us"});
  M.push_back({"runtime.output_read_us", P("runtime.output_read", 0.5, 1e3),
               "us"});
  M.push_back({"runtime.propagate_us_p50", P("runtime.propagate", 0.5, 1e3),
               "us"});
  M.push_back({"runtime.propagate_us_p99", P("runtime.propagate", 0.99, 1e3),
               "us"});
  M.push_back({"runtime.reads_reexecuted_per_op", D.Reexec / Ops, "count"});
  M.push_back({"runtime.nodes_revoked_per_op", D.Revoked / Ops, "count"});
  M.push_back({"runtime.closure_dispatches_per_op", D.Dispatches / Ops,
               "count"});
  M.push_back({"runtime.use_scan_steps_per_op", D.UseScan / Ops, "count"});
  M.push_back({"runtime.memo_hit_ratio", Ratio(D.MemoHits, D.MemoLookups),
               "ratio"});
  M.push_back({"runtime.queue_pops_per_op", D.QueuePops / Ops, "count"});
  M.push_back({"runtime.parallel_run_ratio",
               Ratio(D.ParallelRuns, D.Propagations), "ratio"});
  M.push_back({"runtime.parallel_join_wait_us_per_op",
               D.JoinWaitNs / 1e3 / Ops, "us"});
  M.push_back({"om.inserts_per_op", D.OmInserts / Ops, "count"});
  M.push_back({"runtime.memo.inserts_per_op", D.MemoInserts / Ops, "count"});
  M.push_back({"support.arena_allocs_per_op", D.ArenaAllocs / Ops, "count"});
  const MemoryStats &Mem = T.Mem;
  M.push_back({"om.mb", double(Mem.OmBytes) / MiB, "MiB"});
  M.push_back({"runtime.memo.index_mb", double(Mem.MemoIndexBytes) / MiB,
               "MiB"});
  M.push_back({"runtime.trace.read_mb", double(Mem.ReadBytes) / MiB, "MiB"});
  M.push_back({"runtime.trace.write_mb", double(Mem.WriteBytes) / MiB,
               "MiB"});
  M.push_back({"runtime.trace.alloc_mb", double(Mem.AllocBytes) / MiB,
               "MiB"});
  M.push_back({"runtime.trace.closure_mb", double(Mem.ClosureBytes) / MiB,
               "MiB"});
  M.push_back({"support.arena_utilization", Mem.utilization(), "ratio"});
  M.push_back({"runtime.snapshot.save_ms", P("runtime.snapshot.save", 0.5, 1e6),
               "ms"});
  M.push_back({"runtime.snapshot.warm_start_ms",
               P("runtime.snapshot.warm_start", 0.5, 1e6), "ms"});
  M.push_back({"runtime.snapshot.mb", T.SnapshotBytes / MiB, "MiB"});
  M.push_back({"runtime.teardown_ms", P("runtime.teardown", 0.5, 1e6), "ms"});
  M.push_back({"interp.closures_per_op", D.Closures / Ops, "count"});
  M.push_back({"interp.env_words_per_closure", Ratio(D.EnvWords, D.Closures),
               "count"});
  M.push_back({"apps.reference_ms", T.ReferenceMs, "ms"});
  M.push_back({"trace_overhead",
               Ratio(percentile(T.OpNs, 0.5), UntracedP50Ns), "ratio"});
  M.push_back({"failed_op_ratio", double(T.Failed) / Ops, "ratio"});
}

/// Per span name: count, p50 duration and p50 self time, as JSON.
std::string spanSummary(const SpanLog &Log) {
  std::map<std::string, bool> Names;
  for (const SpanLog::Span &S : Log.spans())
    Names[S.Name] = true;
  std::ostringstream OS;
  OS << "{";
  bool First = true;
  for (const auto &[Name, _] : Names) {
    std::vector<double> Dur = Log.durations(Name);
    OS << (First ? "" : ", ") << "\"" << Name << "\": {\"count\": "
       << Dur.size() << ", \"p50_ns\": " << percentile(Dur, 0.5)
       << ", \"self_p50_ns\": " << percentile(Log.selfTimes(Name), 0.5)
       << ", \"self_total_ns\": " << sum(Log.selfTimes(Name)) << "}";
    First = false;
  }
  OS << "}";
  return OS.str();
}

} // namespace

const std::vector<std::string> &workloadNames() {
  static const std::vector<std::string> Names = [] {
    std::vector<std::string> V;
    for (const WorkloadDef &D : Defs)
      V.push_back(D.Name);
    return V;
  }();
  return Names;
}

RunResult runWorkload(const RunOptions &O) {
  RunResult Res;
  const WorkloadDef *Def = nullptr;
  for (const WorkloadDef &D : Defs)
    if (O.Workload == D.Name)
      Def = &D;
  if (!Def) {
    Res.Error = "unknown workload '" + O.Workload + "'";
    return Res;
  }
  Res.N = O.N ? O.N : Def->DefaultN;

  auto Fold = [&Res](const Outcome &R) {
    Res.Attempted += R.Attempted;
    Res.Failed += R.Failed;
    Res.Checked += R.Checked;
    Res.Sweeps += R.Sweeps;
    Res.Capped |= R.Capped;
    Res.CheckEvery = R.CheckEvery;
    Res.SetupOk &= R.SetupOk;
    Res.FinalOk &= R.FinalOk;
    if (Res.FirstFailure.empty())
      Res.FirstFailure = R.FirstFailure;
  };
  if (!O.Trace) {
    SpanLog Off(false);
    Outcome U = measure(O, *Def, Res.N, O.Seconds, Off);
    Fold(U);
    addEndToEnd(U, Res.Metrics);
    return Res;
  }
  // Traced: an untraced half gives trace_overhead's base, then the
  // traced half gives every per-layer number.
  SpanLog Off(false), On(true);
  Outcome U = measure(O, *Def, Res.N, O.Seconds / 2, Off);
  Outcome T = measure(O, *Def, Res.N, O.Seconds / 2, On);
  Fold(U);
  Fold(T);
  addPerLayer(T, On, percentile(U.OpNs, 0.5), Res.Metrics);
  for (Metric &M : measureUnitCosts())
    Res.Metrics.push_back(std::move(M));
  Res.SpanSummary = spanSummary(On);
  Res.SpansPath = O.ScratchDir + "/" + O.Workload + "-seed" +
                  std::to_string(O.Seed) + ".spans.jsonl";
  if (!On.writeJsonl(Res.SpansPath))
    Res.SpansPath.clear();
  return Res;
}

} // namespace perfbench
