//===- perfbench/main.cpp - Workload runner -------------------------------===//
//
// Part of the CEAL reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
//
// perfbench --workload NAME --seed N --seconds S --trace 0|1
//           [--scratch DIR]
//
// Runs one workload and prints one JSON line with the counts, the
// metrics, the provenance header and (traced runs) the span summary.
// run.py builds this binary and turns the line into the benchmark
// result. Exit codes: 0 ran (failed ops are reported, not fatal),
// 1 the run could not be carried out, 2 usage error.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace perfbench;

namespace {

int usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--scratch DIR]\n",
               Why);
  return 2;
}

bool parseU64(const char *S, uint64_t &Out) {
  char *End = nullptr;
  errno = 0;
  unsigned long long V = std::strtoull(S, &End, 10);
  if (errno || End == S || *End || S[0] == '-')
    return false;
  Out = V;
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  RunOptions O;
  bool HaveWorkload = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (I + 1 >= Argc)
      return usage(("missing value for " + Flag).c_str());
    const char *V = Argv[++I];
    if (Flag == "--workload") {
      O.Workload = V;
      HaveWorkload = true;
    } else if (Flag == "--seed") {
      if (!parseU64(V, O.Seed))
        return usage("--seed takes a non-negative integer");
    } else if (Flag == "--seconds") {
      char *End = nullptr;
      O.Seconds = std::strtod(V, &End);
      if (End == V || *End || !(O.Seconds > 0) || O.Seconds > 3600)
        return usage("--seconds takes a number in (0, 3600]");
    } else if (Flag == "--trace") {
      if (std::strcmp(V, "0") && std::strcmp(V, "1"))
        return usage("--trace takes 0 or 1");
      O.Trace = V[0] == '1';
    } else if (Flag == "--scratch") {
      O.ScratchDir = V;
    } else {
      return usage(("unknown flag " + Flag).c_str());
    }
  }
  if (!HaveWorkload)
    return usage("--workload is required");

  bool Comparable = false;
  std::string Prov = provenanceJson(O, Comparable);
  RunResult R = runWorkload(O);
  if (!R.Error.empty()) {
    std::fprintf(stderr, "perfbench: %s\n", R.Error.c_str());
    return 1;
  }
  if (!R.FirstFailure.empty())
    std::fprintf(stderr, "perfbench: %llu failed ops; the first: %s\n",
                 (unsigned long long)R.Failed, R.FirstFailure.c_str());
  std::printf("{\"workload\": \"%s\", \"n\": %zu, \"attempted\": %llu, "
              "\"failed\": %llu, \"checked\": %llu, \"check_every\": %u, "
              "\"sweeps\": %zu, \"capped\": %s, \"setup_ok\": %s, "
              "\"final_ok\": %s, "
              "\"metrics\": {",
              O.Workload.c_str(), R.N, (unsigned long long)R.Attempted,
              (unsigned long long)R.Failed, (unsigned long long)R.Checked,
              R.CheckEvery, R.Sweeps, R.Capped ? "true" : "false", R.SetupOk ? "true" : "false",
              R.FinalOk ? "true" : "false");
  for (size_t I = 0; I < R.Metrics.size(); ++I) {
    const Metric &M = R.Metrics[I];
    double V = std::isfinite(M.Value) ? M.Value : -1;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                I ? ", " : "", M.Name.c_str(), V, M.Unit.c_str());
  }
  std::printf("}, \"provenance\": %s, \"span_summary\": %s, "
              "\"spans_path\": \"%s\"}\n",
              Prov.c_str(), R.SpanSummary.empty() ? "{}" : R.SpanSummary.c_str(),
              R.SpansPath.c_str());
  return 0;
}
