//===- perfbench/Provenance.cpp - Build, host and environment facts -------===//
//
// Part of the CEAL reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
//
// What a result must carry to be compared with another: the build's
// type and checking state, the trace layout, the compiler, the CPU and
// its SIMD variant, the filesystem the checkpoint goes through, and any
// CEAL_* environment override. Host facts come from system calls and
// CPUID, not from files outside the benchmark's checkout.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "support/simd/Simd.h"

#include <cstdio>
#include <cstring>
#include <sstream>

#include <sys/statfs.h>
#include <unistd.h>
#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

extern char **environ;

namespace perfbench {
namespace {

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) >= 0x20)
      Out += C;
  }
  return Out + "\"";
}

std::string cpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  if (__get_cpuid_max(0x80000000, nullptr) >= 0x80000004) {
    unsigned Regs[12];
    for (unsigned I = 0; I < 3; ++I)
      __get_cpuid(0x80000002 + I, &Regs[4 * I], &Regs[4 * I + 1],
                  &Regs[4 * I + 2], &Regs[4 * I + 3]);
    char Brand[sizeof(Regs) + 1] = {};
    std::memcpy(Brand, Regs, sizeof(Regs));
    std::string S(Brand);
    size_t B = S.find_first_not_of(' '), E = S.find_last_not_of(' ');
    if (B != std::string::npos)
      return S.substr(B, E - B + 1);
  }
#endif
  return "unknown";
}

std::string fsType(const std::string &Dir) {
  struct statfs S;
  if (statfs(Dir.c_str(), &S) != 0)
    return "unknown";
  switch (static_cast<unsigned long>(S.f_type)) {
  case 0x01021994: return "tmpfs";
  case 0xEF53: return "ext4";
  case 0x794c7630: return "overlayfs";
  case 0x58465342: return "xfs";
  case 0x9123683E: return "btrfs";
  case 0x6969: return "nfs";
  case 0x65735546: return "fuse";
  }
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "0x%lx",
                static_cast<unsigned long>(S.f_type));
  return Buf;
}

} // namespace

std::string provenanceJson(const RunOptions &O, bool &Comparable) {
#ifdef NDEBUG
  bool Asserts = false;
#else
  bool Asserts = true;
#endif
#ifdef CEAL_WIDE_TRACE
  bool Wide = true;
#else
  bool Wide = false;
#endif
  std::vector<std::string> Overrides;
  for (char **E = environ; *E; ++E)
    if (std::strncmp(*E, "CEAL_", 5) == 0)
      Overrides.push_back(std::string(*E, std::strcspn(*E, "=")));

  std::vector<std::string> Reasons;
  if (!Overrides.empty())
    Reasons.push_back("CEAL_* environment override set");
  if (Asserts)
    Reasons.push_back("assertions armed");
  Comparable = Reasons.empty();

  auto List = [](const std::vector<std::string> &V) {
    std::string S = "[";
    for (size_t I = 0; I < V.size(); ++I)
      S += (I ? ", " : "") + jsonString(V[I]);
    return S + "]";
  };
  std::ostringstream OS;
  OS << "{\"workload\": " << jsonString(O.Workload)
     << ", \"seed\": " << O.Seed << ", \"trace\": " << (O.Trace ? 1 : 0)
     << ", \"build_type\": " << jsonString(PB_BUILD_TYPE)
     << ", \"ndebug\": " << (Asserts ? "false" : "true")
     << ", \"expensive_checks\": " << jsonString(PB_EXPENSIVE_CHECKS)
     << ", \"wide_trace\": " << (Wide ? "true" : "false")
     << ", \"compiler\": " << jsonString(PB_COMPILER)
     << ", \"cpu_model\": " << jsonString(cpuModel())
     << ", \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
     << ", \"simd_variant\": "
     << jsonString(ceal::simd::variantName(ceal::simd::selected()))
     << ", \"checkpoint_fs\": " << jsonString(fsType(O.ScratchDir))
     << ", \"ceal_env_overrides\": " << List(Overrides)
     << ", \"comparable\": " << (Comparable ? "true" : "false")
     << ", \"non_comparable_reasons\": " << List(Reasons) << "}";
  return OS.str();
}

} // namespace perfbench
