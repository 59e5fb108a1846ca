//===- perfbench/Spans.h - In-memory span log for traced runs --*- C++ -*-===//
//
// Part of the CEAL reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Spans recorded from the benchmark's side of each layer boundary: one
/// span per call into a public entry point (Runtime::propagate,
/// Snapshot::save, cl::parseProgram, ...), with its parent span and the
/// op it belongs to. Spans stay in memory until the run ends. With
/// tracing off, opening a span is one branch and nothing is recorded.
///
/// The log grows in small fixed-size blocks (a deque), never by moving
/// one large array: a large reallocation is a fresh mmap, which costs a
/// copy inside a timed op and can land in address space a runtime has
/// just released -- the very range Snapshot::mmapWarmStart must claim
/// back to warm-start that runtime's checkpoint.
///
//===----------------------------------------------------------------------===//

#ifndef CEAL_PERFBENCH_SPANS_H
#define CEAL_PERFBENCH_SPANS_H

#include "support/Timer.h"

#include <cstdint>
#include <cstdio>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

class SpanLog {
public:
  struct Span {
    const char *Name;
    uint64_t Start = 0, End = 0;
    int32_t Parent = -1;
    /// The op (request) the span belongs to; -1 outside the op loop.
    int64_t Op = -1;
  };

  explicit SpanLog(bool On) : On(On) {}

  bool enabled() const { return On; }
  const std::deque<Span> &spans() const { return Spans; }
  void setOp(int64_t Id) { CurOp = Id; }

  int32_t open(const char *Name) {
    if (!On)
      return -1;
    Span S;
    S.Name = Name;
    S.Parent = Stack.empty() ? -1 : Stack.back();
    S.Op = CurOp;
    Spans.push_back(S);
    int32_t Id = int32_t(Spans.size() - 1);
    Stack.push_back(Id);
    Spans.back().Start = ceal::Timer::nowNs();
    return Id;
  }

  void close(int32_t Id) {
    if (Id < 0)
      return;
    Spans[size_t(Id)].End = ceal::Timer::nowNs();
    Stack.pop_back();
  }

  /// Durations in nanoseconds of every span named \p Name.
  std::vector<double> durations(std::string_view Name) const {
    std::vector<double> D;
    for (const Span &S : Spans)
      if (Name == S.Name)
        D.push_back(double(S.End - S.Start));
    return D;
  }

  /// Self times in nanoseconds of every span named \p Name: each span's
  /// duration minus the part covered by its direct children (children
  /// nest inside their parent on this single-threaded log).
  std::vector<double> selfTimes(std::string_view Name) const {
    std::vector<uint64_t> Child(Spans.size(), 0);
    for (const Span &S : Spans)
      if (S.Parent >= 0)
        Child[size_t(S.Parent)] += S.End - S.Start;
    std::vector<double> D;
    for (size_t I = 0; I < Spans.size(); ++I)
      if (Name == Spans[I].Name)
        D.push_back(double(Spans[I].End - Spans[I].Start - Child[I]));
    return D;
  }

  /// Writes one JSON object per span (id, parent, op, name, start/end
  /// in ns); returns false if the file cannot be written.
  bool writeJsonl(const std::string &Path) const {
    std::FILE *F = std::fopen(Path.c_str(), "w");
    if (!F)
      return false;
    for (size_t I = 0; I < Spans.size(); ++I) {
      const Span &S = Spans[I];
      std::fprintf(F,
                   "{\"id\":%zu,\"parent\":%d,\"op\":%lld,\"name\":\"%s\","
                   "\"start_ns\":%llu,\"end_ns\":%llu}\n",
                   I, S.Parent, (long long)S.Op, S.Name,
                   (unsigned long long)S.Start, (unsigned long long)S.End);
    }
    return std::fclose(F) == 0;
  }

private:
  bool On;
  int64_t CurOp = -1;
  std::deque<Span> Spans;
  std::vector<int32_t> Stack;
};

/// RAII span around one call into a layer.
class Scope {
public:
  Scope(SpanLog &L, const char *Name) : L(L), Id(L.open(Name)) {}
  ~Scope() { L.close(Id); }
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;

private:
  SpanLog &L;
  int32_t Id;
};

} // namespace perfbench

#endif // CEAL_PERFBENCH_SPANS_H
