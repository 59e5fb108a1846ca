//===- perfbench/UnitCosts.cpp - Per-layer unit costs ---------------------===//
//
// Part of the CEAL reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
//
// The single-operation costs the google-benchmark rows of
// bench/rt_microbench only print (BM_OrderListAppend,
// BM_OrderListFrontInsert, BM_OrderListCompare, BM_ClosureMake,
// BM_MetaModifyDeref), plus an arena allocate/deallocate pair and
// Checksum64 bandwidth, recorded as per-layer metrics. Each is the median
// over batches of direct calls to the public function.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "om/OrderList.h"
#include "runtime/Runtime.h"
#include "support/Arena.h"
#include "support/Checksum.h"
#include "support/Random.h"
#include "support/Timer.h"

#include <algorithm>

using namespace ceal;

namespace perfbench {
namespace {

constexpr int Batches = 9;

/// Makes \p V observable so the measured call is not optimized away.
template <typename T> void keep(const T &V) {
  asm volatile("" : : "r"(&V) : "memory");
}

/// Median of \p Batches runs of \p Batch, which returns its own cost in
/// ns per operation (so set-up it does before its clock read is free).
template <typename F> double medianOf(F Batch) {
  std::vector<double> V;
  for (int I = 0; I < Batches; ++I)
    V.push_back(Batch());
  std::sort(V.begin(), V.end());
  return V[V.size() / 2];
}

Closure *noopBody(Runtime &, Word, Modref *) { return nullptr; }

} // namespace

std::vector<Metric> measureUnitCosts() {
  std::vector<Metric> M;

  M.push_back({"om.append_ns", medianOf([] {
                 constexpr int Inserts = 20000;
                 OrderList L;
                 OmNode *Cur = L.base();
                 uint64_t T0 = Timer::nowNs();
                 for (int I = 0; I < Inserts; ++I)
                   Cur = L.insertAfter(Cur);
                 keep(Cur);
                 return double(Timer::nowNs() - T0) / Inserts;
               }),
               "ns"});

  M.push_back({"om.front_insert_ns", medianOf([] {
                 constexpr int Lists = 10, Inserts = 1000;
                 uint64_t Ns = 0;
                 for (int J = 0; J < Lists; ++J) {
                   OrderList L;
                   uint64_t T0 = Timer::nowNs();
                   for (int I = 0; I < Inserts; ++I)
                     keep(L.insertAfter(L.base()));
                   Ns += Timer::nowNs() - T0;
                 }
                 return double(Ns) / (Lists * Inserts);
               }),
               "ns"});

  {
    OrderList L;
    Rng R(5);
    std::vector<OmNode *> Nodes{L.base()};
    for (int I = 0; I < 10000; ++I)
      Nodes.push_back(L.insertAfter(Nodes[R.below(Nodes.size())]));
    M.push_back({"om.compare_ns", medianOf([&] {
                   constexpr size_t Compares = 200000;
                   size_t Before = 0;
                   uint64_t T0 = Timer::nowNs();
                   for (size_t I = 0; I < Compares; ++I)
                     Before += OrderList::precedes(
                         Nodes[(I * 7919) % Nodes.size()],
                         Nodes[(I * 104729) % Nodes.size()]);
                   keep(Before);
                   return double(Timer::nowNs() - T0) / Compares;
                 }),
                 "ns"});
  }

  {
    Runtime RT;
    Modref *Mr = RT.modref();
    M.push_back({"runtime.closure_make_ns", medianOf([&] {
                   constexpr int Makes = 100000;
                   uint64_t T0 = Timer::nowNs();
                   for (int I = 0; I < Makes; ++I) {
                     Closure *C = RT.make<&noopBody>(Word(I), Mr);
                     keep(C);
                     RT.arena().deallocate(C, C->byteSize());
                   }
                   return double(Timer::nowNs() - T0) / Makes;
                 }),
                 "ns"});
    Modref *V = RT.modref<int64_t>(1);
    M.push_back({"runtime.modify_deref_ns", medianOf([&] {
                   constexpr int Pairs = 100000;
                   int64_t Sum = 0;
                   uint64_t T0 = Timer::nowNs();
                   for (int I = 0; I < Pairs; ++I) {
                     RT.modifyT<int64_t>(V, I);
                     Sum += RT.derefT<int64_t>(V);
                   }
                   keep(Sum);
                   return double(Timer::nowNs() - T0) / Pairs;
                 }),
                 "ns"});
  }

  {
    // Mixed trace-node-like sizes, all live at once before being freed,
    // so the pair exercises bump refill and the size-class freelists.
    Arena A;
    std::vector<void *> Blocks(1024);
    M.push_back({"support.arena_alloc_free_ns", medianOf([&] {
                   constexpr int Rounds = 64;
                   uint64_t T0 = Timer::nowNs();
                   for (int R = 0; R < Rounds; ++R) {
                     for (size_t I = 0; I < Blocks.size(); ++I)
                       Blocks[I] = A.allocate(16 + 8 * (I % 12));
                     keep(Blocks);
                     for (size_t I = 0; I < Blocks.size(); ++I)
                       A.deallocate(Blocks[I], 16 + 8 * (I % 12));
                   }
                   return double(Timer::nowNs() - T0) /
                          double(Rounds * Blocks.size());
                 }),
                 "ns"});
  }

  {
    std::vector<uint64_t> Buf(size_t(16) << 17); // 16 MiB.
    Rng R(7);
    for (uint64_t &W : Buf)
      W = R.next();
    double NsPerByte = medianOf([&] {
      uint64_t T0 = Timer::nowNs();
      Checksum64 C;
      C.update(Buf.data(), Buf.size() * sizeof(uint64_t));
      uint64_t D = C.digest();
      keep(D);
      return double(Timer::nowNs() - T0) /
             double(Buf.size() * sizeof(uint64_t));
    });
    M.push_back({"support.checksum_gbps", 1.0 / NsPerByte, "GB/s"});
  }
  return M;
}

} // namespace perfbench
