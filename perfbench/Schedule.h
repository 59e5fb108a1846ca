//===- perfbench/Schedule.h - Seeded sweep edit schedules ------*- C++ -*-===//
//
// Part of the CEAL reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's Sec. 8.1 test mutator as a seeded schedule. A sweep visits
/// every edit slot exactly once, in a permutation drawn from the seed; an
/// edit workload deletes the slot's cells, propagates, reinserts them and
/// propagates again. Whole sweeps replace uniform position sampling: the
/// few list-head positions that re-run O(n) of quicksort are hit exactly
/// once per sweep instead of zero or several times per run, which is what
/// made sampled update times swing by 4x across seeds.
///
//===----------------------------------------------------------------------===//

#ifndef CEAL_PERFBENCH_SCHEDULE_H
#define CEAL_PERFBENCH_SCHEDULE_H

#include "support/Random.h"

#include <cstddef>
#include <cstdint>
#include <numeric>
#include <vector>

namespace perfbench {

/// Seeded permutation sweeps over \p Slots edit slots. Sweep k is a
/// Fisher-Yates shuffle of the previous sweep's order drawn from one
/// seeded stream, so the whole schedule is a function of the seed.
class SweepSchedule {
public:
  SweepSchedule(size_t Slots, uint64_t Seed) : R(Seed), Order(Slots) {
    std::iota(Order.begin(), Order.end(), size_t(0));
  }

  const std::vector<size_t> &nextSweep() {
    for (size_t I = Order.size(); I > 1; --I)
      std::swap(Order[I - 1], Order[R.below(I)]);
    return Order;
  }

private:
  ceal::Rng R;
  std::vector<size_t> Order;
};

/// Positions edited together by batch slot \p Slot of an \p N-element
/// input split into \p Batch strided clusters: {Slot + k * N / Batch}.
/// Every position belongs to exactly one slot when Batch divides N, so a
/// sweep over the N / Batch slots edits each position once.
inline std::vector<size_t> batchPositions(size_t Slot, size_t N,
                                          size_t Batch) {
  std::vector<size_t> P(Batch);
  for (size_t K = 0; K < Batch; ++K)
    P[K] = Slot + K * (N / Batch);
  return P;
}

} // namespace perfbench

#endif // CEAL_PERFBENCH_SCHEDULE_H
