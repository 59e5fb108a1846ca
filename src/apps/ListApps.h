//===- apps/ListApps.h - Self-adjusting list primitives --------*- C++ -*-===//
//
// Part of the CEAL reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The list benchmarks of the paper's evaluation (Sec. 8.2): map, filter,
/// reverse, the reductions minimum and sum, and the sorting algorithms
/// quicksort and mergesort — written as self-adjusting core programs in
/// the compiled closure style the CEAL compiler emits.
///
/// Lists are modifiable lists: a list handle is a modifiable holding a
/// `Cell *` (null for nil); each cell carries a word head and a
/// modifiable tail. Mutators edit lists by writing tail modifiables,
/// which is exactly the paper's insertion/deletion model.
///
/// Reductions use randomized run-contraction rounds (coins hashed from
/// cell identity and round number), which is what gives minimum and sum
/// their logarithmic update times in Table 1; a positional pairing would
/// degrade to linear updates under insertion.
///
//===----------------------------------------------------------------------===//

#ifndef CEAL_APPS_LISTAPPS_H
#define CEAL_APPS_LISTAPPS_H

#include "runtime/Runtime.h"

#include <cstddef>
#include <vector>

namespace ceal {
namespace apps {

/// A modifiable list cell. Heads are plain words (an element change is a
/// cell replacement); tails are modifiables so the mutator and change
/// propagation can restructure the spine. Id is the cell's identity for
/// randomized decisions (contraction-run coins, mergesort split sides):
/// input cells get it from the builder, derived cells hash it from their
/// source cell's Id and the derivation site. An explicit lineage-based
/// identity — rather than the cell's address or region offset — keeps
/// every coin a pure function of the input structure, so the whole trace
/// shape is reproducible across runtimes, region bases, and allocation
/// histories (the snapshot round-trip oracle compares traces by digest).
struct Cell {
  Word Head;
  Word Id;
  Modref *Tail; ///< Holds Cell *.
};

/// Element transformer: receives the element and a caller environment.
using MapFn = Word (*)(Word Element, Word Env);
/// Element predicate for filter.
using PredFn = bool (*)(Word Element, Word Env);
/// Total order; negative/zero/positive like strcmp.
using CmpFn = int (*)(Word A, Word B);
/// Associative combiner for reductions.
using CombineFn = Word (*)(Word A, Word B, Word Env);

//===----------------------------------------------------------------------===//
// Core entry points (pass to Runtime::runCore<&fn>(...)).
//===----------------------------------------------------------------------===//

/// Writes into \p Dst the list mapping \p Fn over \p Src.
Closure *mapCore(Runtime &RT, Modref *Src, Modref *Dst, MapFn Fn, Word Env);

/// Writes into \p Dst the elements of \p Src satisfying \p Pred.
Closure *filterCore(Runtime &RT, Modref *Src, Modref *Dst, PredFn Pred,
                    Word Env);

/// Writes into \p Dst the reversal of \p Src.
Closure *reverseCore(Runtime &RT, Modref *Src, Modref *Dst);

/// Writes into \p Dst the reduction of \p Src under \p Fn (with identity
/// \p Id), computed with randomized contraction rounds.
Closure *reduceCore(Runtime &RT, Modref *Src, Modref *Dst, CombineFn Fn,
                    Word Env, Word Id);

/// Writes into \p Dst the list \p Src sorted by \p Cmp (classic
/// randomized-by-input quicksort on lists).
Closure *quicksortCore(Runtime &RT, Modref *Src, Modref *Dst, CmpFn Cmp);

/// Writes into \p Dst the list \p Src sorted by \p Cmp (mergesort with
/// randomized splitting).
Closure *mergesortCore(Runtime &RT, Modref *Src, Modref *Dst, CmpFn Cmp);

//===----------------------------------------------------------------------===//
// Mutator-side helpers
//===----------------------------------------------------------------------===//

/// A mutator-owned modifiable list: the head modifiable plus the cells in
/// construction order, for O(1) single-element edits.
struct ListHandle {
  Modref *Head = nullptr;
  std::vector<Cell *> Cells;

  /// The tail modifiable whose value is cell \p Index (the edit point for
  /// deleting/reinserting that cell).
  Modref *tailRefBefore(size_t Index) const {
    return Index == 0 ? Head : Cells[Index - 1]->Tail;
  }
};

/// Builds a modifiable list over \p Values; cells are allocated at the
/// meta level (from the runtime arena) and stay valid for the runtime's
/// lifetime.
ListHandle buildList(Runtime &RT, const std::vector<Word> &Values);

/// Unlinks cell \p Index (which must currently be linked).
void detachCell(Runtime &RT, ListHandle &L, size_t Index);

/// Relinks cell \p Index after a detachCell of the same index.
void reattachCell(Runtime &RT, ListHandle &L, size_t Index);

/// Reads a runtime list back through the meta interface.
std::vector<Word> readList(Runtime &RT, Modref *Head);

} // namespace apps
} // namespace ceal

#endif // CEAL_APPS_LISTAPPS_H
