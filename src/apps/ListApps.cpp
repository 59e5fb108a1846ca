//===- apps/ListApps.cpp - Self-adjusting list primitives -----------------===//
//
// Core programs in the compiled closure style (paper Sec. 6.2): every
// read returns its continuation to the trampoline; results flow through
// destination-passing style (Sec. 10, "Support for Return Values");
// output structure is allocated through memo-keyed allocations so change
// propagation recovers identity and splices (Sec. 1, Sec. 6.1).
//
// Key choices, mirroring the CEAL benchmark suite:
//  * Output cells are keyed by the input cell that produced them, so a
//    deletion/insertion re-executes O(1) reads before memo-matching the
//    unchanged suffix.
//  * Reductions contract the list in randomized runs (coin = hash of cell
//    identity and round), giving expected O(log n) rounds and expected
//    O(1) affected runs per round per edit.
//  * Sorts use value-carrying cells and per-recursion-node keys (pivot
//    cell / split level) so that each recursive instance has a disjoint
//    key space.
//
//===----------------------------------------------------------------------===//

#include "apps/ListApps.h"

#include "support/Random.h"

#include <cassert>

using namespace ceal;
using namespace ceal::apps;

namespace {

//===----------------------------------------------------------------------===//
// Shared cell initializer
//===----------------------------------------------------------------------===//

Closure *cellInit(Runtime &, void *Block, Word Head, Word Id, Modref *Tail) {
  auto *C = static_cast<Cell *>(Block);
  C->Head = Head;
  C->Id = Id;
  C->Tail = Tail;
  return nullptr;
}

/// \p Id is the new cell's lineage identity (see Cell::Id): derived from
/// the source cell's Id and the call-site tag, never from placement. It
/// rides in the initializer arguments, so it is part of the memo key —
/// harmless, since it is itself a function of the other key components.
Cell *allocCell(Runtime &RT, Word Head, Word Id, Modref *Tail) {
  return static_cast<Cell *>(
      RT.alloc<&cellInit>(sizeof(Cell), Head, Id, Tail));
}

//===----------------------------------------------------------------------===//
// map
//===----------------------------------------------------------------------===//

Closure *mapGot(Runtime &RT, Cell *C, Modref *Dst, MapFn Fn, Word Env,
                Word Tag) {
  if (!C) {
    RT.writeT(Dst, static_cast<Cell *>(nullptr));
    return nullptr;
  }
  Modref *OutTail = RT.coreModref(C, Tag, 22);
  Cell *Out = allocCell(RT, Fn(C->Head, Env), hashPair(C->Id, 22), OutTail);
  RT.writeT(Dst, Out);
  return RT.readTail<&mapGot>(C->Tail, OutTail, Fn, Env, Tag);
}

//===----------------------------------------------------------------------===//
// filter
//===----------------------------------------------------------------------===//

Closure *filterGot(Runtime &RT, Cell *C, Modref *Dst, PredFn Pred, Word Env,
                   Word Tag) {
  if (!C) {
    RT.writeT(Dst, static_cast<Cell *>(nullptr));
    return nullptr;
  }
  if (Pred(C->Head, Env)) {
    Modref *OutTail = RT.coreModref(C, Tag, 21);
    Cell *Out = allocCell(RT, C->Head, hashPair(C->Id, 21), OutTail);
    RT.writeT(Dst, Out);
    return RT.readTail<&filterGot>(C->Tail, OutTail, Pred, Env, Tag);
  }
  return RT.readTail<&filterGot>(C->Tail, Dst, Pred, Env, Tag);
}

//===----------------------------------------------------------------------===//
// reverse
//===----------------------------------------------------------------------===//

Closure *reverseGot(Runtime &RT, Cell *C, Cell *Acc, Modref *Dst) {
  if (!C) {
    RT.writeT(Dst, Acc);
    return nullptr;
  }
  Modref *OutTail = RT.coreModref(C, 20);
  Cell *Out = allocCell(RT, C->Head, hashPair(C->Id, 20), OutTail);
  RT.writeT(OutTail, Acc);
  return RT.readTail<&reverseGot>(C->Tail, Out, Dst);
}

//===----------------------------------------------------------------------===//
// reduce (randomized run contraction)
//===----------------------------------------------------------------------===//

/// Round cells carry their value in a modifiable so that value changes
/// flow through writes (and equality-cut when a combine is unaffected).
struct VCell {
  Word Id;      ///< Lineage identity for contraction coins (see Cell::Id).
  Modref *Val;  ///< Holds a Word.
  Modref *Tail; ///< Holds VCell *.
};

Closure *vcellInit(Runtime &, void *Block, Word Id, Modref *Val,
                   Modref *Tail) {
  auto *C = static_cast<VCell *>(Block);
  C->Id = Id;
  C->Val = Val;
  C->Tail = Tail;
  return nullptr;
}

VCell *allocVCell(Runtime &RT, Word Id, Modref *Val, Modref *Tail) {
  return static_cast<VCell *>(
      RT.alloc<&vcellInit>(sizeof(VCell), Id, Val, Tail));
}

/// True if \p N starts a new run in \p Round. A pure function of the
/// cell's lineage identity, so decisions are reproducible across
/// re-executions and across runtimes, independent of where the cell was
/// placed.
bool runBoundary(const VCell *N, Word Round) {
  return hashPair(N->Id, Round) & 1;
}

/// Converts the input list into a VCell list (values behind modifiables).
Closure *convGot(Runtime &RT, Cell *C, Modref *VDst, Word Tag) {
  if (!C) {
    RT.writeT(VDst, static_cast<VCell *>(nullptr));
    return nullptr;
  }
  Modref *Val = RT.coreModref(C, Tag, 10);
  Modref *Tail = RT.coreModref(C, Tag, 11);
  VCell *VC = allocVCell(RT, hashPair(C->Id, 40), Val, Tail);
  RT.write(Val, C->Head);
  RT.writeT(VDst, VC);
  return RT.readTail<&convGot>(C->Tail, Tail, Tag);
}

Closure *convEnter(Runtime &RT, Modref *Src, Modref *VDst, Word Tag) {
  return RT.readTail<&convGot>(Src, VDst, Tag);
}

Closure *runStart(Runtime &RT, VCell *F, Modref *Dst, CombineFn Fn, Word Env,
                  Word Round);
Closure *runJoin(Runtime &RT, Word V, Word Acc, VCell *N, VCell *F,
                 Modref *Dst, CombineFn Fn, Word Env, Word Round);

Closure *runNext(Runtime &RT, VCell *N, Word Acc, VCell *F, Modref *Dst,
                 CombineFn Fn, Word Env, Word Round) {
  if (!N || runBoundary(N, Round)) {
    // The run that started at F ends here; emit its combined value. The
    // round cell inherits F's lineage, salted with the round so coins of
    // successive rounds stay independent.
    Modref *OVal = RT.coreModref(F, Round, 13);
    Modref *OTail = RT.coreModref(F, Round, 14);
    VCell *Out = allocVCell(RT, hashPair(F->Id, Round * 2 + 0x9d1), OVal,
                            OTail);
    RT.write(OVal, Acc);
    RT.writeT(Dst, Out);
    if (!N) {
      RT.writeT(OTail, static_cast<VCell *>(nullptr));
      return nullptr;
    }
    return runStart(RT, N, OTail, Fn, Env, Round);
  }
  return RT.readTail<&runJoin>(N->Val, Acc, N, F, Dst, Fn, Env, Round);
}

/// Folds \p V into the running accumulator... the value of N has arrived.
Closure *runJoin(Runtime &RT, Word V, Word Acc, VCell *N, VCell *F,
                 Modref *Dst, CombineFn Fn, Word Env, Word Round) {
  return RT.readTail<&runNext>(N->Tail, Fn(Acc, V, Env), F, Dst, Fn, Env,
                               Round);
}

Closure *runFirst(Runtime &RT, Word V, VCell *F, Modref *Dst, CombineFn Fn,
                  Word Env, Word Round) {
  return RT.readTail<&runNext>(F->Tail, V, F, Dst, Fn, Env, Round);
}

Closure *runStart(Runtime &RT, VCell *F, Modref *Dst, CombineFn Fn, Word Env,
                  Word Round) {
  return RT.readTail<&runFirst>(F->Val, F, Dst, Fn, Env, Round);
}

Closure *writeThrough(Runtime &RT, Word V, Modref *Dst) {
  RT.write(Dst, V);
  return nullptr;
}

Closure *roundEnter(Runtime &RT, VCell *F, Modref *Dst, CombineFn Fn,
                    Word Env, Word Round) {
  return runStart(RT, F, Dst, Fn, Env, Round);
}

Closure *rrGot(Runtime &RT, VCell *C, Modref *Dst, CombineFn Fn, Word Env,
               Word Id, Word Round);

Closure *rrGot2(Runtime &RT, VCell *T, VCell *C, Modref *Dst, CombineFn Fn,
                Word Env, Word Id, Word Round) {
  if (!T) // Singleton: the reduction is this cell's value.
    return RT.readTail<&writeThrough>(C->Val, Dst);
  Modref *OutHead = RT.coreModref(C, Round, 12);
  RT.callFn<&roundEnter>(C, OutHead, Fn, Env, Round);
  return RT.readTail<&rrGot>(OutHead, Dst, Fn, Env, Id, Round + 1);
}

Closure *rrGot(Runtime &RT, VCell *C, Modref *Dst, CombineFn Fn, Word Env,
               Word Id, Word Round) {
  if (!C) {
    RT.write(Dst, Id);
    return nullptr;
  }
  return RT.readTail<&rrGot2>(C->Tail, C, Dst, Fn, Env, Id, Round);
}

//===----------------------------------------------------------------------===//
// quicksort
//===----------------------------------------------------------------------===//

/// One-pass partition around \p Pivot into destinations \p DL / \p DG.
/// Output cells are keyed by (input cell, pivot cell): the same input
/// cell is partitioned once per recursion node.
Closure *partGot(Runtime &RT, Cell *C, Modref *DL, Modref *DG, Word Pivot,
                 Cell *PivotCell, CmpFn Cmp) {
  if (!C) {
    RT.writeT(DL, static_cast<Cell *>(nullptr));
    RT.writeT(DG, static_cast<Cell *>(nullptr));
    return nullptr;
  }
  if (Cmp(C->Head, Pivot) < 0) {
    Modref *OutTail = RT.coreModref(C, PivotCell, 0);
    Cell *Out = allocCell(RT, C->Head, hashPair(C->Id, 30), OutTail);
    RT.writeT(DL, Out);
    return RT.readTail<&partGot>(C->Tail, OutTail, DG, Pivot, PivotCell, Cmp);
  }
  Modref *OutTail = RT.coreModref(C, PivotCell, 1);
  Cell *Out = allocCell(RT, C->Head, hashPair(C->Id, 31), OutTail);
  RT.writeT(DG, Out);
  return RT.readTail<&partGot>(C->Tail, DL, OutTail, Pivot, PivotCell, Cmp);
}

Closure *partEnter(Runtime &RT, Modref *L, Modref *DL, Modref *DG, Word Pivot,
                   Cell *PivotCell, CmpFn Cmp) {
  return RT.readTail<&partGot>(L, DL, DG, Pivot, PivotCell, Cmp);
}

Closure *qsGot(Runtime &RT, Cell *C, Modref *Dst, Cell *Rest, CmpFn Cmp);

Closure *qsEnter(Runtime &RT, Modref *L, Modref *Dst, Cell *Rest, CmpFn Cmp) {
  return RT.readTail<&qsGot>(L, Dst, Rest, Cmp);
}

/// qs(l, dst, rest): dst := sort(l) ++ rest, with the pivot cell linking
/// the sorted halves (the classic self-adjusting quicksort).
Closure *qsGot(Runtime &RT, Cell *C, Modref *Dst, Cell *Rest, CmpFn Cmp) {
  if (!C) {
    RT.writeT(Dst, Rest);
    return nullptr;
  }
  Word Pivot = C->Head;
  Modref *Less = RT.coreModref(C, 2);
  Modref *Geq = RT.coreModref(C, 3);
  RT.callFn<&partEnter>(C->Tail, Less, Geq, Pivot, C, Cmp);
  Modref *PivotTail = RT.coreModref(C, 4);
  Cell *PivotOut = allocCell(RT, Pivot, hashPair(C->Id, 34), PivotTail);
  RT.callFn<&qsEnter>(Geq, PivotTail, Rest, Cmp);
  return RT.readTail<&qsGot>(Less, Dst, PivotOut, Cmp);
}

//===----------------------------------------------------------------------===//
// mergesort
//===----------------------------------------------------------------------===//

Closure *mergeStep(Runtime &RT, Cell *A, Cell *B, Modref *Dst, CmpFn Cmp);

Closure *mergeNextA(Runtime &RT, Cell *A, Cell *B, Modref *Dst, CmpFn Cmp) {
  return mergeStep(RT, A, B, Dst, Cmp);
}

Closure *mergeNextB(Runtime &RT, Cell *B, Cell *A, Modref *Dst, CmpFn Cmp) {
  return mergeStep(RT, A, B, Dst, Cmp);
}

Closure *mergeStep(Runtime &RT, Cell *A, Cell *B, Modref *Dst, CmpFn Cmp) {
  if (!A) {
    RT.writeT(Dst, B);
    return nullptr;
  }
  if (!B) {
    RT.writeT(Dst, A);
    return nullptr;
  }
  if (Cmp(A->Head, B->Head) <= 0) {
    Modref *OutTail = RT.coreModref(A, 6);
    Cell *Out = allocCell(RT, A->Head, hashPair(A->Id, 36), OutTail);
    RT.writeT(Dst, Out);
    return RT.readTail<&mergeNextA>(A->Tail, B, OutTail, Cmp);
  }
  Modref *OutTail = RT.coreModref(B, 7);
  Cell *Out = allocCell(RT, B->Head, hashPair(B->Id, 37), OutTail);
  RT.writeT(Dst, Out);
  return RT.readTail<&mergeNextB>(B->Tail, A, OutTail, Cmp);
}

Closure *mergeGotB(Runtime &RT, Cell *B, Cell *A, Modref *Dst, CmpFn Cmp) {
  return mergeStep(RT, A, B, Dst, Cmp);
}

Closure *mergeGotA(Runtime &RT, Cell *A, Modref *SB, Modref *Dst, CmpFn Cmp) {
  return RT.readTail<&mergeGotB>(SB, A, Dst, Cmp);
}

/// Coin-split of the input list into \p DA / \p DB; stable under edits
/// because each cell's side is a function of its identity and the level.
Closure *splitGot(Runtime &RT, Cell *C, Modref *DA, Modref *DB, Word Level);

Closure *splitStep(Runtime &RT, Cell *C, Modref *DA, Modref *DB, Word Level) {
  bool GoesRight = hashPair(C->Id, Level * 2 + 0x517) & 1;
  Modref *OutTail = RT.coreModref(C, Level, 5);
  Cell *Out = allocCell(RT, C->Head, hashPair(C->Id, Level * 2 + 0x518),
                        OutTail);
  if (GoesRight) {
    RT.writeT(DB, Out);
    return RT.readTail<&splitGot>(C->Tail, DA, OutTail, Level);
  }
  RT.writeT(DA, Out);
  return RT.readTail<&splitGot>(C->Tail, OutTail, DB, Level);
}

Closure *splitGot(Runtime &RT, Cell *C, Modref *DA, Modref *DB, Word Level) {
  if (!C) {
    RT.writeT(DA, static_cast<Cell *>(nullptr));
    RT.writeT(DB, static_cast<Cell *>(nullptr));
    return nullptr;
  }
  return splitStep(RT, C, DA, DB, Level);
}

Closure *splitEnter(Runtime &RT, Cell *C, Modref *DA, Modref *DB, Word Level) {
  return splitStep(RT, C, DA, DB, Level);
}

Closure *msGot(Runtime &RT, Cell *C, Modref *Dst, CmpFn Cmp, Word Level);

Closure *msEnter(Runtime &RT, Modref *L, Modref *Dst, CmpFn Cmp, Word Level) {
  return RT.readTail<&msGot>(L, Dst, Cmp, Level);
}

Closure *msGot2(Runtime &RT, Cell *T, Cell *C, Modref *Dst, CmpFn Cmp,
                Word Level) {
  if (!T) {
    // Singleton list: already sorted.
    Modref *OutTail = RT.coreModref(C, Level, 8);
    Cell *Out = allocCell(RT, C->Head, hashPair(C->Id, 38), OutTail);
    RT.writeT(OutTail, static_cast<Cell *>(nullptr));
    RT.writeT(Dst, Out);
    return nullptr;
  }
  Modref *A = RT.coreModref(C, Level, 0);
  Modref *B = RT.coreModref(C, Level, 1);
  RT.callFn<&splitEnter>(C, A, B, Level);
  Modref *SA = RT.coreModref(C, Level, 2);
  Modref *SB = RT.coreModref(C, Level, 3);
  RT.callFn<&msEnter>(A, SA, Cmp, Level + 1);
  RT.callFn<&msEnter>(B, SB, Cmp, Level + 1);
  return RT.readTail<&mergeGotA>(SA, SB, Dst, Cmp);
}

Closure *msGot(Runtime &RT, Cell *C, Modref *Dst, CmpFn Cmp, Word Level) {
  if (!C) {
    RT.writeT(Dst, static_cast<Cell *>(nullptr));
    return nullptr;
  }
  return RT.readTail<&msGot2>(C->Tail, C, Dst, Cmp, Level);
}

} // namespace

//===----------------------------------------------------------------------===//
// Entry points
//===----------------------------------------------------------------------===//

Closure *apps::mapCore(Runtime &RT, Modref *Src, Modref *Dst, MapFn Fn,
                       Word Env) {
  // The destination modifiable identifies this instance; keying output
  // cells with it keeps simultaneous maps over the same list apart.
  return RT.readTail<&mapGot>(Src, Dst, Fn, Env, toWord(Dst));
}

Closure *apps::filterCore(Runtime &RT, Modref *Src, Modref *Dst, PredFn Pred,
                          Word Env) {
  return RT.readTail<&filterGot>(Src, Dst, Pred, Env, toWord(Dst));
}

Closure *apps::reverseCore(Runtime &RT, Modref *Src, Modref *Dst) {
  return RT.readTail<&reverseGot>(Src, static_cast<Cell *>(nullptr), Dst);
}

Closure *apps::reduceCore(Runtime &RT, Modref *Src, Modref *Dst, CombineFn Fn,
                          Word Env, Word Id) {
  Modref *VHead = RT.coreModref(Dst, 9);
  RT.callFn<&convEnter>(Src, VHead, toWord(Dst));
  return RT.readTail<&rrGot>(VHead, Dst, Fn, Env, Id, Word(0));
}

Closure *apps::quicksortCore(Runtime &RT, Modref *Src, Modref *Dst,
                             CmpFn Cmp) {
  return RT.readTail<&qsGot>(Src, Dst, static_cast<Cell *>(nullptr), Cmp);
}

Closure *apps::mergesortCore(Runtime &RT, Modref *Src, Modref *Dst,
                             CmpFn Cmp) {
  return RT.readTail<&msGot>(Src, Dst, Cmp, Word(0));
}

//===----------------------------------------------------------------------===//
// Mutator-side helpers
//===----------------------------------------------------------------------===//

ListHandle apps::buildList(Runtime &RT, const std::vector<Word> &Values) {
  ListHandle L;
  L.Head = RT.modref<Cell *>(nullptr);
  L.Cells.reserve(Values.size());
  Modref *Cur = L.Head;
  for (Word V : Values) {
    auto *C = static_cast<Cell *>(RT.metaAlloc(sizeof(Cell)));
    C->Head = V;
    // Lineage root: the cell's construction index. Deterministic given
    // the input sequence, so every derived identity — and every coin —
    // is a pure function of the input, independent of placement.
    C->Id = hashPair(0x9e3779b97f4a7c15ULL, L.Cells.size());
    C->Tail = RT.modref<Cell *>(nullptr);
    RT.modifyT(Cur, C);
    L.Cells.push_back(C);
    Cur = C->Tail;
  }
  return L;
}

void apps::detachCell(Runtime &RT, ListHandle &L, size_t Index) {
  assert(Index < L.Cells.size() && "detach out of range");
  Cell *Next = RT.derefT<Cell *>(L.Cells[Index]->Tail);
  RT.modifyT(L.tailRefBefore(Index), Next);
}

void apps::reattachCell(Runtime &RT, ListHandle &L, size_t Index) {
  assert(Index < L.Cells.size() && "reattach out of range");
  RT.modifyT(L.tailRefBefore(Index), L.Cells[Index]);
}

std::vector<Word> apps::readList(Runtime &RT, Modref *Head) {
  std::vector<Word> Result;
  for (auto *C = RT.derefT<Cell *>(Head); C; C = RT.derefT<Cell *>(C->Tail))
    Result.push_back(C->Head);
  return Result;
}
