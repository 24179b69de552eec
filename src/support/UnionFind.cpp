//===- support/UnionFind.cpp ----------------------------------------------===//

#include "support/UnionFind.h"

using namespace fcc;

void UnionFind::grow(unsigned NumElements) {
  assert(NumElements >= Parent.size() && "UnionFind cannot shrink");
  unsigned Old = size();
  Parent.resize(NumElements);
  Size.resize(NumElements, 1);
  for (unsigned I = Old; I < NumElements; ++I)
    Parent[I] = I;
}

unsigned UnionFind::find(unsigned X) {
  assert(X < Parent.size() && "find() out of range");
  while (Parent[X] != X) {
    Parent[X] = Parent[Parent[X]]; // Path halving.
    X = Parent[X];
  }
  return X;
}

unsigned UnionFind::findConst(unsigned X) const {
  assert(X < Parent.size() && "findConst() out of range");
  while (Parent[X] != X)
    X = Parent[X];
  return X;
}

unsigned UnionFind::unite(unsigned A, unsigned B) {
  A = find(A);
  B = find(B);
  if (A == B)
    return A;
  if (Size[A] < Size[B])
    std::swap(A, B);
  Parent[B] = A;
  Size[A] += Size[B];
  return A;
}

LinkEvalForest::LinkEvalForest(unsigned NumVertices, const unsigned *Keys)
    : Ancestor(NumVertices, kRoot), Label(NumVertices), Keys(Keys) {
  for (unsigned I = 0; I != NumVertices; ++I)
    Label[I] = I;
}

unsigned LinkEvalForest::eval(unsigned V) {
  assert(V < Ancestor.size() && "eval() out of range");
  unsigned A = Ancestor[V];
  if (A == kRoot)
    return V;
  if (Ancestor[A] != kRoot) {
    // Compress iteratively (linked paths can be as deep as the DFS tree).
    // Collect every vertex whose grandparent exists, bottom-up; then fold
    // labels top-down so each vertex inherits from an already-compressed
    // ancestor and ends up pointing directly below the root.
    Path.clear();
    for (unsigned X = V; Ancestor[Ancestor[X]] != kRoot; X = Ancestor[X])
      Path.push_back(X);
    for (size_t I = Path.size(); I-- != 0;) {
      unsigned X = Path[I];
      unsigned Up = Ancestor[X]; // Already compressed: child of the root.
      if (Keys[Label[Up]] < Keys[Label[X]])
        Label[X] = Label[Up];
      Ancestor[X] = Ancestor[Up];
    }
  }
  return Label[V];
}
