//===- kernels/KernelRegistry.cpp - SpMV kernel library -------------------===//
//
// Part of the SMAT reproduction project.
//
//===----------------------------------------------------------------------===//

#include "kernels/KernelRegistry.h"

#include "support/Compiler.h"

using namespace smat;

const char *smat::optStrategyName(unsigned Bit) {
  switch (Bit) {
  case 0:
    return "unroll";
  case 1:
    return "simd";
  case 2:
    return "prefetch";
  case 3:
    return "branchfree";
  case 4:
    return "interchange";
  case 5:
    return "loadbalance";
  }
  smatUnreachable("invalid optimization strategy bit");
}

std::string smat::optFlagsString(unsigned Flags) {
  if (Flags == OptNone)
    return "basic";
  std::string Out;
  for (unsigned Bit = 0; Bit < NumOptStrategies; ++Bit) {
    if (!(Flags & (1u << Bit)))
      continue;
    if (!Out.empty())
      Out += '+';
    Out += optStrategyName(Bit);
  }
  return Out;
}

template <typename T> const KernelTable<T> &smat::kernelTable() {
  static const KernelTable<T> Table = [] {
    KernelTable<T> Built;
    Built.Csr = makeCsrKernels<T>();
    Built.Coo = makeCooKernels<T>();
    Built.Dia = makeDiaKernels<T>();
    Built.Ell = makeEllKernels<T>();
    Built.Bsr = makeBsrKernels<T>();
    Built.CsrSpmm = makeCsrSpmmKernels<T>();
    Built.CooSpmm = makeCooSpmmKernels<T>();
    Built.DiaSpmm = makeDiaSpmmKernels<T>();
    Built.EllSpmm = makeEllSpmmKernels<T>();
    return Built;
  }();
  return Table;
}

template const KernelTable<float> &smat::kernelTable<float>();
template const KernelTable<double> &smat::kernelTable<double>();
