//===- kernels/KernelRegistry.cpp - SpMV kernel library -------------------===//
//
// Part of the SMAT reproduction project.
//
//===----------------------------------------------------------------------===//

#include "kernels/KernelRegistry.h"

using namespace smat;

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
