// Structure-of-arrays complex matrix: split re/im planes with aligned,
// padded rows — the vector-friendly twin of CMatrix.
//
// CMatrix stores std::complex<double> interleaved (re,im,re,im,...),
// which forces a shuffle-heavy deinterleave before any SIMD math. The
// spectral hot path (MUSIC Eq. 8 projection, P-MUSIC Eq. 13
// delay-and-sum, covariance accumulation) iterates one *lane* per grid
// column / array element, so storing the real and imaginary parts as two
// separate row-major planes lets a 4-wide AVX2 vector
// process 4 independent lanes with plain mul/add — no shuffles, no
// horizontal reductions, and per-lane operation order identical to the
// scalar code (the bit-identical-parity contract in simd_kernels.hpp).
//
// Layout guarantees:
//  * each plane row starts 64-byte aligned (rows are padded to a
//    multiple of 8 doubles), so unconditional vector loads at a row
//    start are aligned and loads up to the padded stride never touch
//    unowned memory;
//  * padding doubles are zero-initialized and kept zero by from_matrix,
//    so a kernel may compute garbage-free full vectors across the tail
//    as long as it never *stores through* past cols() into a
//    caller-visible result.
#pragma once

#include <cstddef>
#include <cstdlib>
#include <new>
#include <vector>

#include "linalg/complex_matrix.hpp"

namespace dwatch::linalg {

/// Minimal aligned allocator so the planes can live in a std::vector.
template <typename T, std::size_t Alignment>
struct AlignedAllocator {
  using value_type = T;
  /// Explicit rebind: the automatic allocator_traits rebind cannot see
  /// through the non-type Alignment parameter.
  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Alignment>;
  };
  AlignedAllocator() = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Alignment>&) noexcept {}

  [[nodiscard]] T* allocate(std::size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t{Alignment}));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    ::operator delete(p, n * sizeof(T), std::align_val_t{Alignment});
  }
  template <typename U>
  bool operator==(const AlignedAllocator<U, Alignment>&) const noexcept {
    return true;
  }
};

/// Split-plane (SoA) complex matrix. Immutable-by-convention once
/// filled: the SIMD kernels only read; construction is the only writer.
class SplitComplexMatrix {
 public:
  /// Row padding in doubles: 8 doubles = 64 bytes = one cache line and
  /// two AVX2 vectors, also a multiple of every smaller vector width.
  static constexpr std::size_t kPadDoubles = 8;
  static constexpr std::size_t kAlignment = 64;

  SplitComplexMatrix() = default;

  /// rows x cols, planes zero-initialized (including padding).
  SplitComplexMatrix(std::size_t rows, std::size_t cols);

  /// Split an interleaved CMatrix into planes (same orientation).
  [[nodiscard]] static SplitComplexMatrix from_matrix(const CMatrix& m);

  /// Split the TRANSPOSE of `m` into planes: result(r, c) == m(c, r).
  /// This is the snapshot adapter: an M x N snapshot matrix becomes an
  /// N x M plane pair whose row k holds x(0..M-1, k) contiguously, so
  /// covariance accumulation can vector-load across array elements.
  [[nodiscard]] static SplitComplexMatrix from_matrix_transposed(
      const CMatrix& m);

  /// Reassemble an interleaved CMatrix (padding dropped).
  [[nodiscard]] CMatrix to_matrix() const;

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  /// Doubles between consecutive rows of a plane; >= cols(), multiple
  /// of kPadDoubles.
  [[nodiscard]] std::size_t stride() const noexcept { return stride_; }
  [[nodiscard]] bool empty() const noexcept { return rows_ == 0 || cols_ == 0; }

  [[nodiscard]] const double* re_row(std::size_t r) const noexcept {
    return re_.data() + r * stride_;
  }
  [[nodiscard]] const double* im_row(std::size_t r) const noexcept {
    return im_.data() + r * stride_;
  }
  [[nodiscard]] double* re_row(std::size_t r) noexcept {
    return re_.data() + r * stride_;
  }
  [[nodiscard]] double* im_row(std::size_t r) noexcept {
    return im_.data() + r * stride_;
  }

  /// Convenience element access for tests/adapters (not a hot path).
  [[nodiscard]] Complex at(std::size_t r, std::size_t c) const {
    return Complex{re_row(r)[c], im_row(r)[c]};
  }
  void set(std::size_t r, std::size_t c, Complex v) {
    re_row(r)[c] = v.real();
    im_row(r)[c] = v.imag();
  }

 private:
  using Plane = std::vector<double, AlignedAllocator<double, kAlignment>>;

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::size_t stride_ = 0;
  Plane re_;
  Plane im_;
};

}  // namespace dwatch::linalg
