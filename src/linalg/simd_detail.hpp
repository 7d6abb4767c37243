// INTERNAL header for the SIMD kernel layer — not part of the linalg
// API. Shared between simd_dispatch.cpp and the per-architecture
// translation unit (simd_avx2.cpp).
//
// The lane-range functions below are the rounding-sequence ground
// truth: they spell out, lane by lane, the exact mul/add/sub order the
// legacy std::complex kernels produce (see the equivalence notes at
// each kernel). The scalar backend runs them over the full lane range;
// the AVX2 backend runs its main loop on whole vectors and calls
// these for the odd tail — so a tail lane and a vector lane compute
// identical bits by construction.
#pragma once

#include <cstddef>

#include "linalg/complex_matrix.hpp"
#include "linalg/soa_complex.hpp"

#ifndef DWATCH_SIMD_ENABLED
#define DWATCH_SIMD_ENABLED 1
#endif

#if DWATCH_SIMD_ENABLED && (defined(__x86_64__) || defined(__i386__))
#define DWATCH_SIMD_X86 1
#else
#define DWATCH_SIMD_X86 0
#endif

namespace dwatch::linalg::simd::detail {

// ---- lane-exact scalar kernels (half-open lane range [g0, g1)) ----
//
// Rounding equivalences used throughout (IEEE-754, round-to-nearest):
//   x - (-y)  rounds the exact value x + y   =>  same bits as x + y
//   (-x) + y  rounds the exact value y - x   =>  same bits as y - x
// so conj-multiplies can be written FMA-free with plain mul/add/sub in
// the order below and still match libstdc++'s complex operator*.

/// out[g] = Re(a_g^H R a_g), lanes [g0, g1). Mirrors
/// linalg::batched_quadratic_form: y = R a_g accumulated col-inner,
/// then quad += conj(a(row)) * y[row] row-by-row (fused here — y[row]
/// does not depend on later rows, so fusing preserves every bit).
inline void batched_quadratic_form_lanes(const CMatrix& r,
                                         const SplitComplexMatrix& a,
                                         std::size_t g0, std::size_t g1,
                                         double* out) {
  const std::size_t m = r.rows();
  for (std::size_t g = g0; g < g1; ++g) {
    double quad_re = 0.0;
    double quad_im = 0.0;
    for (std::size_t row = 0; row < m; ++row) {
      double y_re = 0.0;
      double y_im = 0.0;
      for (std::size_t col = 0; col < m; ++col) {
        const double rr = r(row, col).real();
        const double ri = r(row, col).imag();
        const double ar = a.re_row(col)[g];
        const double ai = a.im_row(col)[g];
        // (rr + i ri)(ar + i ai): libstdc++ order re = rr*ar - ri*ai,
        // im = rr*ai + ri*ar, then complex += adds componentwise.
        y_re += rr * ar - ri * ai;
        y_im += rr * ai + ri * ar;
      }
      const double cr = a.re_row(row)[g];
      const double ci = a.im_row(row)[g];
      // conj(c) * y = (cr - i ci)(y_re + i y_im):
      //   re = cr*y_re - (-ci)*y_im  ==  cr*y_re + ci*y_im
      //   im = cr*y_im + (-ci)*y_re  ==  cr*y_im - ci*y_re
      quad_re += cr * y_re + ci * y_im;
      quad_im += cr * y_im - ci * y_re;
    }
    (void)quad_im;  // oracle returns quad.real()
    out[g] = quad_re;
  }
}

/// out = U^H C restricted to lanes [g0, g1). Mirrors
/// linalg::matmul_hermitian_left including the k-outer loop and the
/// conj(u(k,p)) == 0 skip (the comparison ignores zero sign, so
/// testing the unconjugated element is equivalent).
inline void matmul_hermitian_left_lanes(const CMatrix& u,
                                        const SplitComplexMatrix& c,
                                        std::size_t g0, std::size_t g1,
                                        SplitComplexMatrix& out) {
  for (std::size_t k = 0; k < u.rows(); ++k) {
    const double* c_re = c.re_row(k);
    const double* c_im = c.im_row(k);
    for (std::size_t p = 0; p < u.cols(); ++p) {
      const double ur = u(k, p).real();
      const double ui = u(k, p).imag();
      if (ur == 0.0 && ui == 0.0) continue;
      double* o_re = out.re_row(p);
      double* o_im = out.im_row(p);
      for (std::size_t g = g0; g < g1; ++g) {
        // conj(u) * c = (ur - i ui)(cr + i ci):
        //   re = ur*cr - (-ui)*ci  ==  ur*cr + ui*ci
        //   im = ur*ci + (-ui)*cr  ==  ur*ci - ui*cr
        o_re[g] += ur * c_re[g] + ui * c_im[g];
        o_im[g] += ur * c_im[g] - ui * c_re[g];
      }
    }
  }
}

/// out[g] = sum_r |a(r,g)|^2, lanes [g0, g1). Mirrors
/// linalg::column_squared_norms (row-outer accumulation; std::norm is
/// re*re + im*im).
inline void column_squared_norms_lanes(const SplitComplexMatrix& a,
                                       std::size_t g0, std::size_t g1,
                                       double* out) {
  for (std::size_t g = g0; g < g1; ++g) out[g] = 0.0;
  for (std::size_t r = 0; r < a.rows(); ++r) {
    const double* re = a.re_row(r);
    const double* im = a.im_row(r);
    for (std::size_t g = g0; g < g1; ++g) {
      out[g] += re[g] * re[g] + im[g] * im[g];
    }
  }
}

/// out(i, j) for j in [j0, j1), all i. `xt` is the transposed snapshot
/// matrix (rows = snapshots k, cols = elements). Mirrors
/// core::sample_correlation: sum_k x(i,k) * conj(x(j,k)), then one
/// componentwise divide by N.
inline void sample_correlation_lanes(const SplitComplexMatrix& xt,
                                     std::size_t j0, std::size_t j1,
                                     CMatrix& out) {
  const std::size_t n = xt.rows();
  const std::size_t m = xt.cols();
  const double n_d = static_cast<double>(n);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = j0; j < j1; ++j) {
      double s_re = 0.0;
      double s_im = 0.0;
      for (std::size_t k = 0; k < n; ++k) {
        const double a = xt.re_row(k)[i];
        const double b = xt.im_row(k)[i];
        const double c = xt.re_row(k)[j];
        const double d = xt.im_row(k)[j];
        // x * conj(w) = (a + i b)(c - i d):
        //   re = a*c - b*(-d)  ==  a*c + b*d
        //   im = a*(-d) + b*c  ==  b*c - a*d
        s_re += a * c + b * d;
        s_im += b * c - a * d;
      }
      out(i, j) = Complex{s_re / n_d, s_im / n_d};
    }
  }
}

/// acc(i, j) += sum_k x(i,k) * conj(x(j,k)) for j in [j0, j1), all i —
/// the streaming covariance update. Identical inner k-chain (ascending,
/// same mul/add/sub order) as sample_correlation_lanes, but the partial
/// sum RESUMES from the accumulator and there is no trailing divide:
/// chaining calls chunk-by-chunk therefore extends the exact addition
/// chain the batch kernel would produce over the concatenated
/// snapshots, and one divide at read time reproduces its bits.
inline void accumulate_outer_products_lanes(const SplitComplexMatrix& xt,
                                            std::size_t j0, std::size_t j1,
                                            SplitComplexMatrix& acc) {
  const std::size_t n = xt.rows();
  const std::size_t m = xt.cols();
  for (std::size_t i = 0; i < m; ++i) {
    double* a_re = acc.re_row(i);
    double* a_im = acc.im_row(i);
    for (std::size_t j = j0; j < j1; ++j) {
      double s_re = a_re[j];
      double s_im = a_im[j];
      for (std::size_t k = 0; k < n; ++k) {
        const double a = xt.re_row(k)[i];
        const double b = xt.im_row(k)[i];
        const double c = xt.re_row(k)[j];
        const double d = xt.im_row(k)[j];
        // x * conj(w), same decomposition as sample_correlation_lanes.
        s_re += a * c + b * d;
        s_im += b * c - a * d;
      }
      a_re[j] = s_re;
      a_im[j] = s_im;
    }
  }
}

// ---- per-architecture entry points ----
// Defined only in their own TU; dispatch guards calls with the macros
// above. Each writes the same bits as the lane functions.

#if DWATCH_SIMD_X86
[[nodiscard]] bool avx2_available() noexcept;
void batched_quadratic_form_avx2(const CMatrix& r, const SplitComplexMatrix& a,
                                 double* out);
void matmul_hermitian_left_avx2(const CMatrix& u, const SplitComplexMatrix& c,
                                SplitComplexMatrix& out);
void column_squared_norms_avx2(const SplitComplexMatrix& a, double* out);
void sample_correlation_avx2(const SplitComplexMatrix& xt, CMatrix& out);
void accumulate_outer_products_avx2(const SplitComplexMatrix& xt,
                                    SplitComplexMatrix& acc);
#endif

}  // namespace dwatch::linalg::simd::detail
