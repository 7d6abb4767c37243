#include "core/streaming.hpp"

#include <complex>
#include <stdexcept>

#include "linalg/simd_kernels.hpp"

namespace dwatch::core {

IncrementalCovariance::IncrementalCovariance(std::size_t num_elements)
    : m_(num_elements), sum_(num_elements, num_elements) {
  if (num_elements == 0) {
    throw std::invalid_argument("IncrementalCovariance: M == 0");
  }
}

void IncrementalCovariance::accumulate(const linalg::CMatrix& snapshots) {
  if (snapshots.rows() != m_) {
    throw std::invalid_argument(
        "IncrementalCovariance: snapshot row mismatch");
  }
  if (snapshots.cols() == 0) {
    throw std::invalid_argument("IncrementalCovariance: empty chunk");
  }
  namespace simd = linalg::simd;
  if (simd::active_backend() != simd::Backend::kScalar) {
    simd::accumulate_outer_products(
        linalg::SplitComplexMatrix::from_matrix_transposed(snapshots), sum_);
  } else {
    // Scalar backend: replay the legacy complex-op chain of
    // core::sample_correlation, resuming each (i, j) partial sum from
    // the accumulator (x * conj(w) rounds identically to the SoA
    // kernel's decomposition; see simd_detail.hpp).
    const std::size_t n = snapshots.cols();
    for (std::size_t i = 0; i < m_; ++i) {
      for (std::size_t j = 0; j < m_; ++j) {
        linalg::Complex sum = sum_.at(i, j);
        for (std::size_t k = 0; k < n; ++k) {
          sum += snapshots(i, k) * std::conj(snapshots(j, k));
        }
        sum_.set(i, j, sum);
      }
    }
  }
  num_snapshots_ += snapshots.cols();
}

linalg::CMatrix IncrementalCovariance::correlation() const {
  if (num_snapshots_ == 0) {
    throw std::logic_error(
        "IncrementalCovariance: correlation() before accumulate()");
  }
  const double n_d = static_cast<double>(num_snapshots_);
  linalg::CMatrix r(m_, m_);
  for (std::size_t i = 0; i < m_; ++i) {
    for (std::size_t j = 0; j < m_; ++j) {
      r(i, j) = sum_.at(i, j) / n_d;
    }
  }
  return r;
}

void IncrementalCovariance::reset() {
  sum_ = linalg::SplitComplexMatrix(m_, m_);
  num_snapshots_ = 0;
}

}  // namespace dwatch::core
