// Tests for the incremental spectral path (core/streaming.hpp): the
// chunk-accumulated covariance must be BIT-IDENTICAL to the batch
// sample_correlation over the concatenated snapshots, and so a tag's
// streamed drops must be bit-identical to the batch drops of all its
// reports this epoch.
#include "core/streaming.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstdint>
#include <string>
#include <vector>

#include "core/covariance.hpp"
#include "core/pipeline.hpp"
#include "linalg/complex_matrix.hpp"
#include "linalg/simd_kernels.hpp"
#include "rf/array.hpp"
#include "rf/constants.hpp"

namespace dwatch::core {
namespace {

constexpr double kSpacing = 0.163;
constexpr double kLambda = 2.0 * kSpacing;

/// 64-bit LCG (MMIX constants) — the golden-fixture generator, identical
/// on every platform.
struct Lcg {
  std::uint64_t state;
  explicit Lcg(std::uint64_t seed) : state(seed) {}
  double uniform() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<double>(state >> 11) * 0x1.0p-53;
  }
};

/// Two coherent sources + weak noise; `gain2` lets a sequence of epochs
/// evolve slowly (an occluder gradually attenuating the second path).
linalg::CMatrix fixture_snapshots(std::size_t num_elements,
                                  std::size_t num_snapshots,
                                  std::uint64_t seed, double gain2 = 0.45) {
  const double thetas[2] = {0.7, 1.9};
  const double amplitudes[2] = {1.0, gain2};
  Lcg lcg(seed);
  linalg::CMatrix x(num_elements, num_snapshots);
  for (std::size_t n = 0; n < num_snapshots; ++n) {
    const double symbol_phase = rf::kTwoPi * lcg.uniform();
    for (std::size_t m = 0; m < num_elements; ++m) {
      std::complex<double> v{0.0, 0.0};
      for (int k = 0; k < 2; ++k) {
        const double steer = rf::kTwoPi * kSpacing *
                             static_cast<double>(m) * std::cos(thetas[k]) /
                             kLambda;
        v += amplitudes[k] *
             std::complex<double>(std::cos(steer + symbol_phase),
                                  std::sin(steer + symbol_phase));
      }
      v += std::complex<double>(1e-3 * (lcg.uniform() - 0.5),
                                1e-3 * (lcg.uniform() - 0.5));
      x(m, n) = v;
    }
  }
  return x;
}

TEST(IncrementalCovariance, Validation) {
  EXPECT_THROW(IncrementalCovariance{0}, std::invalid_argument);
  IncrementalCovariance cov(4);
  EXPECT_EQ(cov.num_elements(), 4u);
  EXPECT_EQ(cov.num_snapshots(), 0u);
  EXPECT_THROW((void)cov.correlation(), std::logic_error);
  EXPECT_THROW(cov.accumulate(linalg::CMatrix(3, 5)),
               std::invalid_argument);
  EXPECT_THROW(cov.accumulate(linalg::CMatrix(4, 0)),
               std::invalid_argument);
}

TEST(IncrementalCovariance, ChunkedMatchesBatchBitForBit) {
  // The streaming contract: fold the epoch's snapshot chunks one by one
  // and the final correlation is BIT-identical to sample_correlation
  // over the concatenation — the raw sum continues the same addition
  // chain, division by N happens once at the read.
  const std::size_t m = 8;
  const std::size_t chunk_cols[] = {6, 1, 9, 16};
  std::size_t total = 0;
  for (const std::size_t c : chunk_cols) total += c;
  const linalg::CMatrix all = fixture_snapshots(m, total, 0xBEEF);

  IncrementalCovariance cov(m);
  std::size_t col = 0;
  for (const std::size_t c : chunk_cols) {
    cov.accumulate(all.block(0, col, m, c));
    col += c;
  }
  EXPECT_EQ(cov.num_snapshots(), total);

  const linalg::CMatrix batch = sample_correlation(all);
  const linalg::CMatrix streamed = cov.correlation();
  ASSERT_EQ(streamed.rows(), batch.rows());
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      EXPECT_EQ(streamed(i, j).real(), batch(i, j).real())
          << "(" << i << "," << j << ") re";
      EXPECT_EQ(streamed(i, j).imag(), batch(i, j).imag())
          << "(" << i << "," << j << ") im";
    }
  }
}

TEST(IncrementalCovariance, ResetStartsAFreshEpoch) {
  const linalg::CMatrix a = fixture_snapshots(4, 12, 1);
  const linalg::CMatrix b = fixture_snapshots(4, 12, 2);
  IncrementalCovariance cov(4);
  cov.accumulate(a);
  cov.reset();
  EXPECT_EQ(cov.num_snapshots(), 0u);
  cov.accumulate(b);
  const linalg::CMatrix direct = sample_correlation(b);
  EXPECT_NEAR(cov.correlation().max_abs_diff(direct), 0.0, 0.0);
}

/// Both backends worth testing on this machine: scalar always, plus the
/// detected vector backend when there is one.
std::vector<linalg::simd::Backend> backends_under_test() {
  namespace simd = linalg::simd;
  std::vector<simd::Backend> out{simd::Backend::kScalar};
  if (simd::detected_backend() != simd::Backend::kScalar) {
    out.push_back(simd::detected_backend());
  }
  return out;
}

/// Forces a SIMD backend for one scope, restoring the unforced state
/// after.
struct ScopedBackend {
  explicit ScopedBackend(linalg::simd::Backend b) {
    linalg::simd::set_backend_override(b);
  }
  ~ScopedBackend() { linalg::simd::clear_backend_override(); }
};

/// The streaming contract: the streamed drops of a tag are the batch
/// drops of everything it reported this epoch. After the last of a
/// tag's reports, however they were split, the streaming pipeline's
/// evidence equals a batch pipeline's observe() of the concatenated
/// snapshots, bit for bit, on every SIMD backend. Totals of 24 and 5
/// columns cover both sides of the low-snapshot widening threshold.
TEST(StreamingPipeline, DropsEqualBatchOverConcatenatedReports) {
  const std::vector<rf::UniformLinearArray> arrays{
      rf::UniformLinearArray({3.5, 0.15, 1.25}, {1, 0}, 8),
      rf::UniformLinearArray({0.15, 5.0, 1.25}, {0, 1}, 8)};
  const SearchBounds bounds{{0.0, 0.0}, {7.0, 10.0}};
  const std::vector<double> offsets{0.0, 0.3, -0.2, 0.5,
                                    0.1, -0.4, 0.25, -0.1};
  const rfid::Epc96 epc = rfid::Epc96::for_tag_index(1);
  // Two coherent paths; online the second is mostly blocked.
  const linalg::CMatrix baseline = fixture_snapshots(8, 16, 11);
  const std::vector<std::vector<std::size_t>> splits_by_total[] = {
      {{24}, {10, 14}, {3, 9, 12}},
      {{5}, {2, 3}, {1, 2, 2}},
  };
  for (const linalg::simd::Backend backend : backends_under_test()) {
    const ScopedBackend scope(backend);
    for (const auto& splits : splits_by_total) {
      std::size_t total = 0;
      for (const std::size_t c : splits.front()) total += c;
      const linalg::CMatrix online =
          fixture_snapshots(8, total, 12, /*gain2=*/0.1);

      DWatchPipeline batch(arrays, bounds);
      batch.set_calibration(0, offsets);
      batch.add_baseline(0, epc, baseline);
      batch.begin_epoch();
      batch.observe(0, epc, online);
      const std::vector<PathDrop>& want = batch.evidence()[0].drops;
      if (total >= DegradedModeOptions{}.min_snapshots) {
        ASSERT_FALSE(want.empty()) << "the blocked path must show a drop";
      }

      for (const std::vector<std::size_t>& split : splits) {
        PipelineOptions stream_options;
        stream_options.streaming.enabled = true;
        DWatchPipeline stream(arrays, bounds, stream_options);
        stream.set_calibration(0, offsets);
        stream.add_baseline(0, epc, baseline);
        stream.begin_epoch();
        std::size_t col = 0;
        for (const std::size_t c : split) {
          stream.observe(0, epc, online.block(0, col, 8, c));
          col += c;
        }
        const std::vector<PathDrop>& got = stream.evidence()[0].drops;
        const std::string where =
            std::string(linalg::simd::backend_name(backend)) + ", " +
            std::to_string(total) + " columns in " +
            std::to_string(split.size()) + " reports";
        ASSERT_EQ(got.size(), want.size()) << where;
        for (std::size_t i = 0; i < got.size(); ++i) {
          EXPECT_EQ(got[i].theta, want[i].theta) << where;
          EXPECT_EQ(got[i].drop_fraction, want[i].drop_fraction) << where;
          EXPECT_EQ(got[i].baseline_power, want[i].baseline_power) << where;
          EXPECT_EQ(got[i].online_power, want[i].online_power) << where;
          EXPECT_EQ(got[i].sigma_scale, want[i].sigma_scale) << where;
          EXPECT_EQ(got[i].source_id, want[i].source_id) << where;
        }
      }
    }
  }
}

}  // namespace
}  // namespace dwatch::core
