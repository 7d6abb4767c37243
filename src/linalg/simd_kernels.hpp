// Runtime-dispatched SIMD kernels for the spectral hot path.
//
// The scalar kernels in complex_matrix.cpp / covariance.cpp stay exactly
// as they are — they are the ORACLE. This layer provides vectorized
// twins that operate on the SoA layout (soa_complex.hpp) and promise:
//
//   bit-identical parity: for finite inputs, every kernel here returns
//   the same bits as its scalar oracle, on every backend. The trick is
//   lane parallelism across INDEPENDENT outputs (grid columns of the
//   manifold, entries of a covariance row): each SIMD lane replays the
//   oracle's accumulation order exactly, so no reassociation happens —
//   only replication. No FMA contraction is used (the linalg target is
//   built with -ffp-contract=off as insurance), and the complex
//   multiply is decomposed into the same mul/add/sub rounding sequence
//   libstdc++'s operator* produces. The one scalar behaviour NOT
//   replicated is the C99 NaN-recovery fixup (__muldc3) — it only fires
//   when a product is NaN, and no finite input reaches it.
//
// Backend selection happens ONCE per process (memoized), in priority
// order: test override > DWATCH_SIMD environment variable > cpuid-style
// detection. `DWATCH_SIMD=off` (or `scalar`) forces the scalar path;
// `DWATCH_SIMD=avx2` requests the AVX2 backend and falls back to
// scalar when the CPU or build cannot honour it; any other value falls
// through to detection. Compiling with
// -DDWATCH_SIMD=OFF (CMake) removes the vector code paths entirely and
// pins the backend to scalar.
//
// Call sites in core/ branch on active_backend(): the scalar backend
// routes through the UNTOUCHED legacy CMatrix code (so a SIMD-off build
// or DWATCH_SIMD=off run executes byte-for-byte the pre-SIMD hot path),
// while the AVX2 backend takes the SoA kernels below.
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/complex_matrix.hpp"
#include "linalg/soa_complex.hpp"

namespace dwatch::linalg::simd {

enum class Backend : int {
  kScalar = 0,
  kAvx2 = 1,
};

/// Stable lower-case name for logs/metrics ("scalar", "avx2").
[[nodiscard]] const char* backend_name(Backend backend) noexcept;

/// True when this binary was built with vector kernels compiled in
/// (CMake option DWATCH_SIMD=ON and a recognized architecture).
[[nodiscard]] bool compiled_with_simd() noexcept;

/// Best backend this CPU + build supports, ignoring env/override.
[[nodiscard]] Backend detected_backend() noexcept;

/// The backend every kernel call uses: override > DWATCH_SIMD env >
/// detected_backend(). Resolved once, then memoized (relaxed atomic);
/// safe to call from any thread.
[[nodiscard]] Backend active_backend() noexcept;

/// Test/bench hook: force a backend (bypasses env and detection).
/// Requesting an unsupported backend clamps to scalar.
void set_backend_override(Backend backend) noexcept;
void clear_backend_override() noexcept;

/// Record the selected backend in the obs layer: gauge
/// `dwatch_simd_backend` (numeric Backend value, labelled with the
/// name) and one `simd.dispatch` event line. No-op while
/// obs::enabled() is false. Idempotent; the pipeline calls it at
/// construction so fleet logs record which kernel path serves fixes.
void publish_backend();

/// q_i = Re(a_i^H R a_i) for every manifold column a_i (P-MUSIC Eq. 13
/// delay-and-sum power). R is m x m interleaved, `a` is the m x G SoA
/// manifold. Bit-identical to linalg::batched_quadratic_form.
[[nodiscard]] std::vector<double> batched_quadratic_form(
    const CMatrix& r, const SplitComplexMatrix& a);

/// B = U^H C without forming U^H (MUSIC Eq. 8 subspace projection).
/// U is m x p interleaved (noise subspace), C is the m x G SoA
/// manifold; result is p x G SoA. Bit-identical (including the
/// zero-skip) to linalg::matmul_hermitian_left.
[[nodiscard]] SplitComplexMatrix matmul_hermitian_left(
    const CMatrix& u, const SplitComplexMatrix& c);

/// n_j = sum_i |a_ij|^2 per SoA column. Bit-identical to
/// linalg::column_squared_norms.
[[nodiscard]] std::vector<double> column_squared_norms(
    const SplitComplexMatrix& a);

/// R = X X^H / N from a TRANSPOSED SoA snapshot matrix (rows =
/// snapshots, cols = array elements; see from_matrix_transposed).
/// Bit-identical to core::sample_correlation on the untransposed
/// matrix.
[[nodiscard]] CMatrix sample_correlation(const SplitComplexMatrix& xt);

/// acc += X X^H from a TRANSPOSED SoA snapshot chunk (rows = snapshots,
/// cols = elements) — the streaming rank-N covariance update behind
/// core::IncrementalCovariance. No divide happens here: the reader
/// divides the accumulated sum by the total snapshot count once, so
/// feeding chunks one at a time extends the exact addition chain
/// sample_correlation() would produce over the concatenated snapshots
/// and the final correlation is bit-identical to the batch kernel's.
/// Throws std::invalid_argument on an empty chunk or when `acc` is not
/// square with side == xt.cols().
void accumulate_outer_products(const SplitComplexMatrix& xt,
                               SplitComplexMatrix& acc);

namespace detail {
/// Pure parser for the DWATCH_SIMD environment value (exposed for unit
/// tests; the memoized active_backend() consults it once). nullptr /
/// "" / "auto" mean "use detection"; unrecognized values also fall
/// through to detection rather than failing startup.
struct EnvRequest {
  bool forced_scalar = false;  ///< "off" | "scalar" | "0"
  bool has_request = false;    ///< a specific backend was named
  Backend requested = Backend::kScalar;
};
[[nodiscard]] EnvRequest parse_env(const char* value) noexcept;
}  // namespace detail

}  // namespace dwatch::linalg::simd
