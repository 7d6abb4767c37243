// Backend selection + public kernel entry points for the SIMD layer.
//
// Selection is resolved once (relaxed-atomic memo) so the hot path pays
// one load + switch. The env override exists for operators chasing a
// suspected kernel bug in the field: DWATCH_SIMD=off reruns the exact
// legacy scalar path with zero rebuild.
#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <string_view>

#include "linalg/simd_detail.hpp"
#include "linalg/simd_kernels.hpp"
#include "obs/event_log.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"

namespace dwatch::linalg::simd {

namespace {

// -1 = unset; otherwise a Backend value.
std::atomic<int> g_override{-1};
std::atomic<int> g_active{-1};

Backend clamp_supported(Backend requested) noexcept {
  switch (requested) {
    case Backend::kAvx2:
#if DWATCH_SIMD_X86
      if (detail::avx2_available()) return Backend::kAvx2;
#endif
      return Backend::kScalar;
    case Backend::kScalar:
      break;
  }
  return Backend::kScalar;
}

Backend resolve() noexcept {
  const detail::EnvRequest env =
      detail::parse_env(std::getenv("DWATCH_SIMD"));
  if (env.forced_scalar) return Backend::kScalar;
  if (env.has_request) return clamp_supported(env.requested);
  return detected_backend();
}

}  // namespace

const char* backend_name(Backend backend) noexcept {
  switch (backend) {
    case Backend::kAvx2:
      return "avx2";
    case Backend::kScalar:
      break;
  }
  return "scalar";
}

bool compiled_with_simd() noexcept {
  return DWATCH_SIMD_X86 != 0;
}

Backend detected_backend() noexcept {
#if DWATCH_SIMD_X86
  if (detail::avx2_available()) return Backend::kAvx2;
#endif
  return Backend::kScalar;
}

Backend active_backend() noexcept {
  const int forced = g_override.load(std::memory_order_relaxed);
  if (forced >= 0) return static_cast<Backend>(forced);
  int cached = g_active.load(std::memory_order_relaxed);
  if (cached < 0) {
    // Benign race: resolve() is deterministic, so concurrent first
    // callers store the same value.
    cached = static_cast<int>(resolve());
    g_active.store(cached, std::memory_order_relaxed);
  }
  return static_cast<Backend>(cached);
}

void set_backend_override(Backend backend) noexcept {
  g_override.store(static_cast<int>(clamp_supported(backend)),
                   std::memory_order_relaxed);
}

void clear_backend_override() noexcept {
  g_override.store(-1, std::memory_order_relaxed);
}

void publish_backend() {
  if (!obs::enabled()) return;
  const Backend backend = active_backend();
  const char* name = backend_name(backend);
  std::string labels = "backend=\"";
  labels += name;
  labels += '"';
  obs::MetricsRegistry::global()
      .gauge("dwatch_simd_backend", labels)
      .set(static_cast<double>(static_cast<int>(backend)));
  obs::EventLog::global().emit(obs::Event("simd.dispatch")
                                   .field("backend", name)
                                   .field("compiled", compiled_with_simd())
                                   .field("detected",
                                          backend_name(detected_backend())));
}

namespace detail {

EnvRequest parse_env(const char* value) noexcept {
  EnvRequest out;
  if (value == nullptr) return out;
  const std::string_view v(value);
  if (v == "off" || v == "OFF" || v == "scalar" || v == "0") {
    out.forced_scalar = true;
  } else if (v == "avx2" || v == "AVX2") {
    out.has_request = true;
    out.requested = Backend::kAvx2;
  }
  // Anything else (including "auto" and "") falls through to detection.
  return out;
}

}  // namespace detail

std::vector<double> batched_quadratic_form(const CMatrix& r,
                                           const SplitComplexMatrix& a) {
  if (r.rows() != r.cols() || r.rows() != a.rows()) {
    throw std::invalid_argument("batched_quadratic_form: dimension mismatch");
  }
  std::vector<double> out(a.cols());
  if (out.empty()) return out;
  switch (active_backend()) {
#if DWATCH_SIMD_X86
    case Backend::kAvx2:
      detail::batched_quadratic_form_avx2(r, a, out.data());
      return out;
#endif
    default:
      detail::batched_quadratic_form_lanes(r, a, 0, a.cols(), out.data());
      return out;
  }
}

SplitComplexMatrix matmul_hermitian_left(const CMatrix& u,
                                         const SplitComplexMatrix& c) {
  if (u.rows() != c.rows()) {
    throw std::invalid_argument("matmul_hermitian_left: row mismatch");
  }
  SplitComplexMatrix out(u.cols(), c.cols());
  if (out.empty()) return out;
  switch (active_backend()) {
#if DWATCH_SIMD_X86
    case Backend::kAvx2:
      detail::matmul_hermitian_left_avx2(u, c, out);
      return out;
#endif
    default:
      detail::matmul_hermitian_left_lanes(u, c, 0, c.cols(), out);
      return out;
  }
}

std::vector<double> column_squared_norms(const SplitComplexMatrix& a) {
  std::vector<double> out(a.cols(), 0.0);
  if (out.empty()) return out;
  switch (active_backend()) {
#if DWATCH_SIMD_X86
    case Backend::kAvx2:
      detail::column_squared_norms_avx2(a, out.data());
      return out;
#endif
    default:
      detail::column_squared_norms_lanes(a, 0, a.cols(), out.data());
      return out;
  }
}

CMatrix sample_correlation(const SplitComplexMatrix& xt) {
  if (xt.rows() == 0 || xt.cols() == 0) {
    throw std::invalid_argument("sample_correlation: empty snapshot matrix");
  }
  CMatrix out(xt.cols(), xt.cols());
  switch (active_backend()) {
#if DWATCH_SIMD_X86
    case Backend::kAvx2:
      detail::sample_correlation_avx2(xt, out);
      return out;
#endif
    default:
      detail::sample_correlation_lanes(xt, 0, xt.cols(), out);
      return out;
  }
}

void accumulate_outer_products(const SplitComplexMatrix& xt,
                               SplitComplexMatrix& acc) {
  if (xt.rows() == 0 || xt.cols() == 0) {
    throw std::invalid_argument(
        "accumulate_outer_products: empty snapshot chunk");
  }
  if (acc.rows() != xt.cols() || acc.cols() != xt.cols()) {
    throw std::invalid_argument(
        "accumulate_outer_products: accumulator shape mismatch");
  }
  switch (active_backend()) {
#if DWATCH_SIMD_X86
    case Backend::kAvx2:
      detail::accumulate_outer_products_avx2(xt, acc);
      return;
#endif
    default:
      detail::accumulate_outer_products_lanes(xt, 0, xt.cols(), acc);
      return;
  }
}

}  // namespace dwatch::linalg::simd
