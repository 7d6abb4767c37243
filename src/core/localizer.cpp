#include "core/localizer.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "obs/trace.hpp"

namespace dwatch::core {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
/// Candidates closer than this to an array centre are degenerate.
constexpr double kMinArrayDistance = 0.25;
/// Widening of a term's bearing window: relative on the cutoff radius,
/// absolute on the angle and on its cosine. Each dwarfs the few-ulp
/// rounding of sqrt, cos, acos and the skip test it has to cover.
constexpr double kWindowRelMargin = 1e-6;
constexpr double kWindowAbsMargin = 1e-9;

}  // namespace

bool Localizer::candidate_order(const LocationEstimate& a,
                                const LocationEstimate& b) noexcept {
  if (a.likelihood != b.likelihood) return a.likelihood > b.likelihood;
  if (a.position.y != b.position.y) return a.position.y < b.position.y;
  return a.position.x < b.position.x;
}

LocationEstimate Localizer::select_max_likelihood(
    std::span<const LocationEstimate> candidates) noexcept {
  LocationEstimate best{};
  bool have = false;
  for (const LocationEstimate& c : candidates) {
    if (!have || candidate_order(c, best)) {
      best = c;
      have = true;
    }
  }
  return best;
}

Localizer::Localizer(std::vector<rf::UniformLinearArray> arrays,
                     SearchBounds bounds, LocalizerOptions options)
    : arrays_(std::move(arrays)), bounds_(bounds), options_(options) {
  if (arrays_.empty()) {
    throw std::invalid_argument("Localizer: no arrays");
  }
  if (!(bounds_.min.x < bounds_.max.x && bounds_.min.y < bounds_.max.y)) {
    throw std::invalid_argument("Localizer: degenerate bounds");
  }
  if (options_.grid_step <= 0.0 || options_.kernel_sigma <= 0.0) {
    throw std::invalid_argument("Localizer: bad step/sigma");
  }
  inv_2s2_ = 1.0 / (2.0 * options_.kernel_sigma * options_.kernel_sigma);
  // epsilon + e rounds to epsilon for every e in [0, h), h half the gap
  // to the next larger double. A term is skipped only when it is below
  // h / 8; the factor 8 covers the rounding of exp, log and the product.
  const double eps = options_.epsilon;
  const double next = std::nextafter(eps, kInf);
  const double floor = (next - eps) / 2.0 / 8.0;
  if (std::isfinite(eps) && std::isfinite(next) &&
      floor >= std::numeric_limits<double>::min()) {
    log_floor_ = std::log(floor);
  }
}

double Localizer::effective_grid_step() const noexcept {
  // Stride 1 returns the configured step VERBATIM (no arithmetic) so
  // the un-browned path is bit-identical by construction.
  if (grid_stride_ == 1) return options_.grid_step;
  return options_.grid_step * static_cast<double>(grid_stride_);
}

double Localizer::global_drop_norm(
    std::span<const AngularEvidence> evidence) {
  double norm = 0.0;
  for (const auto& e : evidence) {
    // An excluded array contributes nothing anywhere — including to the
    // normalizer. A poisoned-but-excluded drop must not rescale the
    // healthy arrays' weights.
    if (e.excluded) continue;
    for (const PathDrop& d : e.drops) {
      norm = std::max(norm, d.baseline_power - d.online_power);
    }
  }
  return norm;
}

Localizer::ArrayKernel Localizer::prepare_array(
    const AngularEvidence& evidence, double norm, double log_floor) const {
  ArrayKernel k;
  k.usable = evidence.usable();
  k.terms.reserve(evidence.drops.size());
  for (const PathDrop& d : evidence.drops) {
    KernelTerm t;
    t.theta = d.theta;
    // sigma_scale > 1 widens the kernel of a low-confidence drop
    // (degraded snapshot count); the division by 1.0 on the clean path
    // is exact, so healthy runs are bit-identical.
    t.inv = inv_2s2_ / (d.sigma_scale * d.sigma_scale);
    // A non-positive norm means no evidence at all (weight stays 0).
    if (!(norm <= 0.0)) {
      const double power_drop =
          std::max(d.baseline_power - d.online_power, 0.0);
      t.weight = std::pow(power_drop / norm, options_.power_exponent);
    }
    k.terms.push_back(t);
  }
  // A term of weight NaN, 0 or below is NaN or <= 0 at every bearing and
  // can never raise the evidence above its initial 0.
  const auto first_unweighted = std::stable_partition(
      k.terms.begin(), k.terms.end(),
      [](const KernelTerm& t) { return t.weight > 0.0; });
  std::stable_sort(k.terms.begin(), first_unweighted,
                   [](const KernelTerm& a, const KernelTerm& b) {
                     return a.weight > b.weight;
                   });
  k.weighted = static_cast<std::size_t>(first_unweighted - k.terms.begin());

  std::vector<CosineWindow> windows;
  for (std::size_t i = 0; i < k.weighted; ++i) {
    KernelTerm& t = k.terms[i];
    CosineWindow window{-kInf, kInf};
    // The cutoff argument needs weight <= 1 (always so with the global
    // norm and a non-negative exponent); heavier terms are never skipped.
    if (t.weight <= 1.0) {
      const double margin = std::log(t.weight) - log_floor;
      if (margin <= 0.0) {
        t.cutoff = kInf;  // weight itself is below the floor
        continue;
      }
      t.cutoff = -margin;
      // The term is skipped when delta^2 * inv > margin, i.e. outside
      // theta +/- r. Map that interval, widened, into cosine space. The
      // margins only cover rounding where r, margin and inv are finite
      // normals and theta is near [0, pi]; elsewhere the window is all.
      const double r = std::sqrt(margin / t.inv);
      if (std::isfinite(r) && margin >= std::numeric_limits<double>::min() &&
          t.inv >= std::numeric_limits<double>::min() &&
          std::abs(t.theta) <= rf::kTwoPi) {
        const double reach = r * (1.0 + kWindowRelMargin) + kWindowAbsMargin;
        const double lo_theta = t.theta - reach;
        const double hi_theta = t.theta + reach;
        // acos is decreasing with slope magnitude >= 1, so a cosine
        // kWindowAbsMargin beyond cos(bound) is a bearing beyond bound.
        if (lo_theta > 0.0) window.hi = std::cos(lo_theta) + kWindowAbsMargin;
        if (hi_theta < rf::kPi) {
          window.lo = std::cos(hi_theta) - kWindowAbsMargin;
        }
      }
    }
    windows.push_back(window);
  }
  std::sort(windows.begin(), windows.end(),
            [](const CosineWindow& a, const CosineWindow& b) {
              return a.lo < b.lo;
            });
  for (const CosineWindow& w : windows) {
    if (!k.windows.empty() && w.lo <= k.windows.back().hi) {
      k.windows.back().hi = std::max(k.windows.back().hi, w.hi);
    } else {
      k.windows.push_back(w);
    }
  }
  return k;
}

Localizer::Kernel Localizer::prepare(std::span<const AngularEvidence> evidence,
                                     double norm) const {
  if (evidence.size() != arrays_.size()) {
    throw std::invalid_argument("Localizer: evidence count mismatch");
  }
  Kernel kernel;
  kernel.arrays.resize(arrays_.size());
  for (std::size_t i = 0; i < arrays_.size(); ++i) {
    if (evidence[i].usable()) {
      kernel.arrays[i] = prepare_array(evidence[i], norm, log_floor_);
    }
  }
  return kernel;
}

double Localizer::ArrayKernel::evidence(double theta) const {
  // MAX-combine across drops: several drops at one bearing are usually
  // one physical blockage seen through several tags' spectra (or one
  // reflector's ghost), so they must not pile up additively — otherwise
  // a cluster of weak reflection-path ghosts outvotes one honest
  // direct-path drop.
  double best = 0.0;
  for (std::size_t i = 0; i < weighted; ++i) {
    const KernelTerm& t = terms[i];
    // Weight-descending and exp(-x) <= 1 for x >= 0: no term from here
    // on can exceed best.
    if (t.weight <= best) break;
    const double delta = theta - t.theta;
    const double arg = -delta * delta * t.inv;
    if (arg < t.cutoff) continue;
    best = std::max(best, t.weight * std::exp(arg));
  }
  return best;
}

double Localizer::ArrayKernel::evidence_at_cosine(double cosine) const {
  for (const CosineWindow& w : windows) {
    if (cosine < w.lo) break;
    if (cosine <= w.hi) return evidence(std::acos(cosine));
  }
  return 0.0;
}

double Localizer::evidence_at(const AngularEvidence& evidence, double theta,
                              double norm) const {
  return prepare_array(evidence, norm, -kInf).evidence(theta);
}

std::size_t Localizer::arrays_with_evidence(
    std::span<const AngularEvidence> evidence) const {
  std::size_t n = 0;
  for (const auto& e : evidence) {
    if (e.usable()) ++n;
  }
  return n;
}

std::size_t Localizer::effective_min_arrays(
    std::span<const AngularEvidence> evidence) const {
  // K-of-N degraded mode: excluded arrays shrink the consensus
  // requirement down to the surviving array count (never below 1), so a
  // deployment that loses a reader keeps producing fixes. With no
  // exclusions this is exactly options_.min_arrays — the clean path is
  // untouched.
  std::size_t excluded = 0;
  for (const auto& e : evidence) {
    if (e.excluded) ++excluded;
  }
  if (excluded == 0) return options_.min_arrays;
  const std::size_t active = evidence.size() - excluded;
  return std::min(options_.min_arrays, std::max<std::size_t>(1, active));
}

bool Localizer::too_close_to_array(rf::Vec2 point) const {
  // A candidate sitting (nearly) on an array is geometrically degenerate
  // (its bearing is undefined, every evidence kernel matches something)
  // and physically impossible for a target.
  for (const auto& a : arrays_) {
    const rf::Vec2 c = a.center().xy();
    // sqrt(dx^2 + dy^2) >= max(|dx|, |dy|) also in IEEE arithmetic, so
    // the distance only needs computing when both legs are short.
    if (std::abs(point.x - c.x) >= kMinArrayDistance ||
        std::abs(point.y - c.y) >= kMinArrayDistance) {
      continue;
    }
    if (rf::distance(point, c) < kMinArrayDistance) return true;
  }
  return false;
}

double Localizer::likelihood(const Kernel& kernel, rf::Vec2 point) const {
  if (too_close_to_array(point)) return 0.0;
  double l = 1.0;
  for (std::size_t i = 0; i < arrays_.size(); ++i) {
    // Silent reader: no information. Excluded reader: flagged unusable
    // (degraded mode) — also contributes nothing.
    const ArrayKernel& a = kernel.arrays[i];
    if (!a.usable) continue;
    l *= options_.epsilon +
         a.evidence_at_cosine(arrays_[i].arrival_cosine_planar(point));
  }
  return l;
}

double Localizer::likelihood_at(
    rf::Vec2 point, std::span<const AngularEvidence> evidence) const {
  return likelihood_at(point, evidence, global_drop_norm(evidence));
}

double Localizer::likelihood_at(rf::Vec2 point,
                                std::span<const AngularEvidence> evidence,
                                double norm) const {
  return likelihood(prepare(evidence, norm), point);
}

std::size_t Localizer::consensus_at(rf::Vec2 point,
                                    const Kernel& kernel) const {
  // Consensus is about ANGULAR agreement, not power: an array supports a
  // candidate iff one of its drops points at it (kernel proximity),
  // whatever that drop's strength. Power weighting then ranks candidates
  // WITHIN a consensus level via the likelihood.
  if (too_close_to_array(point)) return 0;
  std::size_t n = 0;
  for (std::size_t i = 0; i < arrays_.size(); ++i) {
    const ArrayKernel& a = kernel.arrays[i];
    if (!a.usable) continue;
    const double theta = arrays_[i].arrival_angle_planar(point);
    double best = 0.0;
    for (const KernelTerm& t : a.terms) {
      const double delta = theta - t.theta;
      best = std::max(best, std::exp(-delta * delta * t.inv));
    }
    if (best >= options_.consensus_floor) ++n;
  }
  return n;
}

std::vector<LocationEstimate> Localizer::grid_candidates(
    const Kernel& kernel) const {
  const LikelihoodGrid grid = likelihood_grid(kernel);
  std::vector<LocationEstimate> candidates;
  for (std::size_t iy = 0; iy < grid.ny; ++iy) {
    for (std::size_t ix = 0; ix < grid.nx; ++ix) {
      const double v = grid.at(ix, iy);
      bool is_max = true;
      for (int dy = -1; dy <= 1 && is_max; ++dy) {
        for (int dx = -1; dx <= 1 && is_max; ++dx) {
          if (dx == 0 && dy == 0) continue;
          const auto jx = static_cast<std::ptrdiff_t>(ix) + dx;
          const auto jy = static_cast<std::ptrdiff_t>(iy) + dy;
          if (jx < 0 || jy < 0 ||
              jx >= static_cast<std::ptrdiff_t>(grid.nx) ||
              jy >= static_cast<std::ptrdiff_t>(grid.ny)) {
            continue;
          }
          if (grid.at(static_cast<std::size_t>(jx),
                      static_cast<std::size_t>(jy)) > v) {
            is_max = false;
          }
        }
      }
      if (is_max) {
        candidates.push_back(
            LocationEstimate{grid.point(ix, iy), v, 0, false});
      }
    }
  }
  std::sort(candidates.begin(), candidates.end(), candidate_order);
  return candidates;
}

std::vector<LocationEstimate> Localizer::hill_climb_candidates(
    const Kernel& kernel) const {
  DWATCH_SPAN("localize.hill_climb");
  // Multi-start: coarse seed lattice, then 8-neighbour ascent on the
  // fine grid (the paper's hill climbing). Produces one candidate per
  // distinct basin reached.
  const double step = effective_grid_step();
  const std::size_t starts =
      std::max<std::size_t>(options_.hill_climb_starts, 4);
  const auto per_side = static_cast<std::size_t>(
      std::ceil(std::sqrt(static_cast<double>(starts))));

  std::vector<LocationEstimate> candidates;
  for (std::size_t sy = 0; sy < per_side; ++sy) {
    for (std::size_t sx = 0; sx < per_side; ++sx) {
      rf::Vec2 p{
          bounds_.min.x + (bounds_.max.x - bounds_.min.x) *
                              (static_cast<double>(sx) + 0.5) /
                              static_cast<double>(per_side),
          bounds_.min.y + (bounds_.max.y - bounds_.min.y) *
                              (static_cast<double>(sy) + 0.5) /
                              static_cast<double>(per_side)};
      double l = likelihood(kernel, p);
      bool moved = true;
      while (moved) {
        moved = false;
        for (int dy = -1; dy <= 1; ++dy) {
          for (int dx = -1; dx <= 1; ++dx) {
            if (dx == 0 && dy == 0) continue;
            const rf::Vec2 q{p.x + dx * step, p.y + dy * step};
            if (!bounds_.contains(q)) continue;
            const double lq = likelihood(kernel, q);
            if (lq > l) {
              l = lq;
              p = q;
              moved = true;
            }
          }
        }
      }
      const bool dup = std::any_of(
          candidates.begin(), candidates.end(),
          [&](const LocationEstimate& c) {
            return rf::distance(c.position, p) < step * 1.5;
          });
      if (!dup) candidates.push_back(LocationEstimate{p, l, 0, false});
    }
  }
  std::sort(candidates.begin(), candidates.end(), candidate_order);
  return candidates;
}

std::vector<LocationEstimate> Localizer::search_candidates(
    const Kernel& kernel) const {
  return options_.hill_climbing ? hill_climb_candidates(kernel)
                                : grid_candidates(kernel);
}

LocationEstimate Localizer::consensus_select(
    std::vector<LocationEstimate> candidates,
    std::span<const AngularEvidence> evidence, double norm,
    std::size_t min_arrays) const {
  return consensus_select(std::move(candidates), prepare(evidence, norm),
                          min_arrays);
}

LocationEstimate Localizer::consensus_select(
    std::vector<LocationEstimate> candidates, const Kernel& kernel,
    std::size_t min_arrays) const {
  // Rank by the total order BEFORE the cap: which 24 get scored must
  // not depend on the order restarts (or a caller) produced them in.
  std::sort(candidates.begin(), candidates.end(), candidate_order);
  LocationEstimate best{};
  const std::size_t limit = std::min(candidates.size(), kMaxCandidates);
  for (std::size_t i = 0; i < limit; ++i) {
    LocationEstimate c = candidates[i];
    c.consensus = consensus_at(c.position, kernel);
    // Scanning in candidate_order means the first candidate at any
    // consensus level is already the best-ranked one — a strict
    // consensus improvement is the only reason to switch.
    if (c.consensus > best.consensus ||
        (c.consensus == best.consensus && c.likelihood > best.likelihood)) {
      best = c;
    }
  }
  best.valid = best.consensus >= min_arrays;
  return best;
}

LocationEstimate Localizer::localize(
    std::span<const AngularEvidence> evidence) const {
  DWATCH_SPAN("localize.fix");
  if (evidence.size() != arrays_.size()) {
    throw std::invalid_argument("localize: evidence count mismatch");
  }
  const std::size_t min_arrays = effective_min_arrays(evidence);
  if (arrays_with_evidence(evidence) < min_arrays) {
    return LocationEstimate{};  // not covered
  }
  const Kernel kernel = prepare(evidence, global_drop_norm(evidence));
  std::vector<LocationEstimate> candidates = search_candidates(kernel);
  // Both producers promise candidate_order() — consensus_select would
  // mask a violation by re-sorting, so check the contract here.
  assert(std::is_sorted(candidates.begin(), candidates.end(),
                        candidate_order));

  // Consensus selection (outlier rejection): among the likelihood peaks,
  // prefer the one the most arrays genuinely point at; candidates backed
  // by fewer than min_arrays arrays are not a valid fix at all.
  return consensus_select(std::move(candidates), kernel, min_arrays);
}

LocationEstimate Localizer::localize_best_effort(
    std::span<const AngularEvidence> evidence) const {
  LocationEstimate est = localize(evidence);
  if (est.valid || est.likelihood > 0.0) return est;
  if (arrays_with_evidence(evidence) == 0) return est;  // nothing to go on
  // No consensus candidate: fall back to the raw likelihood maximum,
  // searched with the SAME mode the localizer is configured for (a
  // hill-climbing deployment must not silently pay for — and answer
  // from — an exhaustive grid), and selected by an explicit max scan
  // rather than trusting the list head.
  const Kernel kernel = prepare(evidence, global_drop_norm(evidence));
  const LocationEstimate top =
      select_max_likelihood(search_candidates(kernel));
  if (top.likelihood > 0.0) {
    LocationEstimate best = top;
    best.consensus = consensus_at(best.position, kernel);
    best.valid = false;
    return best;
  }
  return est;
}

std::vector<LocationEstimate> Localizer::localize_multi(
    std::span<const AngularEvidence> evidence, std::size_t max_targets,
    double min_separation, double relative_floor) const {
  std::vector<LocationEstimate> out;
  const std::size_t min_arrays = effective_min_arrays(evidence);
  if (max_targets == 0 || arrays_with_evidence(evidence) < min_arrays) {
    return out;
  }
  const Kernel kernel = prepare(evidence, global_drop_norm(evidence));
  std::vector<LocationEstimate> candidates = grid_candidates(kernel);
  if (candidates.empty()) return out;

  const double floor = candidates.front().likelihood * relative_floor;
  for (LocationEstimate& c : candidates) {
    if (c.likelihood < floor) break;
    const bool clash =
        std::any_of(out.begin(), out.end(), [&](const LocationEstimate& e) {
          return rf::distance(e.position, c.position) < min_separation;
        });
    if (clash) continue;
    c.consensus = consensus_at(c.position, kernel);
    if (c.consensus < min_arrays) continue;
    c.valid = true;
    out.push_back(c);
    if (out.size() >= max_targets) break;
  }
  return out;
}

LikelihoodGrid Localizer::likelihood_grid(
    std::span<const AngularEvidence> evidence) const {
  return likelihood_grid(prepare(evidence, global_drop_norm(evidence)));
}

LikelihoodGrid Localizer::likelihood_grid(const Kernel& kernel) const {
  DWATCH_SPAN("localize.grid");
  LikelihoodGrid grid;
  grid.origin = bounds_.min;
  grid.step = effective_grid_step();
  grid.nx = static_cast<std::size_t>(
                std::floor((bounds_.max.x - bounds_.min.x) / grid.step)) +
            1;
  grid.ny = static_cast<std::size_t>(
                std::floor((bounds_.max.y - bounds_.min.y) / grid.step)) +
            1;
  grid.values.resize(grid.nx * grid.ny);
  // Each row writes only its own disjoint slice of grid.values and reads
  // shared state read-only, so the parallel and serial paths produce
  // bit-identical grids.
  const auto fill_row = [&](std::size_t iy) {
    for (std::size_t ix = 0; ix < grid.nx; ++ix) {
      grid.values[iy * grid.nx + ix] = likelihood(kernel, grid.point(ix, iy));
    }
  };
  if (pool_ && pool_->num_workers() > 1) {
    pool_->parallel_for(grid.ny, fill_row);
  } else {
    for (std::size_t iy = 0; iy < grid.ny; ++iy) fill_row(iy);
  }
  return grid;
}

}  // namespace dwatch::core
