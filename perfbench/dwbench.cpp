// D-Watch end-to-end benchmark.
//
//   dwatch_perfbench --workload room_walk|fleet_sparse|stream_walk
//                    --seed N --seconds S --trace 0|1
//                    [--commit ID] [--inject rfid|serve|track:MICROS]
//
// Treats D-Watch as a black box. The seeded generator (traffic.hpp) makes
// LLRP bytes before the timed phase; the timed phase feeds them through
// rfid::LlrpStreamDecoder into serve::LocalizationService, and every fix
// into a core::KalmanTracker. Set-up provisions each zone from
// pre-captured install bytes with core::WirelessCalibrator.
//
// --trace 0 prints the end-to-end metrics; --trace 1 times every call
// the benchmark makes into a layer (in alternate windows of epochs, so
// the untraced windows price the tracing itself), replays each zone-epoch
// on a standalone core::DWatchPipeline, and prints the per-layer
// metrics. Both modes check the outputs; the last stdout line is the
// result object, and the exit code is 1 when any check failed.
// README.md in this directory documents the workloads and metrics.
#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/calibration.hpp"
#include "core/kalman.hpp"
#include "core/pipeline.hpp"
#include "linalg/simd_kernels.hpp"
#include "obs/obs.hpp"
#include "rfid/bytes.hpp"
#include "rfid/llrp.hpp"
#include "serve/service.hpp"
#include "stats.hpp"
#include "traffic.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_LTO
#define PERFBENCH_LTO 0
#endif

namespace perfbench {
namespace {

namespace core = dwatch::core;
namespace rf = dwatch::rf;
namespace rfid = dwatch::rfid;
namespace serve = dwatch::serve;

/// A fix later than this after its due time counts as late.
constexpr double kLateMs = 100.0;
/// Every run yields at least this many fixes (>= 10 samples beyond p95).
constexpr std::size_t kMinFixes = 200;
/// Closed-loop workloads score accuracy on this fixed prefix of the
/// walk (about one and a half tours of the room), so the error metrics
/// do not depend on how fast the run was. Runs last at least this long.
constexpr std::size_t kAccuracyEpochs = 400;
/// Closed-loop traffic per second of run (~14 MB): about twice the fix
/// rate when this was written. A faster system ends its run early, by
/// exhausting the traffic, with at least kAccuracyEpochs fixes.
constexpr std::size_t kClosedEpochsPerSecond = 120;
constexpr std::size_t kFleetZones = 32;
/// Untraced runs replay this prefix of every zone on a standalone
/// pipeline; traced runs replay everything.
constexpr std::size_t kOraclePrefix = 8;
/// Gross-accuracy gates. A run whose fixes are this wrong is broken,
/// not slow; the measured values sit well inside them on every workload.
constexpr double kMinValidFraction = 0.3;
constexpr double kMaxMedianErrorM = 1.0;
constexpr double kMaxFalseFixFraction = 0.05;
constexpr double kMaxCalibrationErrorRad = 0.5;
/// The client moves to its next CPU at the first epoch (tick) boundary
/// this long after its last move.
constexpr double kRotatePeriodS = 0.2;
/// A seed kept out of tuning; later claims must also hold on it.
constexpr std::uint64_t kHeldOutSeed = 7919;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string commit = "unknown";
  std::string inject_layer;  ///< "rfid", "serve" or "track"
  double inject_us = 0.0;
};

struct Workload {
  std::string name;
  bool open_loop = false;  ///< 10 Hz fleet tick instead of a closed loop
  bool streaming = false;
  std::vector<Occupant> occupants;
  std::size_t setup_reps = 9;
};

Workload workload_named(const std::string& name) {
  if (name == "room_walk" || name == "stream_walk") {
    Workload w;
    w.name = name;
    w.streaming = name == "stream_walk";
    w.occupants = {Occupant::kWalking};
    return w;
  }
  if (name == "fleet_sparse") {
    Workload w;
    w.name = name;
    w.open_loop = true;
    w.occupants.assign(kFleetZones, Occupant::kNone);
    w.occupants[0] = Occupant::kStatic;
    w.occupants[1] = Occupant::kWalking;
    w.setup_reps = 3;
    return w;
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

std::uint64_t reader_id(std::size_t zone, std::size_t array) {
  return 1000 * (zone + 1) + array;
}

core::PipelineOptions pipeline_options(const Workload& w) {
  core::PipelineOptions options;
  options.streaming.enabled = w.streaming;  // StreamingOptions defaults
  return options;
}

/// Decode a byte stream that must hold only complete reports.
std::vector<rfid::RoAccessReport> decode_all(const Bytes& bytes) {
  rfid::LlrpStreamDecoder decoder;
  decoder.feed(bytes);
  std::vector<rfid::RoAccessReport> out;
  while (auto report = decoder.next_report()) out.push_back(std::move(*report));
  if (decoder.buffered_bytes() != 0) {
    throw std::runtime_error("install bytes end in a partial frame");
  }
  return out;
}

/// One calibration measurement per anchor: its snapshots from every
/// anchor capture, concatenated column-wise.
std::vector<core::CalibrationMeasurement> anchor_measurements(
    const ZoneTraffic& zone, std::size_t array) {
  const std::vector<rfid::RoAccessReport> captures =
      decode_all(zone.anchor_bytes[array]);
  const std::size_t m = zone.arrays[array].num_elements();
  std::vector<core::CalibrationMeasurement> out;
  for (const Anchor& anchor : zone.anchors[array]) {
    std::vector<dwatch::linalg::CMatrix> parts;
    std::size_t cols = 0;
    for (const rfid::RoAccessReport& report : captures) {
      for (const rfid::TagObservation& obs : report.observations) {
        if (obs.epc != anchor.epc) continue;
        parts.push_back(core::observation_to_snapshots(obs, m));
        cols += parts.back().cols();
      }
    }
    if (parts.empty()) continue;
    core::CalibrationMeasurement meas;
    meas.snapshots = dwatch::linalg::CMatrix(m, cols);
    std::size_t c0 = 0;
    for (const auto& part : parts) {
      for (std::size_t r = 0; r < m; ++r) {
        for (std::size_t c = 0; c < part.cols(); ++c) {
          meas.snapshots(r, c0 + c) = part(r, c);
        }
      }
      c0 += part.cols();
    }
    meas.los_angle = anchor.los_angle;
    out.push_back(std::move(meas));
  }
  return out;
}

struct SetupSamples {
  std::vector<double> setup_s;
  std::vector<double> calibrate_ms;  ///< per array solve
  std::vector<double> baseline_us;   ///< per add_baseline call
  std::vector<double> calibration_error_rad;
};

struct Provisioned {
  std::unique_ptr<serve::LocalizationService> service;
  std::vector<std::vector<std::vector<double>>> offsets;  ///< [zone][array]
};

/// Zone provisioning: calibrate every array from its anchors, add the
/// zone, store every baseline, bind the readers.
Provisioned provision(const Workload& w, const std::vector<ZoneTraffic>& zones,
                      std::size_t workers, SetupSamples& samples) {
  const auto t_start = Clock::now();
  serve::ServiceOptions service_options;
  service_options.num_workers = workers;
  Provisioned out;
  out.service = std::make_unique<serve::LocalizationService>(service_options);
  serve::LocalizationService& service = *out.service;
  for (std::size_t z = 0; z < zones.size(); ++z) {
    const ZoneTraffic& zt = zones[z];
    serve::ZoneConfig config;
    config.name = "zone" + std::to_string(z);
    config.arrays = zt.arrays;
    config.bounds = zt.bounds;
    config.pipeline = pipeline_options(w);
    for (std::size_t a = 0; a < zt.arrays.size(); ++a) {
      const auto meas = anchor_measurements(zt, a);
      const core::WirelessCalibrator calibrator(zt.arrays[a].spacing(),
                                                zt.arrays[a].lambda());
      rf::Rng rng(131 * z + a + 1);  // install-time solve: site, not seed
      const auto t0 = Clock::now();
      const core::CalibrationResult result = calibrator.calibrate(meas, rng);
      samples.calibrate_ms.push_back(1e3 * seconds_between(t0, Clock::now()));
      samples.calibration_error_rad.push_back(
          core::mean_phase_error(result.offsets, zt.true_offsets[a]));
      config.calibration.push_back(result.offsets);
    }
    out.offsets.push_back(config.calibration);
    const std::size_t id = service.add_zone(std::move(config));
    core::DWatchPipeline& pipeline = service.zone(id).pipeline();
    for (std::size_t a = 0; a < zt.arrays.size(); ++a) {
      for (const rfid::RoAccessReport& report :
           decode_all(zt.baseline_bytes[a])) {
        for (const rfid::TagObservation& obs : report.observations) {
          const auto t0 = Clock::now();
          pipeline.add_baseline(a, obs);
          samples.baseline_us.push_back(1e6 *
                                        seconds_between(t0, Clock::now()));
        }
      }
      service.bind_reader(reader_id(z, a), id, a);
    }
  }
  samples.setup_s.push_back(seconds_between(t_start, Clock::now()));
  return out;
}

/// What the epoch observers saw for one zone-epoch.
struct Observed {
  std::uint64_t seq = 0;
  Clock::time_point first;  ///< fix available (early seal or epoch end)
  Clock::time_point end;    ///< epoch observer
  double fix_latency_us = 0.0;
};

/// One zone-epoch offered to the service.
struct ZoneEpoch {
  std::size_t zone = 0;
  std::size_t epoch = 0;
  bool traced = false;
  bool decoded = true;
  bool fixed = false;
  bool mismatch = false;  ///< differs from the standalone replay
  double latency_ms = 0.0;
  double obs_latency_ms = 0.0;  ///< due -> epoch observer
  double run_start_ms = 0.0;    ///< due -> run_pending call
  double fix_latency_us = 0.0;  ///< EpochObservation::fix_latency_us
  double decode_us = 0.0;
  double ingest_us = 0.0;
  core::ConfidentEstimate fix;
};

struct Tick {
  bool traced = false;
  double lateness_ms = 0.0;
  double handover_us = 0.0;  ///< decode + ingest of every zone
  double run_pending_ms = 0.0;
};

struct Phase {
  std::vector<ZoneEpoch> epochs;
  std::vector<Tick> ticks;
  std::vector<double> decode_us;  ///< per report (traced epochs)
  std::vector<double> track_us;   ///< per Kalman step (traced epochs)
  std::size_t decode_failed = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  int brownout_tier_max = 0;
};

void inject(const Options& opt, const char* layer) {
  if (opt.inject_us > 0.0 && opt.inject_layer == layer) {
    busy_wait_us(opt.inject_us);
  }
}

/// Sizes a vector for `n` elements and touches every page, so filling it
/// in the timed phase adds no resident memory to system_rss_mb.
template <typename T>
void reserve_touched(std::vector<T>& v, std::size_t n) {
  v.resize(n);
  v.clear();
}

/// The timed phase: hand every zone-epoch over, fix it, track it. The
/// caller sizes `phase` and `observed` (one slot per zone) beforehand.
void run_phase(const Options& opt, const Workload& w,
               const std::vector<ZoneTraffic>& zones,
               serve::LocalizationService& service, CpuRotation& rotation,
               Phase& phase, std::vector<std::vector<Observed>>& observed) {
  const std::size_t nz = zones.size();
  std::vector<std::optional<Clock::time_point>> early(nz);
  // Each zone's observer calls are serial, and distinct zones touch
  // distinct slots, so no lock is needed; run_pending() joins the pool
  // before the benchmark reads them.
  service.set_early_fix_observer(
      [&early](std::size_t zone, const serve::ZoneFix&) {
        early[zone] = Clock::now();
      });
  service.set_epoch_observer(
      [&observed, &early](const serve::EpochObservation& o) {
        const auto now = Clock::now();
        observed[o.zone].push_back(
            Observed{o.seq, early[o.zone].value_or(now), now,
                     static_cast<double>(o.fix_latency_us)});
        early[o.zone].reset();
      });

  const std::size_t available = zones.front().epochs.size();
  std::vector<std::vector<rfid::LlrpStreamDecoder>> decoders(nz);
  std::vector<core::KalmanTracker> trackers;
  for (std::size_t z = 0; z < nz; ++z) {
    decoders[z].resize(zones[z].arrays.size());
    trackers.emplace_back(core::KalmanOptions{
        .dt = kEpochSeconds, .measurement_sigma = 0.25, .gate_sigmas = 6.0});
  }

  const auto tick_period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(kEpochSeconds));
  const auto start = Clock::now();
  auto last_move = start;
  std::size_t moves = 0;
  const double cpu0 = process_cpu_seconds();
  const auto us_since = [](Clock::time_point t) {
    return 1e6 * seconds_between(t, Clock::now());
  };
  for (std::size_t k = 0; k < available; ++k) {
    if (!w.open_loop && k >= std::max(kMinFixes, kAccuracyEpochs) &&
        seconds_between(start, Clock::now()) >= opt.seconds) {
      break;
    }
    if (k == 0 || seconds_between(last_move, Clock::now()) >= kRotatePeriodS) {
      rotation.next();
      last_move = Clock::now();
      ++moves;
    }
    // Whole windows between two CPU moves alternate between traced and
    // untraced, so both see the same share of cold-cache epochs.
    Tick tick;
    tick.traced = opt.trace && moves % 2 == 0;
    const Clock::time_point due =
        w.open_loop ? start + static_cast<Clock::rep>(k) * tick_period
                    : Clock::now();
    if (w.open_loop) std::this_thread::sleep_until(due);
    const Clock::time_point handover = Clock::now();
    tick.lateness_ms = 1e3 * seconds_between(due, handover);

    const std::size_t first_epoch = phase.epochs.size();
    for (std::size_t z = 0; z < nz; ++z) {
      const EpochTraffic& traffic = zones[z].epochs[k];
      ZoneEpoch ze;
      ze.zone = z;
      ze.epoch = k;
      ze.traced = tick.traced;
      auto t0 = Clock::now();
      service.begin_epoch(z, traffic.watermark_us);
      inject(opt, "serve");
      if (tick.traced) ze.ingest_us += us_since(t0);
      for (const Chunk& chunk : traffic.chunks) {
        t0 = Clock::now();
        rfid::LlrpStreamDecoder& decoder = decoders[z][chunk.array];
        decoder.feed(chunk.bytes);
        std::optional<rfid::RoAccessReport> report;
        try {
          report = decoder.next_report();
        } catch (const rfid::DecodeError&) {
          report.reset();
        }
        inject(opt, "rfid");
        if (tick.traced) {
          const double us = us_since(t0);
          ze.decode_us += us;
          phase.decode_us.push_back(us);
        }
        if (!report || report->observations.size() != chunk.observations) {
          ze.decoded = false;
          ++phase.decode_failed;
          continue;
        }
        t0 = Clock::now();
        (void)service.router().route(reader_id(z, chunk.array), *report);
        inject(opt, "serve");
        if (tick.traced) ze.ingest_us += us_since(t0);
      }
      t0 = Clock::now();
      (void)service.seal_epoch(z);
      inject(opt, "serve");
      if (tick.traced) ze.ingest_us += us_since(t0);
      tick.handover_us += ze.decode_us + ze.ingest_us;
      phase.epochs.push_back(std::move(ze));
    }

    const auto run_start = Clock::now();
    (void)service.run_pending();
    tick.run_pending_ms = 1e3 * seconds_between(run_start, Clock::now());
    phase.brownout_tier_max = std::max(
        phase.brownout_tier_max, static_cast<int>(service.admission().tier()));

    for (std::size_t z = 0; z < nz; ++z) {
      ZoneEpoch& ze = phase.epochs[first_epoch + z];
      ze.run_start_ms = 1e3 * seconds_between(due, run_start);
      const auto& fixes = service.fixes(z);
      ze.fixed = fixes.size() == k + 1 && observed[z].size() == k + 1 &&
                 observed[z].back().seq == fixes.back().seq;
      if (!ze.fixed) continue;
      const Observed& o = observed[z].back();
      ze.fix = fixes.back().result;
      ze.latency_ms = 1e3 * seconds_between(due, o.first);
      ze.obs_latency_ms = 1e3 * seconds_between(due, o.end);
      ze.fix_latency_us = o.fix_latency_us;

      const auto t0 = Clock::now();
      if (ze.fix.estimate.valid) {
        (void)trackers[z].update(ze.fix.estimate.position);
      } else {
        (void)trackers[z].coast();
      }
      inject(opt, "track");
      if (tick.traced) phase.track_us.push_back(us_since(t0));
    }
    phase.ticks.push_back(tick);
  }
  phase.wall_s = seconds_between(start, Clock::now());
  phase.cpu_s = process_cpu_seconds() - cpu0;
  service.set_epoch_observer({});
  service.set_early_fix_observer({});
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool identical(const core::ConfidentEstimate& a,
               const core::ConfidentEstimate& b) {
  return same_bits(a.estimate.position.x, b.estimate.position.x) &&
         same_bits(a.estimate.position.y, b.estimate.position.y) &&
         same_bits(a.estimate.likelihood, b.estimate.likelihood) &&
         a.estimate.consensus == b.estimate.consensus &&
         a.estimate.valid == b.estimate.valid &&
         a.confidence == b.confidence;
}

bool finite_or_invalid(const core::ConfidentEstimate& f) {
  return !f.estimate.valid || (std::isfinite(f.estimate.position.x) &&
                               std::isfinite(f.estimate.position.y) &&
                               std::isfinite(f.estimate.likelihood));
}

/// Standalone-pipeline timings of one zone's replayed epochs.
struct Replay {
  std::vector<double> observe_us;        ///< per observation
  std::vector<double> core_us;           ///< per epoch: observes + fix
  std::vector<double> observe_ms_epoch;  ///< per epoch
  std::vector<double> localize_ms;       ///< per epoch
};

/// Replay a zone's first `count` epochs on a standalone pipeline built
/// like the service's zone and fed the same reports in the same order
/// (the serve determinism contract), marking every fix that differs.
Replay replay_zone(const Workload& w, const ZoneTraffic& zt,
                   const std::vector<std::vector<double>>& offsets,
                   std::vector<ZoneEpoch*>& epochs, std::size_t count) {
  core::DWatchPipeline pipeline(zt.arrays, zt.bounds, pipeline_options(w));
  for (std::size_t a = 0; a < zt.arrays.size(); ++a) {
    pipeline.set_calibration(a, offsets[a]);
    for (const rfid::RoAccessReport& report : decode_all(zt.baseline_bytes[a])) {
      for (const rfid::TagObservation& obs : report.observations) {
        pipeline.add_baseline(a, obs);
      }
    }
  }
  std::vector<rfid::LlrpStreamDecoder> decoders(zt.arrays.size());
  Replay out;
  for (std::size_t e = 0; e < count; ++e) {
    const EpochTraffic& traffic = zt.epochs[e];
    std::vector<std::pair<std::size_t, rfid::RoAccessReport>> reports;
    for (const Chunk& chunk : traffic.chunks) {
      decoders[chunk.array].feed(chunk.bytes);
      try {
        if (auto report = decoders[chunk.array].next_report()) {
          reports.emplace_back(chunk.array, std::move(*report));
        }
      } catch (const rfid::DecodeError&) {
        // Already counted as a failed zone-epoch by the timed phase.
      }
    }
    pipeline.begin_epoch(traffic.watermark_us);
    const auto t0 = Clock::now();
    for (const auto& [array, report] : reports) {
      if (pipeline.early_fix_ready()) break;
      for (const rfid::TagObservation& obs : report.observations) {
        const auto o0 = Clock::now();
        (void)pipeline.observe(array, obs);
        out.observe_us.push_back(1e6 * seconds_between(o0, Clock::now()));
        if (pipeline.early_fix_ready()) break;
      }
    }
    const auto t1 = Clock::now();
    const core::ConfidentEstimate fix = pipeline.localize_with_confidence(true);
    const auto t2 = Clock::now();
    out.observe_ms_epoch.push_back(1e3 * seconds_between(t0, t1));
    out.localize_ms.push_back(1e3 * seconds_between(t1, t2));
    out.core_us.push_back(1e6 * seconds_between(t0, t2));
    ZoneEpoch& ze = *epochs[e];
    if (ze.fixed && !identical(fix, ze.fix)) ze.mismatch = true;
  }
  return out;
}

struct Outcome {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t late = 0;
  std::size_t fixed = 0;
  std::size_t occupied = 0;
  std::size_t occupied_valid = 0;
  std::size_t empty = 0;
  std::size_t empty_valid = 0;
  std::vector<double> latency_ms;
  std::vector<double> errors_m;
  std::vector<std::string> problems;
};

double fraction(std::size_t part, std::size_t whole) {
  return whole == 0 ? 0.0
                    : static_cast<double>(part) / static_cast<double>(whole);
}

/// Scores every offered zone-epoch and runs the output checks: each
/// report decodes, each epoch gets a fix, each fix is finite or marked
/// invalid and equals its standalone replay, and the fixes as a whole
/// are not grossly wrong.
Outcome score(const Workload& w, const std::vector<ZoneTraffic>& zones,
              const Phase& phase, const SetupSamples& setup) {
  Outcome o;
  std::size_t decode = 0, missing = 0, nonfinite = 0, mismatch = 0;
  for (const ZoneEpoch& ze : phase.epochs) {
    ++o.attempted;
    const bool finite = !ze.fixed || finite_or_invalid(ze.fix);
    const bool failed = !ze.decoded || !ze.fixed || ze.mismatch || !finite;
    decode += ze.decoded ? 0 : 1;
    missing += ze.fixed ? 0 : 1;
    mismatch += ze.mismatch ? 1 : 0;
    nonfinite += finite ? 0 : 1;
    if (failed) ++o.failed;
    if (ze.fixed) {
      ++o.fixed;
      o.latency_ms.push_back(ze.latency_ms);
    }
    if (failed || ze.latency_ms > kLateMs) ++o.late;

    const auto& truth = zones[ze.zone].epochs[ze.epoch].truth;
    const bool scored = w.open_loop || ze.epoch < kAccuracyEpochs;
    if (!scored || !ze.fixed) continue;
    if (truth) {
      ++o.occupied;
      if (ze.fix.estimate.valid) {
        ++o.occupied_valid;
        o.errors_m.push_back(rf::distance(ze.fix.estimate.position, *truth));
      }
    } else {
      ++o.empty;
      if (ze.fix.estimate.valid) ++o.empty_valid;
    }
  }
  const auto note = [&o](std::size_t n, const char* what) {
    if (n > 0) o.problems.push_back(std::to_string(n) + " " + what);
  };
  note(decode, "zone-epochs with an undecodable report");
  note(missing, "zone-epochs without a fix");
  note(mismatch, "fixes differing from the standalone replay");
  note(nonfinite, "valid fixes with non-finite values");
  if (o.fixed < kMinFixes) {
    note(kMinFixes - o.fixed, "fixes short of the minimum");
  }
  const auto gate = [&o](bool ok, const std::string& what) {
    if (!ok) o.problems.push_back(what);
  };
  const double valid = fraction(o.occupied_valid, o.occupied);
  const double median_error = quantile(o.errors_m, 0.5);
  const double false_fixes = fraction(o.empty_valid, o.empty);
  const double calibration = mean(setup.calibration_error_rad);
  gate(valid >= kMinValidFraction,
       "valid fix fraction " + std::to_string(valid) + " below " +
           std::to_string(kMinValidFraction));
  gate(median_error <= kMaxMedianErrorM,
       "median fix error " + std::to_string(median_error) + " m above " +
           std::to_string(kMaxMedianErrorM));
  gate(false_fixes <= kMaxFalseFixFraction,
       "false fix fraction " + std::to_string(false_fixes) + " above " +
           std::to_string(kMaxFalseFixFraction));
  gate(calibration <= kMaxCalibrationErrorRad,
       "mean calibration error " + std::to_string(calibration) +
           " rad above " + std::to_string(kMaxCalibrationErrorRad));
  return o;
}

/// Adds one {"value": v, "unit": u} entry to a metrics object.
void put(JsonObject& metrics, const char* name, double value,
         const char* unit) {
  JsonObject m;
  m.num("value", value).str("unit", unit);
  metrics.raw(name, m.dump());
}

double count(std::size_t n) { return static_cast<double>(n); }

/// End-to-end metrics that cannot carry a bound: deterministic for a
/// seed but spread widely across seeds (accuracy), or 0 at seed.
void put_quality_metrics(JsonObject& m, const Outcome& o) {
  put(m, "fix_error_p50_m", quantile(o.errors_m, 0.50), "m");
  put(m, "fix_error_p90_m", quantile(o.errors_m, 0.90), "m");
  put(m, "valid_fix_fraction", fraction(o.occupied_valid, o.occupied),
      "ratio");
  put(m, "false_fix_fraction", fraction(o.empty_valid, o.empty), "ratio");
  put(m, "epochs_failed_fraction", fraction(o.failed, o.attempted), "ratio");
  put(m, "epochs_late_fraction", fraction(o.late, o.attempted), "ratio");
}

/// The per-layer metrics of a traced run (README.md lists what each one
/// should move). Service-side times come from the benchmark's timers around
/// its calls into rfid and serve; core times come from the standalone
/// replay of the same zone-epochs.
void put_layer_metrics(JsonObject& m, const Phase& phase,
                       const std::vector<Replay>& replays,
                       serve::LocalizationService& service,
                       const SetupSamples& setup, const Outcome& o,
                       std::size_t workers) {
  std::vector<double> observe_us, observe_ms, localize_ms;
  for (const Replay& r : replays) {
    observe_us.insert(observe_us.end(), r.observe_us.begin(),
                      r.observe_us.end());
    observe_ms.insert(observe_ms.end(), r.observe_ms_epoch.begin(),
                      r.observe_ms_epoch.end());
    localize_ms.insert(localize_ms.end(), r.localize_ms.begin(),
                       r.localize_ms.end());
  }

  // Per traced zone-epoch, from its due time to the epoch observer:
  //   tick lateness + hand-over (decode + ingest of every zone)
  //   + queue wait + core (replay) + serve overhead + unattributed,
  // where the service's own processing time fix_latency_us splits into
  // core + overhead.
  std::vector<double> overhead_us, queue_ms, unattributed_us, ingest_us;
  std::vector<double> traced_lat, untraced_lat;
  double busy_us = 0.0;
  std::vector<std::size_t> index(replays.size(), 0);
  for (const ZoneEpoch& ze : phase.epochs) {
    const std::size_t i = index[ze.zone]++;
    if (!ze.fixed) continue;
    busy_us += ze.fix_latency_us;
    (ze.traced ? traced_lat : untraced_lat).push_back(ze.latency_ms);
    if (!ze.traced) continue;
    const Tick& tick = phase.ticks[ze.epoch];
    const double core_us = replays[ze.zone].core_us[i];
    const double queue_us =
        1e3 * (ze.obs_latency_ms - ze.run_start_ms) - ze.fix_latency_us;
    const double overhead = ze.fix_latency_us - core_us;
    overhead_us.push_back(overhead);
    queue_ms.push_back(queue_us / 1e3);
    ingest_us.push_back(ze.ingest_us);
    unattributed_us.push_back(1e3 * ze.obs_latency_ms -
                              (1e3 * tick.lateness_ms + tick.handover_us +
                               queue_us + core_us + overhead));
  }
  std::vector<double> run_pending_ms;
  double lateness_max = 0.0;
  for (const Tick& t : phase.ticks) {
    lateness_max = std::max(lateness_max, t.lateness_ms);
    if (t.traced) run_pending_ms.push_back(t.run_pending_ms);
  }

  core::PipelineStats ps;
  core::StreamingStats st;
  std::size_t early_seals = 0;
  std::size_t skipped = 0;
  for (std::size_t z = 0; z < service.num_zones(); ++z) {
    const core::DWatchPipeline& p = service.zone(z).pipeline();
    ps.observations += p.stats().observations;
    ps.drops_detected += p.stats().drops_detected;
    st.rank1_updates += p.streaming_stats().rank1_updates;
    st.streamed_spectra += p.streaming_stats().streamed_spectra;
    st.tracker_resets += p.streaming_stats().tracker_resets;
    st.convergence_checks += p.streaming_stats().convergence_checks;
    early_seals += service.zone_stats(z).epochs_early_sealed;
    skipped += service.zone_stats(z).reports_skipped_early;
  }
  const serve::ServiceStats ss = service.stats();
  const double untraced_p50 = quantile(untraced_lat, 0.5);

  put(m, "core.localize_ms_p50", quantile(localize_ms, 0.50), "ms");
  put(m, "core.localize_ms_p95", quantile(localize_ms, 0.95), "ms");
  put(m, "core.observe_us", quantile(observe_us, 0.5), "us");
  put(m, "core.observe_ms_per_epoch", quantile(observe_ms, 0.5), "ms");
  put(m, "core.observations", count(ps.observations), "count");
  put(m, "core.drops_detected", count(ps.drops_detected), "count");
  put(m, "core.drops_per_observation",
      fraction(ps.drops_detected, ps.observations), "ratio");
  put(m, "core.stream.rank1_updates", count(st.rank1_updates), "count");
  put(m, "core.stream.tracker_resets", count(st.tracker_resets), "count");
  put(m, "core.stream.reset_ratio",
      fraction(st.tracker_resets, st.streamed_spectra), "ratio");
  put(m, "core.stream.convergence_checks", count(st.convergence_checks),
      "count");
  put(m, "core.stream.early_seal_ratio",
      fraction(early_seals, ss.epochs_processed), "ratio");
  put(m, "core.stream.reports_skipped", count(skipped), "count");
  put(m, "core.track_us", quantile(phase.track_us, 0.5), "us");
  put(m, "core.calibrate_ms", quantile(setup.calibrate_ms, 0.5), "ms");
  put(m, "core.baseline_us", quantile(setup.baseline_us, 0.5), "us");
  put(m, "core.calibration_error_rad", mean(setup.calibration_error_rad),
      "rad");
  put(m, "rfid.decode_us", quantile(phase.decode_us, 0.5), "us");
  put(m, "rfid.decode_failed", count(phase.decode_failed), "count");
  put(m, "serve.ingest_us", quantile(ingest_us, 0.5), "us");
  put(m, "serve.run_pending_ms", quantile(run_pending_ms, 0.5), "ms");
  put(m, "serve.queue_wait_ms", quantile(queue_ms, 0.95), "ms");
  put(m, "serve.overhead_us", quantile(overhead_us, 0.5), "us");
  put(m, "serve.pool_busy_fraction",
      busy_us / (1e6 * phase.wall_s * static_cast<double>(workers)), "ratio");
  put(m, "serve.epochs_processed", count(ss.epochs_processed), "count");
  put(m, "serve.epochs_shed", count(ss.epochs_shed), "count");
  put(m, "serve.epochs_rejected", count(ss.epochs_rejected), "count");
  put(m, "serve.brownout_tier_max", phase.brownout_tier_max, "tier");
  put(m, "gen.lateness_max_ms", lateness_max, "ms");
  put(m, "trace.overhead_pct",
      untraced_p50 > 0.0
          ? 100.0 * (quantile(traced_lat, 0.5) - untraced_p50) / untraced_p50
          : 0.0,
      "%");
  put(m, "trace.unattributed_us", quantile(unattributed_us, 0.5), "us");
  put_quality_metrics(m, o);
}

int run(const Options& opt) {
#ifndef NDEBUG
  std::fprintf(stderr,
               "refusing to measure: this build has assertions on (build "
               "type %s); configure with CMAKE_BUILD_TYPE=Release\n",
               PERFBENCH_BUILD_TYPE);
  return 3;
#endif
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  if (build_type != "Release" && build_type != "RelWithDebInfo") {
    std::fprintf(stderr, "refusing to measure an unoptimized build (%s)\n",
                 build_type.c_str());
    return 3;
  }
  const Workload w = workload_named(opt.workload);
  const std::size_t nproc =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  const std::size_t workers = w.open_loop ? nproc : 1;

  // --- load generation (untimed) ---------------------------------------
  const std::size_t epochs =
      w.open_loop
          ? std::max<std::size_t>(
                (kMinFixes + kFleetZones - 1) / kFleetZones,
                static_cast<std::size_t>(opt.seconds / kEpochSeconds + 0.5))
          : std::max<std::size_t>(
                kAccuracyEpochs, static_cast<std::size_t>(
                                     opt.seconds * kClosedEpochsPerSecond +
                                     0.5));
  std::vector<ZoneTraffic> zones;
  for (std::size_t z = 0; z < w.occupants.size(); ++z) {
    zones.push_back(make_zone(opt.seed, z, w.occupants[z], epochs, nproc));
  }
  const std::uint64_t traffic_digest = digest(zones);
  Phase phase;
  std::vector<std::vector<Observed>> observed(zones.size());
  reserve_touched(phase.epochs, epochs * zones.size());
  reserve_touched(phase.ticks, epochs);
  for (std::vector<Observed>& o : observed) reserve_touched(o, epochs);
  const double rss_after_generation = resident_mb();

  // --- set-up, repeated; the last service serves -----------------------
  // The client thread rotates over the CPUs (see CpuRotation). A pool
  // started while it sits on one CPU would inherit that mask, so a
  // pooled service is set up first and only its client moves.
  std::optional<CpuRotation> rotation;
  if (workers == 1) rotation.emplace();
  SetupSamples setup;
  Provisioned provisioned;
  for (std::size_t r = 0; r < w.setup_reps; ++r) {
    if (rotation) rotation->next();
    provisioned = Provisioned{};
    provisioned = provision(w, zones, workers, setup);
  }
  serve::LocalizationService& service = *provisioned.service;
  if (!rotation) rotation.emplace();

  // --- timed phase ------------------------------------------------------
  run_phase(opt, w, zones, service, *rotation, phase, observed);
  rotation.reset();
  const double rss_growth_mb = resident_mb() - rss_after_generation;

  // --- oracle: standalone replay ---------------------------------------
  std::vector<Replay> replays;
  for (std::size_t z = 0; z < zones.size(); ++z) {
    std::vector<ZoneEpoch*> mine;
    for (ZoneEpoch& ze : phase.epochs) {
      if (ze.zone == z) mine.push_back(&ze);
    }
    const std::size_t n =
        opt.trace ? mine.size() : std::min(kOraclePrefix, mine.size());
    replays.push_back(
        replay_zone(w, zones[z], provisioned.offsets[z], mine, n));
  }
  const Outcome o = score(w, zones, phase, setup);
  const bool correct = o.problems.empty();

  // --- context block ------------------------------------------------------
  char digest_hex[17];
  std::snprintf(digest_hex, sizeof(digest_hex), "%016llx",
                static_cast<unsigned long long>(traffic_digest));
  JsonObject context;
  context.str("workload", w.name)
      .num("seed", count(opt.seed))
      .num("held_out_seed", count(kHeldOutSeed))
      .num("seconds", opt.seconds)
      .boolean("trace", opt.trace)
      .str("build_type", build_type)
      .boolean("lto", PERFBENCH_LTO != 0)
      .str("simd_backend", dwatch::linalg::simd::backend_name(
                               dwatch::linalg::simd::active_backend()))
      .boolean("obs_compiled", DWATCH_OBS_ENABLED != 0)
      .num("nproc", count(nproc))
      .num("pool_size", count(workers))
      .str("commit", opt.commit)
      .str("traffic_digest", digest_hex)
      .num("zones", count(zones.size()))
      .num("generated_epochs_per_zone", count(epochs))
      .num("zone_epochs_offered", count(o.attempted))
      .num("fixes", count(o.fixed))
      .num("timed_s", phase.wall_s);
  if (!opt.inject_layer.empty()) {
    context.str("inject_layer", opt.inject_layer)
        .num("inject_us", opt.inject_us);
  }
  std::printf("context %s\n", context.dump().c_str());
  JsonObject quality;
  put_quality_metrics(quality, o);
  std::printf("quality %s\n", quality.dump().c_str());
  for (const std::string& p : o.problems) {
    std::printf("check failed: %s\n", p.c_str());
  }

  // --- result -------------------------------------------------------------
  JsonObject metrics;
  if (opt.trace) {
    put_layer_metrics(metrics, phase, replays, service, setup, o, workers);
  } else {
    put(metrics, "setup_s", quantile(setup.setup_s, 0.5), "s");
    put(metrics, "fix_latency_p50_ms", quantile(o.latency_ms, 0.50), "ms");
    put(metrics, "fix_latency_p95_ms", quantile(o.latency_ms, 0.95), "ms");
    put(metrics, "cpu_ms_per_fix",
        1e3 * phase.cpu_s / count(std::max<std::size_t>(1, o.fixed)), "ms");
    put(metrics, "epochs_on_time_fraction",
        1.0 - fraction(o.late, o.attempted), "ratio");
    put(metrics, "system_rss_mb", rss_growth_mb, "MB");
  }
  JsonObject result;
  result.boolean("correct", correct)
      .num("attempted", count(o.attempted))
      .num("failed", count(o.failed))
      .raw("metrics", metrics.dump());
  std::printf("%s\n", result.dump().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string value = argv[++i];
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = std::stoull(value);
    } else if (key == "--seconds") {
      opt.seconds = std::stod(value);
    } else if (key == "--trace") {
      opt.trace = value == "1";
    } else if (key == "--commit") {
      opt.commit = value;
    } else if (key == "--inject") {
      const auto colon = value.find(':');
      if (colon == std::string::npos) {
        throw std::invalid_argument("--inject wants LAYER:MICROS");
      }
      opt.inject_layer = value.substr(0, colon);
      opt.inject_us = std::stod(value.substr(colon + 1));
      if (opt.inject_layer != "rfid" && opt.inject_layer != "serve" &&
          opt.inject_layer != "track") {
        throw std::invalid_argument("--inject layer must be rfid, serve or track");
      }
    } else {
      throw std::invalid_argument("unknown option " + key);
    }
  }
  if (opt.workload.empty()) throw std::invalid_argument("--workload is required");
  if (!(opt.seconds > 0.0 && opt.seconds <= 600.0)) {
    throw std::invalid_argument("--seconds must be in (0, 600]");
  }
  return opt;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dwatch_perfbench: %s\n", e.what());
    return 2;
  }
}
