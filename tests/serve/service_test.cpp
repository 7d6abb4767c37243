// Serving-layer tests. The two contracts that make zone sharding safe
// to deploy:
//
//  1. Determinism — every zone's fixes are BIT-IDENTICAL to a
//     standalone DWatchPipeline fed the same reports in the same
//     order, for every shared-pool worker count (1 / 2 / 4). Sharing
//     a process must not change a single bit of any answer.
//  2. Bounded backpressure — under overload the per-zone queues never
//     grow past their cap; the oldest epochs are shed, counted, and
//     the surviving fixes are the NEWEST epochs.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "obs/event_log.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "rf/constants.hpp"
#include "rf/noise.hpp"
#include "rf/snapshot.hpp"
#include "serve/service.hpp"

namespace dwatch::serve {
namespace {

std::vector<rf::UniformLinearArray> zone_arrays() {
  return {
      rf::UniformLinearArray({3.5, 0.15, 1.25}, {1, 0}, 8),
      rf::UniformLinearArray({0.15, 5.0, 1.25}, {0, 1}, 8),
  };
}

core::SearchBounds zone_bounds() { return {{0.0, 0.0}, {7.0, 10.0}}; }

linalg::CMatrix synth(const rf::UniformLinearArray& array, double angle_rad,
                      double scale, std::uint64_t seed) {
  rf::PropagationPath p;
  p.kind = rf::PathKind::kDirect;
  p.vertices = {{-10, 0, 1.25}, array.center()};
  p.length = 10.0;
  p.aoa = angle_rad;
  p.gain = {0.01, 0.0};
  const std::vector<rf::PropagationPath> paths{p};
  rf::SnapshotOptions opts;
  opts.num_snapshots = 16;
  opts.noise_sigma = rf::noise_sigma_for_snr(paths, 1.0, 35.0);
  rf::Rng rng(seed);
  const std::vector<double> path_scale{scale};
  return rf::synthesize_snapshots(array, paths, path_scale, opts, rng);
}

rfid::TagObservation wire_obs(const linalg::CMatrix& x,
                              const rfid::Epc96& epc) {
  rfid::TagObservation obs;
  obs.epc = epc;
  for (std::size_t n = 0; n < x.cols(); ++n) {
    for (std::size_t m = 0; m < x.rows(); ++m) {
      const auto [pq, rq] = rfid::quantize_sample(x(m, n));
      obs.samples.push_back(rfid::PhaseSample{
          static_cast<std::uint16_t>(m + 1), static_cast<std::uint32_t>(n),
          pq, rq});
    }
  }
  return obs;
}

/// Per-zone targets differ so cross-zone leakage would change answers.
rf::Vec2 zone_target(std::size_t zone) {
  return {2.0 + 0.5 * static_cast<double>(zone),
          3.0 + 0.7 * static_cast<double>(zone)};
}

/// One tag per array, dropping toward the zone's target. Seeds are a
/// function of (zone, epoch, array) so every run is reproducible.
rfid::RoAccessReport epoch_report(std::size_t zone, std::size_t array,
                                  std::uint64_t epoch) {
  const auto arrays = zone_arrays();
  const double angle = arrays[array].arrival_angle_planar(zone_target(zone));
  const std::uint64_t seed = 1000 * zone + 10 * epoch + array + 1;
  rfid::RoAccessReport report;
  report.message_id = static_cast<std::uint32_t>(seed);
  report.observations.push_back(
      wire_obs(synth(arrays[array], angle, 0.2, seed),
               rfid::Epc96::for_tag_index(static_cast<std::uint32_t>(
                   10 * zone + array + 1))));
  return report;
}

void install_baselines(core::DWatchPipeline& pipe, std::size_t zone) {
  const auto arrays = zone_arrays();
  for (std::size_t a = 0; a < arrays.size(); ++a) {
    const double angle = arrays[a].arrival_angle_planar(zone_target(zone));
    pipe.add_baseline(
        a,
        rfid::Epc96::for_tag_index(
            static_cast<std::uint32_t>(10 * zone + a + 1)),
        synth(arrays[a], angle, 1.0, 500 + 10 * zone + a));
  }
}

ZoneConfig zone_config(std::size_t zone) {
  ZoneConfig cfg;
  cfg.name = "zone" + std::to_string(zone);
  cfg.arrays = zone_arrays();
  cfg.bounds = zone_bounds();
  return cfg;
}

constexpr std::size_t kZones = 3;
constexpr std::uint64_t kEpochs = 4;

/// Drive the whole fleet through the ROUTER for `kEpochs` epochs and
/// return every zone's fixes.
std::vector<std::vector<ZoneFix>> run_fleet(std::size_t num_workers) {
  ServiceOptions opts;
  opts.num_workers = num_workers;
  LocalizationService service(opts);
  for (std::size_t z = 0; z < kZones; ++z) {
    const std::size_t id = service.add_zone(zone_config(z));
    install_baselines(service.zone(id).pipeline(), z);
    for (std::size_t a = 0; a < 2; ++a) {
      service.bind_reader(100 * (z + 1) + a, z, a);
    }
  }
  for (std::uint64_t e = 0; e < kEpochs; ++e) {
    for (std::size_t z = 0; z < kZones; ++z) service.begin_epoch(z);
    for (std::size_t z = 0; z < kZones; ++z) {
      for (std::size_t a = 0; a < 2; ++a) {
        (void)service.router().route(100 * (z + 1) + a, epoch_report(z, a, e));
      }
    }
    (void)service.run_pending();
  }
  std::vector<std::vector<ZoneFix>> out;
  for (std::size_t z = 0; z < kZones; ++z) {
    const FixLog& log = service.fixes(z);
    out.emplace_back(log.begin(), log.end());
  }
  return out;
}

/// The standalone reference: one pipeline per zone, same traffic.
std::vector<core::ConfidentEstimate> run_standalone(std::size_t zone) {
  ZoneConfig cfg = zone_config(zone);
  cfg.pipeline.num_workers = 1;
  core::DWatchPipeline pipe(cfg.arrays, cfg.bounds, cfg.pipeline);
  install_baselines(pipe, zone);
  std::vector<core::ConfidentEstimate> fixes;
  for (std::uint64_t e = 0; e < kEpochs; ++e) {
    pipe.begin_epoch(0);
    for (std::size_t a = 0; a < 2; ++a) {
      const rfid::RoAccessReport report = epoch_report(zone, a, e);
      for (const rfid::TagObservation& obs : report.observations) {
        (void)pipe.observe(a, obs);
      }
    }
    fixes.push_back(pipe.localize_with_confidence(cfg.best_effort));
  }
  return fixes;
}

void expect_bit_identical(const ZoneFix& got,
                          const core::ConfidentEstimate& want) {
  // EXPECT_EQ on doubles is exact comparison — bit-identical, not
  // "close enough".
  EXPECT_EQ(got.result.estimate.position.x, want.estimate.position.x);
  EXPECT_EQ(got.result.estimate.position.y, want.estimate.position.y);
  EXPECT_EQ(got.result.estimate.likelihood, want.estimate.likelihood);
  EXPECT_EQ(got.result.estimate.consensus, want.estimate.consensus);
  EXPECT_EQ(got.result.estimate.valid, want.estimate.valid);
  EXPECT_EQ(got.result.confidence, want.confidence);
}

TEST(ServeDeterminism, ZoneFixesBitIdenticalToStandaloneAtEveryWorkerCount) {
  std::vector<std::vector<core::ConfidentEstimate>> standalone;
  for (std::size_t z = 0; z < kZones; ++z) {
    standalone.push_back(run_standalone(z));
  }
  // The fixes must be real fixes, or the test proves nothing.
  for (std::size_t z = 0; z < kZones; ++z) {
    for (const auto& fix : standalone[z]) {
      ASSERT_TRUE(fix.estimate.valid);
      ASSERT_NEAR(rf::distance(fix.estimate.position, zone_target(z)), 0.0,
                  0.3);
    }
  }
  for (const std::size_t workers : {1u, 2u, 4u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    const auto fleet = run_fleet(workers);
    for (std::size_t z = 0; z < kZones; ++z) {
      SCOPED_TRACE("zone=" + std::to_string(z));
      ASSERT_EQ(fleet[z].size(), kEpochs);
      for (std::uint64_t e = 0; e < kEpochs; ++e) {
        expect_bit_identical(fleet[z][e], standalone[z][e]);
      }
    }
  }
}

TEST(ServeBackpressure, SixteenZoneOverloadShedsOldestBounded) {
  obs::set_enabled(true);
  obs::MetricsRegistry::global().reset();
  obs::EventLog::global().clear();

  constexpr std::size_t kFleet = 16;
  constexpr std::size_t kCap = 2;
  constexpr std::uint64_t kSubmitted = 5;
  ServiceOptions opts;
  opts.num_workers = 4;
  opts.max_queue_per_zone = kCap;
  LocalizationService service(opts);
  for (std::size_t z = 0; z < kFleet; ++z) {
    (void)service.add_zone(zone_config(z));
  }

  // Overload: every zone seals 5 epochs (watermarks 1..5) before the
  // serving loop gets one run_pending in.
  for (std::uint64_t e = 0; e < kSubmitted; ++e) {
    for (std::size_t z = 0; z < kFleet; ++z) {
      service.begin_epoch(z, e + 1);  // auto-seals the previous epoch
    }
  }
  // Queues are bounded the whole way — never past cap * zones.
  EXPECT_LE(service.scheduler().total_pending(), kCap * kFleet);

  const std::size_t processed = service.run_pending();
  EXPECT_EQ(processed, kCap * kFleet);
  EXPECT_EQ(service.scheduler().total_pending(), 0u);

  constexpr std::uint64_t kShedPerZone = kSubmitted - kCap;
  EXPECT_EQ(service.scheduler().shed_total(), kShedPerZone * kFleet);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.epochs_shed, kShedPerZone * kFleet);
  EXPECT_EQ(stats.epochs_submitted, kSubmitted * kFleet);
  EXPECT_EQ(stats.epochs_processed, kCap * kFleet);

  for (std::size_t z = 0; z < kFleet; ++z) {
    EXPECT_EQ(service.zone_stats(z).epochs_shed, kShedPerZone);
    // The survivors are the NEWEST epochs (watermarks 4 and 5), in
    // submission order — oldest-first shedding, FIFO processing.
    const auto& fixes = service.fixes(z);
    ASSERT_EQ(fixes.size(), kCap);
    EXPECT_EQ(fixes[0].watermark_us, kSubmitted - 1);
    EXPECT_EQ(fixes[1].watermark_us, kSubmitted);
  }

  // The shed counter is per-zone labelled and the events carry the
  // zone name — the ISSUE's "counted, never silent" requirement. In a
  // DWATCH_OBS=OFF tree the counter and events are compiled out, so
  // only check them when obs is compiled in; the scheduler-level shed
  // accounting above covers both configurations.
#if DWATCH_OBS_ENABLED
  EXPECT_EQ(obs::MetricsRegistry::global()
                .counter("dwatch_serve_shed_total", "zone=\"zone3\"")
                .value(),
            kShedPerZone);
  std::size_t shed_events = 0;
  for (const std::string& line : obs::EventLog::global().snapshot()) {
    if (line.find("serve.epoch_shed") != std::string::npos) ++shed_events;
  }
  EXPECT_EQ(shed_events, kShedPerZone * kFleet);

  // Ring overwrites surface as a scrapeable counter
  // (dwatch_obs_events_dropped_total), not only via the in-process
  // dropped() accessor: shrink the global ring so further emits must
  // overwrite, then count the overflow.
  obs::Counter& dropped =
      obs::MetricsRegistry::global().counter("dwatch_obs_events_dropped_total");
  const std::uint64_t dropped_before = dropped.value();
  obs::EventLog::global().clear();
  obs::EventLog::global().set_capacity(4);
  for (int i = 0; i < 10; ++i) {
    obs::EventLog::global().emit(
        obs::Event("serve.test_overflow").field("i", i));
  }
  EXPECT_EQ(dropped.value(), dropped_before + 6);
  EXPECT_EQ(obs::EventLog::global().size(), 4u);
  obs::EventLog::global().set_capacity(65536);
#endif

  obs::set_enabled(false);
}

TEST(ServeFixLog, RetainsTheLatestFixesAndCountsEveryOne) {
  constexpr std::size_t kKept = FixLog::kRetained;
  constexpr std::size_t kPushed = 2 * kKept + 300;
  FixLog log;
  EXPECT_EQ(log.size(), 0u);
  EXPECT_THROW((void)log.back(), std::out_of_range);
  EXPECT_THROW((void)log[0], std::out_of_range);
  for (std::size_t i = 0; i < kPushed; ++i) {
    log.push_back(ZoneFix{i, 10 * i, {}});
  }
  EXPECT_EQ(log.size(), kPushed);
  EXPECT_EQ(log.back().seq, kPushed - 1);
  EXPECT_EQ(log.first_retained(), kPushed - kKept);

  // Evicted and not-yet-produced fixes throw; retained ones keep their
  // global index.
  EXPECT_THROW((void)log[0], std::out_of_range);
  EXPECT_THROW((void)log[kPushed - kKept - 1], std::out_of_range);
  EXPECT_THROW((void)log[kPushed], std::out_of_range);
  EXPECT_EQ(log[kPushed - kKept].seq, kPushed - kKept);
  EXPECT_EQ(log[kPushed - 1].watermark_us, 10 * (kPushed - 1));

  std::vector<std::uint64_t> seqs;
  for (const ZoneFix& fix : log) seqs.push_back(fix.seq);
  ASSERT_EQ(seqs.size(), kKept);
  for (std::size_t i = 0; i < kKept; ++i) {
    EXPECT_EQ(seqs[i], kPushed - kKept + i) << "position " << i;
  }
}

TEST(ServeScheduler, FifoWithinZoneAndOldestShedFirst) {
  EpochScheduler sched(2, 2);
  std::vector<std::uint64_t> shed_seqs;
  sched.set_shed_hook(
      [&](const PendingEpoch& e) { shed_seqs.push_back(e.seq); });

  for (int i = 0; i < 4; ++i) {
    PendingEpoch e;
    e.zone = 0;
    EXPECT_EQ(sched.submit(std::move(e)), i < 2 ? 0u : 1u);
  }
  PendingEpoch other;
  other.zone = 1;
  (void)sched.submit(std::move(other));

  // seqs 0..3 went to zone 0; 0 and 1 were shed oldest-first.
  EXPECT_EQ(shed_seqs, (std::vector<std::uint64_t>{0, 1}));
  EXPECT_EQ(sched.pending(0), 2u);
  EXPECT_EQ(sched.pending(1), 1u);

  std::vector<std::pair<std::size_t, std::uint64_t>> order;
  EXPECT_EQ(sched.run_pending(nullptr,
                              [&](PendingEpoch&& e) {
                                order.emplace_back(e.zone, e.seq);
                              }),
            3u);
  // Serial drain: zone order, FIFO inside each zone.
  EXPECT_EQ(order,
            (std::vector<std::pair<std::size_t, std::uint64_t>>{
                {0, 2}, {0, 3}, {1, 4}}));
  EXPECT_EQ(sched.processed_total(), 3u);
  EXPECT_EQ(sched.total_pending(), 0u);

  PendingEpoch bad;
  bad.zone = 9;
  EXPECT_THROW((void)sched.submit(std::move(bad)), std::out_of_range);
  EXPECT_THROW((void)sched.pending(9), std::out_of_range);
}

TEST(ServeRouter, BindingRulesAndUnroutableCounting) {
  SessionRouter router;
  EXPECT_THROW(router.bind(0, {0, 0}), std::invalid_argument);
  EXPECT_FALSE(router.resolve(42).has_value());

  router.bind(42, {1, 0});
  ASSERT_TRUE(router.resolve(42).has_value());
  EXPECT_EQ(router.resolve(42)->zone, 1u);

  std::vector<RouteTarget> seen;
  router.set_sink(
      [&](RouteTarget t, const rfid::RoAccessReport&) { seen.push_back(t); });

  rfid::RoAccessReport report;
  EXPECT_TRUE(router.route(42, report).has_value());
  EXPECT_FALSE(router.route(7, report).has_value());  // unbound
  router.unbind(42);
  EXPECT_FALSE(router.route(42, report).has_value());

  EXPECT_EQ(seen.size(), 1u);
  EXPECT_EQ(router.reports_routed(), 1u);
  EXPECT_EQ(router.reports_unroutable(), 2u);
}

TEST(ServeRouter, AttachedClientStreamsIntoZoneEpoch) {
  LocalizationService service;
  const std::size_t z = service.add_zone(zone_config(0));
  install_baselines(service.zone(z).pipeline(), 0);

  // A client whose transport always times out still delivers decoded
  // reports (the data plane is a different path than the control plane).
  rfid::RobustSessionClient client(
      [](std::span<const std::uint8_t>) { return std::nullopt; });
  service.attach_client(client, 500, z, 0);
  EXPECT_EQ(client.reader_id(), 500u);

  service.begin_epoch(z);
  client.deliver_report(epoch_report(0, 0, 0));
  EXPECT_EQ(client.reports_delivered(), 1u);
  EXPECT_EQ(service.zone_stats(z).reports_routed, 1u);
  EXPECT_EQ(service.router().reports_routed(), 1u);

  EXPECT_EQ(service.run_pending(), 1u);
  ASSERT_EQ(service.fixes(z).size(), 1u);
  // One array of evidence: no consensus fix, but the epoch ran.
  EXPECT_EQ(service.zone_stats(z).epochs_processed, 1u);
}

TEST(ServeZone, ConfigValidationAndRecoveryWiring) {
  LocalizationService service;
  ZoneConfig bad = zone_config(0);
  bad.name.clear();
  EXPECT_THROW((void)service.add_zone(std::move(bad)), std::invalid_argument);

  ZoneConfig mismatched = zone_config(0);
  mismatched.calibration.resize(1);  // 2 arrays, 1 calibration
  EXPECT_THROW((void)service.add_zone(std::move(mismatched)),
               std::invalid_argument);

  ZoneConfig plain = zone_config(0);
  const std::size_t z0 = service.add_zone(std::move(plain));
  EXPECT_EQ(service.zone(z0).coordinator(), nullptr);

  // A zone with calibrators gets its own coordinator; checkpoint_every
  // is forced off when no path is configured.
  ZoneConfig healing = zone_config(1);
  healing.calibrators = {
      core::WirelessCalibrator(rf::kDefaultElementSpacing,
                               rf::kDefaultWavelength),
      core::WirelessCalibrator(rf::kDefaultElementSpacing,
                               rf::kDefaultWavelength)};
  healing.recovery.background = false;
  const std::size_t z1 = service.add_zone(std::move(healing));
  ASSERT_NE(service.zone(z1).coordinator(), nullptr);

  // Driving an epoch through the service also drives the coordinator's
  // end_epoch (no anchors: watchdog skips, no checkpoint configured).
  service.begin_epoch(z1);
  service.add_anchors(z1, std::vector<std::vector<core::CalibrationMeasurement>>(2));
  EXPECT_EQ(service.run_pending(), 1u);
  EXPECT_EQ(service.zone(z1).coordinator()->stats().checkpoints_written, 0u);

  EXPECT_THROW((void)service.zone(99), std::out_of_range);
  EXPECT_THROW(service.bind_reader(1, z0, 9), std::out_of_range);
  EXPECT_THROW(service.add_report(z0, 0, {}), std::logic_error);
}

}  // namespace
}  // namespace dwatch::serve
