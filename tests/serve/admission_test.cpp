// Admission-control + brownout suite. The contracts that make overload
// protection safe to deploy:
//
//  1. Anchor traffic is NEVER shed — not by backpressure, not by any
//     brownout tier. Calibration cadence survives every storm.
//  2. The tier ladder moves monotonically: escalation one tier per
//     evaluation, de-escalation damped by a hold-down so the fleet
//     doesn't flap around the threshold.
//  3. Below capacity the controller is inert: every fix is
//     BIT-IDENTICAL to an admission_control=false service fed the same
//     reports — including after a coarsen tier has been applied and
//     released.
//  4. Degradation is typed and ordered: widen -> coarsen -> shed bulk
//     -> reject bulk, each observable in the decision, the stats, and
//     the metrics.
//
// Plus the reentrancy regressions: every scheduler/controller hook
// fires OUTSIDE the lock, so a hook may scrape or resubmit without
// deadlocking (these tests would hang, not fail, on regression).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "obs/event_log.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "rf/noise.hpp"
#include "rf/snapshot.hpp"
#include "serve/admission.hpp"
#include "serve/service.hpp"

namespace dwatch::serve {
namespace {

/// Scriptable budget source: every zone reports the same signal.
struct FakeProvider final : BudgetProvider {
  BudgetSignal signal;
  [[nodiscard]] BudgetSignal zone_budget(std::size_t) const override {
    return signal;
  }
};

// ---------------------------------------------------------------------------
// Controller unit tests
// ---------------------------------------------------------------------------

TEST(AdmissionController, OptionValidation) {
  AdmissionOptions bad;
  bad.escalate_pressure = {2.0, 1.0, 4.0, 6.0};  // decreasing
  EXPECT_THROW(AdmissionController{bad}, std::invalid_argument);
  bad = {};
  bad.escalate_pressure[0] = 0.0;  // non-positive
  EXPECT_THROW(AdmissionController{bad}, std::invalid_argument);
  bad = {};
  bad.deescalate_ratio = 1.0;
  EXPECT_THROW(AdmissionController{bad}, std::invalid_argument);
  bad = {};
  bad.hold_down_evals = 0;
  EXPECT_THROW(AdmissionController{bad}, std::invalid_argument);
}

TEST(AdmissionController, NoProviderMeansNoPressure) {
  AdmissionController ctl;
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(ctl.evaluate(4), BrownoutTier::kNormal);
  }
  EXPECT_DOUBLE_EQ(ctl.last_pressure(), 0.0);
}

TEST(AdmissionController, EscalatesExactlyOneTierPerEvaluate) {
  AdmissionController ctl;
  FakeProvider provider;
  provider.signal.fast_burn = 100.0;  // above every threshold at once
  ctl.set_budget_provider(&provider);

  EXPECT_EQ(ctl.evaluate(1), BrownoutTier::kWidenEpochs);
  EXPECT_EQ(ctl.evaluate(1), BrownoutTier::kCoarsen);
  EXPECT_EQ(ctl.evaluate(1), BrownoutTier::kShedBulk);
  EXPECT_EQ(ctl.evaluate(1), BrownoutTier::kRejectBulk);
  // Top of the ladder: stays put, never wraps.
  EXPECT_EQ(ctl.evaluate(1), BrownoutTier::kRejectBulk);
  EXPECT_EQ(ctl.evaluations(), 5u);
}

TEST(AdmissionController, PressureStopsAtItsTier) {
  AdmissionController ctl;
  FakeProvider provider;
  // Default ladder {2, 3, 4, 6}: 3.5 clears tier 1's threshold and
  // tier 2's release band but not tier 2's escalation.
  provider.signal.fast_burn = 3.5;
  ctl.set_budget_provider(&provider);
  EXPECT_EQ(ctl.evaluate(1), BrownoutTier::kWidenEpochs);
  EXPECT_EQ(ctl.evaluate(1), BrownoutTier::kCoarsen);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(ctl.evaluate(1), BrownoutTier::kCoarsen);
  }
}

TEST(AdmissionController, DeescalationNeedsHoldDownAndIsDamped) {
  AdmissionOptions opts;
  opts.hold_down_evals = 3;
  AdmissionController ctl(opts);
  FakeProvider provider;
  provider.signal.fast_burn = 3.5;
  ctl.set_budget_provider(&provider);
  (void)ctl.evaluate(1);
  (void)ctl.evaluate(1);
  ASSERT_EQ(ctl.tier(), BrownoutTier::kCoarsen);

  // Calm: tier 2's release threshold is escalate[1] * ratio = 1.5.
  provider.signal.fast_burn = 0.0;
  EXPECT_EQ(ctl.evaluate(1), BrownoutTier::kCoarsen);  // calm 1
  EXPECT_EQ(ctl.evaluate(1), BrownoutTier::kCoarsen);  // calm 2
  EXPECT_EQ(ctl.evaluate(1), BrownoutTier::kWidenEpochs);  // calm 3: down 1

  // A pressure spike inside the hold-down resets the calm counter.
  EXPECT_EQ(ctl.evaluate(1), BrownoutTier::kWidenEpochs);  // calm 1
  provider.signal.fast_burn = 1.5;  // in-band for tier 1 (release 1.0)
  EXPECT_EQ(ctl.evaluate(1), BrownoutTier::kWidenEpochs);  // resets
  provider.signal.fast_burn = 0.0;
  EXPECT_EQ(ctl.evaluate(1), BrownoutTier::kWidenEpochs);  // calm 1
  EXPECT_EQ(ctl.evaluate(1), BrownoutTier::kWidenEpochs);  // calm 2
  EXPECT_EQ(ctl.evaluate(1), BrownoutTier::kNormal);       // calm 3
}

TEST(AdmissionController, LatchAndExhaustedBudgetRaisePressure) {
  AdmissionController ctl;
  FakeProvider provider;
  // Fast window drained but the alert is latched: the slow burn keeps
  // the pressure up.
  provider.signal.fast_burn = 0.5;
  provider.signal.slow_burn = 2.5;
  provider.signal.alert_latched = true;
  ctl.set_budget_provider(&provider);
  EXPECT_EQ(ctl.evaluate(1), BrownoutTier::kWidenEpochs);
  EXPECT_DOUBLE_EQ(ctl.last_pressure(), 2.5);

  // Exhausted budget doubles the effective pressure (default boost 2).
  provider.signal = {};
  provider.signal.fast_burn = 1.5;
  provider.signal.budget_remaining = 0.0;
  EXPECT_EQ(ctl.evaluate(1), BrownoutTier::kCoarsen);
  EXPECT_DOUBLE_EQ(ctl.last_pressure(), 3.0);
}

TEST(AdmissionController, DecideRejectsOnlyBulkAtTopTier) {
  AdmissionController ctl;
  FakeProvider provider;
  provider.signal.fast_burn = 100.0;
  ctl.set_budget_provider(&provider);
  for (int i = 0; i < 4; ++i) (void)ctl.evaluate(1);
  ASSERT_EQ(ctl.tier(), BrownoutTier::kRejectBulk);

  const AdmissionDecision bulk = ctl.decide(TrafficClass::kBulk);
  EXPECT_FALSE(bulk.admitted);
  EXPECT_EQ(bulk.traffic_class, TrafficClass::kBulk);
  EXPECT_EQ(bulk.tier, BrownoutTier::kRejectBulk);

  EXPECT_TRUE(ctl.decide(TrafficClass::kTracking).admitted);
  EXPECT_TRUE(ctl.decide(TrafficClass::kAnchor).admitted);
  EXPECT_EQ(ctl.rejected_total(TrafficClass::kBulk), 1u);
  EXPECT_EQ(ctl.admitted_total(TrafficClass::kTracking), 1u);
  EXPECT_EQ(ctl.admitted_total(TrafficClass::kAnchor), 1u);
  EXPECT_EQ(ctl.rejected_total(TrafficClass::kAnchor), 0u);
}

TEST(AdmissionController, ClassifyAnchorPresenceWinsOverZoneClass) {
  AdmissionController ctl;
  ctl.set_zone_class(3, TrafficClass::kBulk);
  EXPECT_EQ(ctl.classify(3, false), TrafficClass::kBulk);
  EXPECT_EQ(ctl.classify(3, true), TrafficClass::kAnchor);
  // Unregistered zones default to tracking.
  EXPECT_EQ(ctl.classify(99, false), TrafficClass::kTracking);
}

TEST(AdmissionController, TierChangeHookFiresOutsideTheLock) {
  AdmissionController ctl;
  FakeProvider provider;
  provider.signal.fast_burn = 100.0;
  ctl.set_budget_provider(&provider);
  std::vector<std::pair<BrownoutTier, BrownoutTier>> moves;
  // Re-entering the controller from the hook deadlocks if evaluate()
  // still holds the mutex when it fires — this test would hang.
  ctl.set_tier_change_hook(
      [&](BrownoutTier from, BrownoutTier to, double pressure) {
        EXPECT_EQ(ctl.tier(), to);
        EXPECT_GT(pressure, 0.0);
        (void)ctl.decide(TrafficClass::kTracking);
        moves.emplace_back(from, to);
      });
  (void)ctl.evaluate(1);
  (void)ctl.evaluate(1);
  ASSERT_EQ(moves.size(), 2u);
  EXPECT_EQ(moves[0].first, BrownoutTier::kNormal);
  EXPECT_EQ(moves[0].second, BrownoutTier::kWidenEpochs);
  EXPECT_EQ(moves[1].second, BrownoutTier::kCoarsen);
}

// ---------------------------------------------------------------------------
// Class-aware scheduler
// ---------------------------------------------------------------------------

PendingEpoch classed(std::size_t zone, TrafficClass cls) {
  PendingEpoch e;
  e.zone = zone;
  e.traffic_class = cls;
  return e;
}

TEST(ServeScheduler, VictimIsLowestClassThenOldest) {
  EpochScheduler sched(1, 2);
  std::vector<std::pair<TrafficClass, std::uint64_t>> shed;
  sched.set_shed_hook([&](const PendingEpoch& e) {
    shed.emplace_back(e.traffic_class, e.seq);
  });

  // Queue: [anchor(0), bulk(1)]. Incoming tracking displaces the bulk
  // even though bulk is not the oldest.
  (void)sched.submit(classed(0, TrafficClass::kAnchor));
  (void)sched.submit(classed(0, TrafficClass::kBulk));
  EXPECT_EQ(sched.submit(classed(0, TrafficClass::kTracking)), 1u);
  ASSERT_EQ(shed.size(), 1u);
  EXPECT_EQ(shed[0].first, TrafficClass::kBulk);
  EXPECT_EQ(shed[0].second, 1u);

  // Queue: [anchor(0), tracking(2)]. An incoming BULK epoch is itself
  // the strictly lowest class — it is the victim, never queued.
  EXPECT_EQ(sched.submit(classed(0, TrafficClass::kBulk)), 1u);
  ASSERT_EQ(shed.size(), 2u);
  EXPECT_EQ(shed[1].first, TrafficClass::kBulk);
  EXPECT_EQ(shed[1].second, 3u);
  EXPECT_EQ(sched.pending(0), 2u);

  // Same class throughout -> oldest-first (the historical policy).
  EXPECT_EQ(sched.submit(classed(0, TrafficClass::kTracking)), 1u);
  EXPECT_EQ(shed[2].first, TrafficClass::kTracking);
  EXPECT_EQ(shed[2].second, 2u);

  EXPECT_EQ(sched.shed_by_class(TrafficClass::kBulk), 2u);
  EXPECT_EQ(sched.shed_by_class(TrafficClass::kTracking), 1u);
  EXPECT_EQ(sched.shed_by_class(TrafficClass::kAnchor), 0u);
}

TEST(ServeScheduler, AllAnchorQueueAdmitsOverCapInsteadOfShedding) {
  EpochScheduler sched(1, 2);
  std::uint64_t sheds = 0;
  sched.set_shed_hook([&](const PendingEpoch&) { ++sheds; });
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(sched.submit(classed(0, TrafficClass::kAnchor)), 0u);
  }
  EXPECT_EQ(sheds, 0u);
  EXPECT_EQ(sched.pending(0), 4u);  // over the cap of 2, deliberately
  EXPECT_EQ(sched.shed_by_class(TrafficClass::kAnchor), 0u);
}

TEST(ServeScheduler, ShedHookMayScrapeAndResubmitWithoutDeadlock) {
  EpochScheduler sched(2, 1);
  std::uint64_t hook_calls = 0;
  sched.set_shed_hook([&](const PendingEpoch& e) {
    ++hook_calls;
    // Scrape from inside the hook (regression: hook under the lock
    // would deadlock right here)...
    EXPECT_EQ(sched.pending(e.zone), 1u);
    (void)sched.total_pending();
    (void)sched.shed_total();
    // ...and even resubmit to another zone, once.
    if (hook_calls == 1) {
      (void)sched.submit(classed(1, TrafficClass::kTracking));
    }
  });
  (void)sched.submit(classed(0, TrafficClass::kTracking));
  (void)sched.submit(classed(0, TrafficClass::kTracking));  // sheds seq 0
  EXPECT_EQ(hook_calls, 1u);
  EXPECT_EQ(sched.pending(1), 1u);
}

TEST(ServeScheduler, PurgeClassDropsOnlyThatClassAndFiresHooksUnlocked) {
  EpochScheduler sched(2, 4);
  (void)sched.submit(classed(0, TrafficClass::kBulk));
  (void)sched.submit(classed(0, TrafficClass::kTracking));
  (void)sched.submit(classed(0, TrafficClass::kBulk));
  (void)sched.submit(classed(1, TrafficClass::kBulk));
  (void)sched.submit(classed(1, TrafficClass::kAnchor));

  std::vector<std::uint64_t> purged_seqs;
  sched.set_shed_hook([&](const PendingEpoch& e) {
    EXPECT_EQ(e.traffic_class, TrafficClass::kBulk);
    (void)sched.total_pending();  // reentrancy: must not deadlock
    purged_seqs.push_back(e.seq);
  });
  EXPECT_EQ(sched.purge_class(TrafficClass::kBulk), 3u);
  EXPECT_EQ(purged_seqs, (std::vector<std::uint64_t>{0, 2, 3}));
  EXPECT_EQ(sched.pending(0), 1u);  // the tracking epoch
  EXPECT_EQ(sched.pending(1), 1u);  // the anchor epoch
  EXPECT_EQ(sched.shed_by_class(TrafficClass::kBulk), 3u);
  EXPECT_EQ(sched.purge_class(TrafficClass::kBulk), 0u);  // idempotent
}

// ---------------------------------------------------------------------------
// Service-level: the full brownout ladder
// ---------------------------------------------------------------------------

std::vector<rf::UniformLinearArray> zone_arrays() {
  return {
      rf::UniformLinearArray({3.5, 0.15, 1.25}, {1, 0}, 8),
      rf::UniformLinearArray({0.15, 5.0, 1.25}, {0, 1}, 8),
  };
}

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

constexpr rf::Vec2 kTarget{2.0, 3.0};

rfid::RoAccessReport epoch_report(std::size_t array, std::uint64_t epoch) {
  const auto arrays = zone_arrays();
  const double angle = arrays[array].arrival_angle_planar(kTarget);
  const std::uint64_t seed = 10 * epoch + array + 1;
  rfid::RoAccessReport report;
  report.message_id = static_cast<std::uint32_t>(seed);
  report.observations.push_back(wire_obs(
      synth(arrays[array], angle, 0.2, seed),
      rfid::Epc96::for_tag_index(static_cast<std::uint32_t>(array + 1))));
  return report;
}

void install_baselines(core::DWatchPipeline& pipe) {
  const auto arrays = zone_arrays();
  for (std::size_t a = 0; a < arrays.size(); ++a) {
    const double angle = arrays[a].arrival_angle_planar(kTarget);
    pipe.add_baseline(
        a, rfid::Epc96::for_tag_index(static_cast<std::uint32_t>(a + 1)),
        synth(arrays[a], angle, 1.0, 500 + a));
  }
}

ZoneConfig zone_config(TrafficClass cls = TrafficClass::kTracking) {
  ZoneConfig cfg;
  cfg.name = "zone0";
  cfg.arrays = zone_arrays();
  cfg.bounds = {{0.0, 0.0}, {7.0, 10.0}};
  cfg.traffic_class = cls;
  return cfg;
}

void drive_one_epoch(LocalizationService& service, std::uint64_t epoch) {
  // Watermark 0: the synthesized observations carry no first_seen_us,
  // so a nonzero watermark would stale-reject every report.
  service.begin_epoch(0);
  (void)epoch;
  for (std::size_t a = 0; a < 2; ++a) {
    service.add_report(0, a, epoch_report(a, epoch));
  }
  (void)service.run_pending();
}

void expect_bit_identical(const ZoneFix& got, const ZoneFix& want) {
  EXPECT_EQ(got.result.estimate.position.x, want.result.estimate.position.x);
  EXPECT_EQ(got.result.estimate.position.y, want.result.estimate.position.y);
  EXPECT_EQ(got.result.estimate.likelihood, want.result.estimate.likelihood);
  EXPECT_EQ(got.result.estimate.valid, want.result.estimate.valid);
  EXPECT_EQ(got.result.confidence, want.result.confidence);
}

TEST(ServeAdmission, InertBelowCapacityAndBitIdenticalAfterCoarsenRelease) {
  // Reference: the pre-admission serving loop, byte for byte.
  ServiceOptions plain_opts;
  plain_opts.num_workers = 1;
  plain_opts.admission_control = false;
  LocalizationService plain(plain_opts);
  (void)plain.add_zone(zone_config());
  install_baselines(plain.zone(0).pipeline());
  drive_one_epoch(plain, 0);
  drive_one_epoch(plain, 1);
  ASSERT_EQ(plain.fixes(0).size(), 2u);
  ASSERT_TRUE(plain.fixes(0)[0].result.estimate.valid);

  // Admission ON with a calm provider: identical fix, tier stays 0.
  ServiceOptions opts;
  opts.num_workers = 1;
  LocalizationService service(opts);
  (void)service.add_zone(zone_config());
  install_baselines(service.zone(0).pipeline());
  FakeProvider provider;
  service.set_budget_provider(&provider);
  drive_one_epoch(service, 0);
  EXPECT_EQ(service.admission().tier(), BrownoutTier::kNormal);
  ASSERT_EQ(service.fixes(0).size(), 1u);
  expect_bit_identical(service.fixes(0)[0], plain.fixes(0)[0]);

  // Storm: climb to kCoarsen; the coarsening profile lands on the
  // zone pipeline.
  provider.signal.fast_burn = 3.5;
  (void)service.run_pending();
  (void)service.run_pending();
  ASSERT_EQ(service.admission().tier(), BrownoutTier::kCoarsen);
  EXPECT_EQ(service.zone(0).pipeline().brownout().grid_stride,
            opts.admission.coarse_grid_stride);
  EXPECT_EQ(service.zone(0).pipeline().brownout().max_signal_rank,
            opts.admission.coarse_max_signal_rank);

  // Calm again: hold-down (3) per step, two steps back to normal. The
  // profile must clear and the NEXT fix must be bit-identical to the
  // reference run's — coarsening leaves no residue.
  provider.signal.fast_burn = 0.0;
  for (int i = 0; i < 6; ++i) (void)service.run_pending();
  ASSERT_EQ(service.admission().tier(), BrownoutTier::kNormal);
  EXPECT_EQ(service.zone(0).pipeline().brownout(), core::BrownoutProfile{});
  drive_one_epoch(service, 1);
  ASSERT_EQ(service.fixes(0).size(), 2u);
  expect_bit_identical(service.fixes(0)[1], plain.fixes(0)[1]);
}

TEST(ServeAdmission, WidenTierAbsorbsTicksAndKeepsFirstWatermark) {
  ServiceOptions opts;
  opts.num_workers = 1;
  LocalizationService service(opts);
  (void)service.add_zone(zone_config());
  FakeProvider provider;
  service.set_budget_provider(&provider);

  // Pressure 2.5: exactly tier 1 (widen), default widen_factor 2.
  provider.signal.fast_burn = 2.5;
  (void)service.run_pending();
  ASSERT_EQ(service.admission().tier(), BrownoutTier::kWidenEpochs);

  service.begin_epoch(0, 1);  // fresh epoch, watermark 1
  service.begin_epoch(0, 2);  // absorbed: widened, watermark stays 1
  service.begin_epoch(0, 3);  // widen limit reached: seals, reopens
  const ServiceStats mid = service.stats();
  EXPECT_EQ(mid.epochs_widened, 1u);
  EXPECT_EQ(mid.epochs_submitted, 1u);

  (void)service.run_pending();  // seals the watermark-3 epoch too
  ASSERT_EQ(service.fixes(0).size(), 2u);
  // The widened epoch kept its FIRST tick's watermark: a later one
  // would have turned the first tick's reports stale in their own
  // epoch.
  EXPECT_EQ(service.fixes(0)[0].watermark_us, 1u);
  EXPECT_EQ(service.fixes(0)[1].watermark_us, 3u);

  // An epoch that carries anchors seals on schedule — widening never
  // delays the calibration cadence.
  service.begin_epoch(0, 4);
  service.add_anchors(
      0, std::vector<std::vector<core::CalibrationMeasurement>>(2));
  service.begin_epoch(0, 5);  // would widen; anchors force the seal
  const ServiceStats after = service.stats();
  EXPECT_EQ(after.epochs_widened, 1u);  // unchanged
  EXPECT_EQ(after.submitted_by_class[static_cast<std::size_t>(
                TrafficClass::kAnchor)],
            1u);
}

TEST(ServeAdmission, BulkIsPurgedAtShedBulkAndRefusedAtRejectBulk) {
  ServiceOptions opts;
  opts.num_workers = 1;
  opts.max_queue_per_zone = 4;
  LocalizationService service(opts);
  (void)service.add_zone(zone_config(TrafficClass::kBulk));
  FakeProvider provider;
  service.set_budget_provider(&provider);

  // Pressure 5 saturates at tier 3 (shed bulk) on the default ladder.
  provider.signal.fast_burn = 5.0;
  for (int i = 0; i < 3; ++i) (void)service.run_pending();
  ASSERT_EQ(service.admission().tier(), BrownoutTier::kShedBulk);

  // Queue two bulk epochs, then tick: run_pending purges the bulk
  // backlog BEFORE draining, so neither reaches the pipeline.
  service.begin_epoch(0, 1);
  AdmissionDecision d = service.seal_epoch(0);
  EXPECT_TRUE(d.admitted);
  EXPECT_EQ(d.traffic_class, TrafficClass::kBulk);
  service.begin_epoch(0, 2);
  (void)service.seal_epoch(0);
  (void)service.run_pending();
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.epochs_processed, 0u);
  EXPECT_EQ(
      stats.shed_by_class[static_cast<std::size_t>(TrafficClass::kBulk)],
      2u);

  // Pressure 10 clears tier 4: bulk is now refused at ingest — typed,
  // counted, and the shed observer does NOT fire (the reports were
  // never eligible for a fix).
  provider.signal.fast_burn = 10.0;
  (void)service.run_pending();
  ASSERT_EQ(service.admission().tier(), BrownoutTier::kRejectBulk);
  std::uint64_t shed_observed = 0;
  service.set_shed_observer(
      [&](std::size_t, std::uint64_t) { ++shed_observed; });
  service.begin_epoch(0, 3);
  d = service.seal_epoch(0);
  EXPECT_FALSE(d.admitted);
  EXPECT_EQ(d.tier, BrownoutTier::kRejectBulk);
  EXPECT_EQ(d.sheds, 0u);
  stats = service.stats();
  EXPECT_EQ(stats.epochs_rejected, 1u);
  EXPECT_EQ(shed_observed, 0u);

  // Anchor-carrying epochs from the SAME bulk zone still go through.
  service.begin_epoch(0, 4);
  service.add_anchors(
      0, std::vector<std::vector<core::CalibrationMeasurement>>(2));
  d = service.seal_epoch(0);
  EXPECT_TRUE(d.admitted);
  EXPECT_EQ(d.traffic_class, TrafficClass::kAnchor);
}

TEST(ServeAdmission, AnchorsSurviveOverloadEndToEnd) {
  ServiceOptions opts;
  opts.num_workers = 1;
  opts.max_queue_per_zone = 2;
  LocalizationService service(opts);
  (void)service.add_zone(zone_config());

  // 2 anchor + 4 tracking epochs into a queue of 2: every shed victim
  // must be tracking-class.
  for (std::uint64_t e = 0; e < 6; ++e) {
    service.begin_epoch(0, e + 1);
    if (e % 3 == 0) {
      service.add_anchors(
          0, std::vector<std::vector<core::CalibrationMeasurement>>(2));
    }
    (void)service.seal_epoch(0);
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(
      stats.shed_by_class[static_cast<std::size_t>(TrafficClass::kAnchor)],
      0u);
  EXPECT_EQ(stats.shed_by_class[static_cast<std::size_t>(
                TrafficClass::kTracking)],
            4u);
  // Both anchor epochs are still pending (watermarks 1 and 4).
  EXPECT_EQ(service.run_pending(), 2u);
  ASSERT_EQ(service.fixes(0).size(), 2u);
  EXPECT_EQ(service.fixes(0)[0].watermark_us, 1u);
  EXPECT_EQ(service.fixes(0)[1].watermark_us, 4u);
}

// ---------------------------------------------------------------------------
// Router draining (zone teardown vs mis-configuration)
// ---------------------------------------------------------------------------

TEST(ServeRouter, DrainingReasonSeparatesTeardownFromUnknown) {
  obs::set_enabled(true);
  obs::MetricsRegistry::global().reset();

  SessionRouter router;
  router.set_sink([](RouteTarget, const rfid::RoAccessReport&) {});
  rfid::RoAccessReport report;

  // The teardown interleaving a fleet actually hits: a reader is
  // provisioned, serves traffic, is deregistered, and its in-flight
  // reports keep arriving for a beat.
  router.bind(42, {0, 0});
  EXPECT_TRUE(router.route(42, report).has_value());
  router.unbind(42);
  EXPECT_FALSE(router.route(42, report).has_value());
  EXPECT_FALSE(router.route(42, report).has_value());
  // A reader nobody ever bound is a different failure: mis-cabling.
  EXPECT_FALSE(router.route(7, report).has_value());

  EXPECT_EQ(router.reports_unroutable(), 3u);
  EXPECT_EQ(router.reports_unroutable_draining(), 2u);
  // The labelled registry counters are compiled out of a DWATCH_OBS=OFF
  // tree; the router's own counts above cover both configurations.
#if DWATCH_OBS_ENABLED
  EXPECT_EQ(obs::MetricsRegistry::global()
                .counter("dwatch_serve_unroutable_total",
                         "reason=\"draining\"")
                .value(),
            2u);
  EXPECT_EQ(obs::MetricsRegistry::global()
                .counter("dwatch_serve_unroutable_total",
                         "reason=\"unknown\"")
                .value(),
            1u);
#endif

  // Re-registration clears the draining mark both ways: routes again,
  // and a LATER unbind still counts as draining.
  router.bind(42, {0, 1});
  EXPECT_TRUE(router.route(42, report).has_value());
  router.unbind(42);
  EXPECT_FALSE(router.route(42, report).has_value());
  EXPECT_EQ(router.reports_unroutable_draining(), 3u);

  obs::set_enabled(false);
}

}  // namespace
}  // namespace dwatch::serve
