#include "serve/service.hpp"

#include <chrono>
#include <stdexcept>
#include <utility>

#include "obs/event_log.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"

namespace dwatch::serve {

namespace {

[[nodiscard]] std::string zone_label(const std::string& name) {
  return "zone=\"" + name + "\"";
}

[[nodiscard]] std::uint64_t steady_now_us() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

LocalizationService::LocalizationService(ServiceOptions options)
    : options_(options),
      scheduler_(0, options.max_queue_per_zone),
      admission_(options.admission) {
  if (options_.num_workers != 1) {
    pool_ = std::make_shared<core::ThreadPool>(options_.num_workers);
  }
  registry_.set_thread_pool(pool_);
  router_.set_sink([this](RouteTarget target,
                          const rfid::RoAccessReport& report) {
    add_report(target.zone, target.array, report);
  });
  scheduler_.set_shed_hook(
      [this](const PendingEpoch& epoch) { note_shed(epoch); });
}

std::size_t LocalizationService::add_zone(ZoneConfig config) {
  const TrafficClass cls = config.traffic_class;
  const std::size_t id = registry_.add_zone(std::move(config));
  scheduler_.add_zone();
  admission_.set_zone_class(id, cls);
  open_.emplace_back();
  open_begins_.push_back(0);
  fixes_.emplace_back();
  return id;
}

void LocalizationService::bind_reader(std::uint64_t reader_id,
                                      std::size_t zone, std::size_t array) {
  Zone& z = registry_.zone(zone);  // validates the zone id
  if (array >= z.pipeline().num_arrays()) {
    throw std::out_of_range("serve::LocalizationService: no such array");
  }
  router_.bind(reader_id, RouteTarget{zone, array});
}

void LocalizationService::attach_client(rfid::RobustSessionClient& client,
                                        std::uint64_t reader_id,
                                        std::size_t zone, std::size_t array) {
  bind_reader(reader_id, zone, array);
  router_.attach(client, reader_id);
}

void LocalizationService::begin_epoch(std::size_t zone,
                                      std::uint64_t watermark_us) {
  Zone& z = registry_.zone(zone);  // validates the zone id
  if (open_[zone].has_value()) {
    // Brownout tier 1+: absorb this tick into the open epoch instead
    // of sealing, up to widen_factor ticks per seal. The epoch keeps
    // its FIRST tick's watermark — a later watermark would turn the
    // earlier ticks' reports stale inside their own epoch. An epoch
    // that already carries anchors seals on schedule: widening must
    // never delay the calibration cadence.
    const std::size_t widen =
        options_.admission_control ? admission_.epoch_widen_factor() : 1;
    if (widen > 1 && open_[zone]->anchors.empty() &&
        open_begins_[zone] < widen) {
      ++open_begins_[zone];
      ++z.serving_stats().epochs_widened;
      if (obs::enabled()) {
        obs::MetricsRegistry::global()
            .counter("dwatch_admission_widened_total", zone_label(z.name()))
            .inc();
      }
      return;
    }
    (void)seal_epoch(zone);
  }
  PendingEpoch epoch;
  epoch.zone = zone;
  epoch.watermark_us = watermark_us;
  open_[zone] = std::move(epoch);
  open_begins_[zone] = 1;
}

void LocalizationService::add_report(std::size_t zone, std::size_t array,
                                     const rfid::RoAccessReport& report) {
  Zone& z = registry_.zone(zone);
  if (array >= z.pipeline().num_arrays()) {
    throw std::out_of_range("serve::LocalizationService: no such array");
  }
  if (!open_[zone].has_value()) {
    throw std::logic_error(
        "serve::LocalizationService: no open epoch for zone (begin_epoch "
        "first)");
  }
  open_[zone]->reports.emplace_back(array, report);
  ++z.serving_stats().reports_routed;
}

void LocalizationService::add_anchors(
    std::size_t zone,
    std::vector<std::vector<core::CalibrationMeasurement>> anchors) {
  Zone& z = registry_.zone(zone);
  if (anchors.size() != z.pipeline().num_arrays()) {
    throw std::invalid_argument(
        "serve::LocalizationService: anchors must match the zone's array "
        "count");
  }
  if (!open_[zone].has_value()) {
    throw std::logic_error(
        "serve::LocalizationService: no open epoch for zone (begin_epoch "
        "first)");
  }
  open_[zone]->anchors = std::move(anchors);
}

AdmissionDecision LocalizationService::seal_epoch(std::size_t zone) {
  Zone& z = registry_.zone(zone);
  AdmissionDecision decision;
  if (!open_[zone].has_value()) return decision;
  PendingEpoch epoch = std::move(*open_[zone]);
  open_[zone].reset();
  open_begins_[zone] = 0;
  epoch.traffic_class = admission_.classify(zone, !epoch.anchors.empty());
  decision.traffic_class = epoch.traffic_class;
  decision.tier = admission_.tier();
  if (options_.admission_control) {
    decision = admission_.decide(epoch.traffic_class);
    if (obs::enabled()) {
      obs::MetricsRegistry::global()
          .counter(decision.admitted ? "dwatch_admission_admitted_total"
                                     : "dwatch_admission_rejected_total",
                   std::string("class=\"") +
                       to_string(epoch.traffic_class) + "\"")
          .inc();
    }
    if (!decision.admitted) {
      // Tier 4: the epoch is refused at ingest — typed, counted, never
      // queued. Distinct from a shed: its reports were never eligible
      // for a fix, so the shed observer does not fire.
      ++z.serving_stats().epochs_rejected;
      if (obs::enabled()) {
        obs::EventLog::global().emit(
            obs::Event("serve.epoch_rejected")
                .field("zone", z.name())
                .field("class", to_string(epoch.traffic_class))
                .field("reports", epoch.reports.size()));
      }
      return decision;
    }
  }
  ++z.serving_stats().epochs_submitted;
  decision.sheds = scheduler_.submit(std::move(epoch));
  return decision;
}

std::size_t LocalizationService::run_pending() {
  if (options_.admission_control) {
    const BrownoutTier before = admission_.tier();
    const BrownoutTier after = admission_.evaluate(registry_.num_zones());
    if (after != before) apply_brownout(before, after);
    if (admission_.shed_bulk_backlog_active()) {
      // Tier 3: drop the queued bulk backlog (oldest-first per zone)
      // before sealing this tick's epochs, so the capacity freed goes
      // to tracking/anchor traffic immediately.
      (void)scheduler_.purge_class(TrafficClass::kBulk);
    }
  }
  for (std::size_t z = 0; z < registry_.num_zones(); ++z) {
    (void)seal_epoch(z);
  }
  return scheduler_.run_pending(
      pool_.get(), [this](PendingEpoch&& epoch) {
        process_epoch(std::move(epoch));
      });
}

void LocalizationService::apply_brownout(BrownoutTier from, BrownoutTier to) {
  const bool was_coarse = from >= BrownoutTier::kCoarsen;
  const bool now_coarse = to >= BrownoutTier::kCoarsen;
  if (was_coarse != now_coarse) {
    core::BrownoutProfile profile;  // defaults = configured behaviour
    if (now_coarse) {
      profile.grid_stride = options_.admission.coarse_grid_stride;
      profile.max_signal_rank = options_.admission.coarse_max_signal_rank;
    }
    for (std::size_t z = 0; z < registry_.num_zones(); ++z) {
      registry_.zone(z).pipeline().set_brownout(profile);
    }
  }
  if (obs::enabled()) {
    obs::MetricsRegistry::global()
        .gauge("dwatch_admission_brownout_tier")
        .set(static_cast<double>(to));
    obs::EventLog::global().emit(
        obs::Event("serve.brownout_tier")
            .field("from", to_string(from))
            .field("to", to_string(to))
            .field("pressure", admission_.last_pressure()));
  }
}

void LocalizationService::process_epoch(PendingEpoch&& epoch) {
  DWATCH_SPAN("serve.zone_epoch");
  Zone& z = registry_.zone(epoch.zone);
  core::DWatchPipeline& pipeline = z.pipeline();

  const bool timed = obs::enabled() || static_cast<bool>(epoch_observer_) ||
                     static_cast<bool>(early_fix_observer_);
  const std::uint64_t t0 = timed ? steady_now_us() : 0;

  // Exactly the standalone recipe: begin, observe in arrival order,
  // fix. Anything fancier here would break the bit-identical-to-
  // standalone contract the determinism test pins down. In streaming
  // mode the pipeline may declare likelihood convergence mid-backlog
  // (early_fix_ready); the remaining reports are skipped and the fix
  // exists that much sooner — which is also exactly what a standalone
  // streaming pipeline fed the same reports would do.
  pipeline.begin_epoch(epoch.watermark_us);
  std::size_t reports_fed = 0;
  for (const auto& [array, report] : epoch.reports) {
    if (pipeline.early_fix_ready()) break;
    ++reports_fed;
    for (const rfid::TagObservation& obs : report.observations) {
      (void)pipeline.observe(array, obs);
      if (pipeline.early_fix_ready()) break;
    }
  }
  const core::ConfidentEstimate fix =
      pipeline.localize_with_confidence(z.best_effort());
  const bool early = pipeline.early_fix_ready();
  const std::size_t reports_skipped =
      early ? epoch.reports.size() - reports_fed : 0;
  const std::uint64_t ttff_us = timed ? steady_now_us() - t0 : 0;

  ZoneServingStats& stats = z.serving_stats();
  ++stats.epochs_processed;
  if (fix.estimate.valid) ++stats.fixes_valid;
  if (fix.confidence.degraded()) ++stats.fixes_degraded;
  if (early) {
    ++stats.epochs_early_sealed;
    stats.reports_skipped_early += reports_skipped;
  }
  fixes_[epoch.zone].push_back(ZoneFix{epoch.seq, epoch.watermark_us, fix,
                                       early, ttff_us, reports_skipped});
  if (early && early_fix_observer_) {
    // Fired HERE, on the zone's task thread, before run_pending
    // returns: the whole point of early sealing is that a consumer
    // sees the fix without waiting out the epoch.
    early_fix_observer_(epoch.zone, fixes_[epoch.zone].back());
  }
  if (obs::enabled()) {
    auto& reg = obs::MetricsRegistry::global();
    const std::string label = zone_label(z.name());
    reg.histogram("dwatch_serve_ttff_us",
                  obs::Histogram::stage_latency_bounds_us(), label)
        .observe(static_cast<double>(ttff_us));
    if (early) {
      reg.counter("dwatch_serve_early_seal_total", label).inc();
      obs::EventLog::global().emit(
          obs::Event("serve.early_seal")
              .field("zone", z.name())
              .field("seq", epoch.seq)
              .field("reports_fed", reports_fed)
              .field("reports_skipped", reports_skipped)
              .field("ttff_us", ttff_us));
    }
  }

  recovery::RecoveryCoordinator* coordinator = z.coordinator();
  if (coordinator != nullptr) {
    std::vector<std::vector<core::CalibrationMeasurement>> anchors =
        std::move(epoch.anchors);
    anchors.resize(pipeline.num_arrays());
    (void)coordinator->end_epoch(epoch.seq, anchors);
  }

  const std::uint64_t latency_us = timed ? steady_now_us() - t0 : 0;
  if (obs::enabled()) {
    auto& reg = obs::MetricsRegistry::global();
    const std::string label = zone_label(z.name());
    reg.counter("dwatch_serve_epochs_total", label).inc();
    const auto bounds = obs::Histogram::stage_latency_bounds_us();
    reg.histogram("dwatch_serve_fix_latency_us", bounds, label)
        .observe(static_cast<double>(latency_us));
  }

  if (epoch_observer_) {
    // Built HERE, on the zone's task thread: stats / watchdog /
    // coordinator reads race with nothing, and the observer gets one
    // self-contained value it can hand across threads.
    EpochObservation observation;
    observation.zone = epoch.zone;
    observation.seq = epoch.seq;
    observation.watermark_us = epoch.watermark_us;
    observation.fix_latency_us = latency_us;
    observation.reports = epoch.reports.size();
    observation.fix_valid = fix.estimate.valid;
    observation.fix_degraded = fix.confidence.degraded();
    observation.confidence = fix.confidence;
    observation.stats = stats;
    if (coordinator != nullptr) {
      const recovery::DriftWatchdog& watchdog = coordinator->watchdog();
      observation.drift_states.reserve(watchdog.num_arrays());
      for (std::size_t a = 0; a < watchdog.num_arrays(); ++a) {
        observation.drift_states.push_back(
            static_cast<std::uint8_t>(watchdog.state(a)));
      }
      observation.recovery = coordinator->stats();
    }
    epoch_observer_(observation);
  }
}

void LocalizationService::note_shed(const PendingEpoch& epoch) {
  Zone& z = registry_.zone(epoch.zone);
  ++z.serving_stats().epochs_shed;
  if (obs::enabled()) {
    obs::MetricsRegistry::global()
        .counter("dwatch_serve_shed_total", zone_label(z.name()))
        .inc();
    obs::MetricsRegistry::global()
        .counter("dwatch_admission_shed_total",
                 std::string("class=\"") + to_string(epoch.traffic_class) +
                     "\"")
        .inc();
    obs::EventLog::global().emit(obs::Event("serve.epoch_shed")
                                     .field("zone", z.name())
                                     .field("seq", epoch.seq)
                                     .field("class",
                                            to_string(epoch.traffic_class))
                                     .field("reports", epoch.reports.size()));
  }
  if (shed_observer_) shed_observer_(epoch.zone, epoch.seq);
}

const ZoneFix& FixLog::back() const {
  if (total_ == 0) throw std::out_of_range("serve::FixLog: empty");
  return ring_[(total_ - 1) % kRetained];
}

const ZoneFix& FixLog::operator[](std::size_t i) const {
  if (i >= total_ || i < first_retained()) {
    throw std::out_of_range("serve::FixLog: fix not retained");
  }
  return ring_[i % kRetained];
}

void FixLog::push_back(ZoneFix fix) {
  if (ring_.size() < kRetained) {
    ring_.push_back(std::move(fix));
  } else {
    ring_[total_ % kRetained] = std::move(fix);
  }
  ++total_;
}

const FixLog& LocalizationService::fixes(std::size_t zone) const {
  (void)registry_.zone(zone);  // validates the zone id
  return fixes_[zone];
}

ServiceStats LocalizationService::stats() const {
  ServiceStats total;
  total.zones = registry_.num_zones();
  total.reports_unroutable = router_.reports_unroutable();
  for (std::size_t z = 0; z < registry_.num_zones(); ++z) {
    const ZoneServingStats& s = registry_.zone(z).serving_stats();
    total.epochs_submitted += s.epochs_submitted;
    total.epochs_processed += s.epochs_processed;
    total.epochs_shed += s.epochs_shed;
    total.epochs_widened += s.epochs_widened;
    total.epochs_rejected += s.epochs_rejected;
    total.reports_routed += s.reports_routed;
    total.fixes_valid += s.fixes_valid;
    total.fixes_degraded += s.fixes_degraded;
  }
  for (std::size_t c = 0; c < kNumTrafficClasses; ++c) {
    const auto cls = static_cast<TrafficClass>(c);
    total.submitted_by_class[c] = scheduler_.submitted_by_class(cls);
    total.shed_by_class[c] = scheduler_.shed_by_class(cls);
  }
  total.brownout_tier = admission_.tier();
  return total;
}

}  // namespace dwatch::serve
