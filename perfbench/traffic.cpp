#include "traffic.hpp"

#include <algorithm>
#include <exception>
#include <numeric>
#include <thread>

#include "rfid/llrp.hpp"
#include "sim/scene.hpp"

namespace perfbench {

namespace {

using dwatch::rf::Rng;
using dwatch::rf::Vec2;

/// splitmix64: decorrelated child seeds from (seed, stream ids).
std::uint64_t mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t zone,
                          std::uint64_t stream) {
  return mix(mix(mix(seed) ^ zone) ^ stream);
}

/// The site: every zone's room layout, tag placement, reader hardware
/// and install-time captures derive from this constant and the zone
/// index, so a zone is the same installed room on every run and `seed`
/// varies only the online traffic (the occupant and the capture noise).
constexpr std::uint64_t kSiteSeed = 20161212;

constexpr std::uint64_t kDeployStream = 1;
constexpr std::uint64_t kHardwareStream = 2;
constexpr std::uint64_t kInstallStream = 3;
constexpr std::uint64_t kWalkStream = 4;
constexpr std::uint64_t kEpochStream = 1000;

/// Install captures per anchor, and anchors per array (the paper needs
/// >= 4 tags for < 0.05 rad, Fig. 9).
constexpr std::size_t kAnchorCaptures = 2;
constexpr std::size_t kAnchorsPerArray = 8;
/// Tag reads per RO_ACCESS_REPORT.
constexpr std::size_t kTagsPerReport = 4;

/// Keep the human clear of the walls (and the wall-mounted arrays).
constexpr double kMargin = 0.6;

/// Stratified random-waypoint walk, sampled once per epoch. The walkable
/// area is cut into a kCellsX x kCellsY grid, visited in snake order from
/// a randomly drawn corner and then back again, tour after tour; each leg
/// heads for a uniformly drawn point inside the next cell at a walking
/// speed drawn per leg. Every tour covers the whole room once without
/// long crossings, so runs with different seeds see the same mix of easy
/// spots and deadzones.
constexpr std::size_t kCellsX = 3;
constexpr std::size_t kCellsY = 4;

std::vector<Vec2> walk(const dwatch::sim::Environment& env, Rng& rng,
                       std::size_t samples) {
  const double cw = (env.width - 2 * kMargin) / kCellsX;
  const double ch = (env.depth - 2 * kMargin) / kCellsY;
  const bool flip_x = rng.chance(0.5);
  const bool flip_y = rng.chance(0.5);
  std::vector<std::pair<std::size_t, std::size_t>> cells;
  for (std::size_t row = 0; row < kCellsY; ++row) {
    for (std::size_t i = 0; i < kCellsX; ++i) {
      const std::size_t cx = row % 2 == 0 ? i : kCellsX - 1 - i;
      cells.emplace_back(flip_x ? kCellsX - 1 - cx : cx,
                         flip_y ? kCellsY - 1 - row : row);
    }
  }
  // Cell sequence 0, 1, ..., n-1, n-2, ..., 1, 0, 1, ...
  const std::size_t n = cells.size();
  std::size_t step_index = 0;
  const auto waypoint = [&]() {
    const std::size_t phase = step_index++ % (2 * n - 2);
    const auto [cx, cy] = cells[phase < n ? phase : 2 * n - 2 - phase];
    return Vec2{kMargin + cw * (static_cast<double>(cx) + rng.uniform(0.0, 1.0)),
                kMargin + ch * (static_cast<double>(cy) + rng.uniform(0.0, 1.0))};
  };

  std::vector<Vec2> out;
  out.reserve(samples);
  Vec2 pos = waypoint();
  Vec2 goal = waypoint();
  double speed = rng.uniform(0.9, 1.3);
  for (std::size_t i = 0; i < samples; ++i) {
    out.push_back(pos);
    double step = speed * kEpochSeconds;
    while (step > 0.0) {
      const double dist = dwatch::rf::distance(pos, goal);
      if (dist > step) {
        pos = {pos.x + (goal.x - pos.x) * step / dist,
               pos.y + (goal.y - pos.y) * step / dist};
        break;
      }
      pos = goal;
      step -= dist;
      goal = waypoint();
      speed = rng.uniform(0.9, 1.3);
    }
  }
  return out;
}

/// The anchors of one array: its nearest readable tags, which have a
/// dominant line of sight.
std::vector<std::size_t> nearest_readable_tags(const dwatch::sim::Scene& scene,
                                               std::size_t array) {
  const auto& dep = scene.deployment();
  const auto center = dep.arrays[array].center();
  std::vector<std::size_t> idx(dep.tags.size());
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  std::erase_if(idx, [&](std::size_t t) {
    return !scene.tag_readable(array, t);
  });
  std::sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
    return dwatch::rf::distance(dep.tags[a].position, center) <
           dwatch::rf::distance(dep.tags[b].position, center);
  });
  idx.resize(std::min(kAnchorsPerArray, idx.size()));
  return idx;
}

void append(Bytes& out, const Bytes& more) {
  out.insert(out.end(), more.begin(), more.end());
}

/// Capture one zone-epoch and frame it as interleaved 4-tag reports.
EpochTraffic capture_epoch(const dwatch::sim::Scene& scene,
                           std::optional<Vec2> truth,
                           std::uint64_t watermark_us, Rng& rng,
                           std::uint32_t& message_id) {
  std::vector<dwatch::sim::CylinderTarget> targets;
  if (truth) targets.push_back(dwatch::sim::CylinderTarget::human(*truth));
  std::vector<std::vector<dwatch::rfid::RoAccessReport>> per_array;
  std::size_t rounds = 0;
  for (std::size_t a = 0; a < scene.num_arrays(); ++a) {
    const dwatch::rfid::RoAccessReport full =
        scene.capture_report(a, targets, rng, 0, watermark_us);
    std::vector<dwatch::rfid::RoAccessReport> parts;
    for (std::size_t i = 0; i < full.observations.size();
         i += kTagsPerReport) {
      dwatch::rfid::RoAccessReport part;
      const auto first = full.observations.begin() +
                         static_cast<std::ptrdiff_t>(i);
      const auto last = full.observations.begin() +
                        static_cast<std::ptrdiff_t>(std::min(
                            i + kTagsPerReport, full.observations.size()));
      part.observations.assign(first, last);
      parts.push_back(std::move(part));
    }
    rounds = std::max(rounds, parts.size());
    per_array.push_back(std::move(parts));
  }
  EpochTraffic epoch;
  epoch.watermark_us = watermark_us;
  epoch.truth = truth;
  for (std::size_t r = 0; r < rounds; ++r) {
    for (std::size_t a = 0; a < per_array.size(); ++a) {
      if (r >= per_array[a].size()) continue;
      dwatch::rfid::RoAccessReport& part = per_array[a][r];
      part.message_id = ++message_id;
      Bytes bytes = dwatch::rfid::encode(part);
      bytes.shrink_to_fit();  // the encoder grows its buffer by doubling
      epoch.chunks.push_back(
          Chunk{a, part.observations.size(), std::move(bytes)});
    }
  }
  return epoch;
}

}  // namespace

ZoneTraffic make_zone(std::uint64_t seed, std::size_t zone,
                      Occupant occupant, std::size_t num_epochs,
                      std::size_t threads) {
  Rng deploy_rng(stream_seed(kSiteSeed, zone, kDeployStream));
  Rng hardware_rng(stream_seed(kSiteSeed, zone, kHardwareStream));
  Rng install_rng(stream_seed(kSiteSeed, zone, kInstallStream));
  Rng walk_rng(stream_seed(seed, zone, kWalkStream));

  const dwatch::sim::Scene scene(
      dwatch::sim::make_room_deployment(dwatch::sim::Environment::library(),
                                        dwatch::sim::DeploymentOptions{},
                                        deploy_rng),
      dwatch::sim::CaptureOptions{}, hardware_rng);
  const auto& dep = scene.deployment();

  ZoneTraffic out;
  out.arrays = dep.arrays;
  out.bounds = {{0.0, 0.0}, {dep.env.width, dep.env.depth}};
  // Install time: anchor captures and empty-room baselines. This also
  // traces (and caches) every propagation path, so the epoch captures
  // below only read the scene and can run on several threads.
  std::uint32_t install_id = 0;
  for (std::size_t a = 0; a < scene.num_arrays(); ++a) {
    for (std::size_t t = 0; t < scene.num_tags(); ++t) (void)scene.paths(a, t);
    const std::vector<std::size_t> anchor_tags = nearest_readable_tags(scene, a);
    std::vector<Anchor> anchors;
    for (const std::size_t t : anchor_tags) {
      anchors.push_back(Anchor{
          dep.tags[t].epc, dep.arrays[a].arrival_angle(dep.tags[t].position)});
    }
    Bytes anchor_stream;
    for (std::size_t c = 0; c < kAnchorCaptures; ++c) {
      dwatch::rfid::RoAccessReport report;
      report.message_id = ++install_id;
      for (const std::size_t t : anchor_tags) {
        report.observations.push_back(
            scene.capture_observation(a, t, {}, install_rng));
      }
      append(anchor_stream, dwatch::rfid::encode(report));
    }
    out.anchors.push_back(std::move(anchors));
    out.anchor_bytes.push_back(std::move(anchor_stream));
    out.baseline_bytes.push_back(dwatch::rfid::encode(
        scene.capture_report(a, {}, install_rng, ++install_id)));
    out.true_offsets.push_back(scene.reader(a).relative_phase_offsets());
  }

  std::vector<std::optional<Vec2>> truth(num_epochs);
  if (occupant == Occupant::kWalking) {
    const std::vector<Vec2> path = walk(dep.env, walk_rng, num_epochs);
    for (std::size_t e = 0; e < num_epochs; ++e) truth[e] = path[e];
  } else if (occupant == Occupant::kStatic) {
    // The static occupant stands at the centre of the room.
    const Vec2 spot{0.5 * dep.env.width, 0.5 * dep.env.depth};
    std::fill(truth.begin(), truth.end(), spot);
  }

  // Every epoch draws its noise from its own stream and its message ids
  // from a fixed per-epoch range, so the split across threads does not
  // change a single byte.
  out.epochs.resize(num_epochs);
  const std::size_t workers = std::max<std::size_t>(
      1, std::min(threads, num_epochs));
  std::vector<std::exception_ptr> errors(workers);
  std::vector<std::thread> pool;
  for (std::size_t w = 0; w < workers; ++w) {
    pool.emplace_back([&, w] {
      try {
        for (std::size_t e = w; e < num_epochs; e += workers) {
          Rng rng(stream_seed(seed, zone, kEpochStream + e));
          auto message_id = static_cast<std::uint32_t>(1000 + 100 * e);
          out.epochs[e] = capture_epoch(
              scene, truth[e],
              1'000'000 + e * static_cast<std::uint64_t>(kEpochSeconds * 1e6),
              rng, message_id);
        }
      } catch (...) {
        errors[w] = std::current_exception();
      }
    });
  }
  for (std::thread& t : pool) t.join();
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  return out;
}

std::uint64_t digest(const std::vector<ZoneTraffic>& zones) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto eat = [&h](const Bytes& bytes) {
    for (const std::uint8_t b : bytes) {
      h ^= b;
      h *= 0x100000001b3ULL;
    }
  };
  for (const ZoneTraffic& zone : zones) {
    for (const Bytes& b : zone.anchor_bytes) eat(b);
    for (const Bytes& b : zone.baseline_bytes) eat(b);
    for (const EpochTraffic& epoch : zone.epochs) {
      for (const Chunk& chunk : epoch.chunks) eat(chunk.bytes);
    }
  }
  return h;
}

}  // namespace perfbench
