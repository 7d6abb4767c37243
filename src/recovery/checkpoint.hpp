// Crash-safe checkpoint/restore of the pipeline's long-lived state.
//
// D-Watch accumulates state that is expensive or impossible to rebuild
// after a crash: per-array calibration offsets (a GA+GD solve each),
// reference spectra captured while the room was empty (re-capturing
// needs an empty room), tracker tracks, the dedupe quarantine, and the
// lifetime counters operators alert on. A Snapshot carries all of it;
// the codec frames it into a versioned binary image where every section
// is independently CRC16-protected (the same Gen2 CRC the RFID air
// protocol uses, rfid/crc16.hpp), and CheckpointStore writes the image
// atomically — temp file then rename — so a crash mid-write can corrupt
// at most the temp file, never the last good snapshot.
//
// Restore is strict: a truncated, bit-flipped, or version-skewed image
// is rejected with a specific RestoreError and the caller cold-starts.
// A restored pipeline resumes bit-identical to one that never stopped
// (tests/recovery/self_healing_test.cpp asserts this end to end).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/kalman.hpp"
#include "core/pipeline.hpp"
#include "core/tracker.hpp"
#include "rfid/report_stream.hpp"

namespace dwatch::recovery {

/// Lifetime counters of the self-healing layer itself (checkpointed so
/// a restore remembers how often it has healed).
struct RecoveryStats {
  std::uint64_t checkpoints_written = 0;
  std::uint64_t checkpoint_crashes = 0;  ///< injected mid-write crashes
  std::uint64_t restores = 0;
  std::uint64_t recalibrations_triggered = 0;
  std::uint64_t recalibrations_accepted = 0;
  std::uint64_t recalibrations_rolled_back = 0;
  std::uint64_t baselines_invalidated = 0;  ///< arrays whose refs were reset
  std::uint64_t drift_epochs = 0;     ///< epochs with >= 1 drifting array
  /// Kept for the frozen DWCP v1 layout; nothing increments it, so it
  /// stays 0 unless restored from an image that carried a count.
  std::uint64_t epochs_aborted = 0;

  bool operator==(const RecoveryStats&) const = default;
};

/// Everything a crash must not lose.
struct Snapshot {
  core::PipelineState pipeline;
  std::optional<core::KalmanState> kalman;
  std::optional<core::AlphaBetaState> alpha_beta;
  std::vector<rfid::QuarantineEntry> quarantine;
  RecoveryStats stats;
  std::uint64_t epoch = 0;  ///< last fully completed epoch index
};

/// Why a restore refused an image. Anything but kNone means the caller
/// must cold-start (or try an older snapshot).
enum class RestoreError : std::uint8_t {
  kNone = 0,
  kMissing,     ///< no snapshot file at the path
  kBadMagic,    ///< not a DWCP image at all
  kBadVersion,  ///< written by an incompatible format version
  kTruncated,   ///< image ends mid-section / end marker absent
  kBadCrc,      ///< a section failed its CRC16 (bit rot, torn write)
  kMalformed,   ///< CRC passed but the payload is inconsistent
};

[[nodiscard]] std::string_view to_string(RestoreError error) noexcept;

/// Current on-disk format version. Bump on any layout change; old
/// images are then rejected with kBadVersion (no migration — the state
/// is a cache of recomputable-with-effort values, not a database).
inline constexpr std::uint16_t kCheckpointVersion = 1;

/// Serialize a snapshot into the framed binary image.
[[nodiscard]] std::vector<std::uint8_t> encode_snapshot(const Snapshot& snap);

/// Parse an image. On success returns kNone and fills `out`; on any
/// failure `out` is untouched.
[[nodiscard]] RestoreError decode_snapshot(
    std::span<const std::uint8_t> bytes, Snapshot& out);

/// Atomic on-disk snapshot storage: write() streams the image to
/// `path + ".tmp"` and renames over `path` only once complete, so the
/// previous snapshot survives any mid-write death.
class CheckpointStore {
 public:
  /// Crash injection hook for write(): given the full image size,
  /// return how many bytes "reach disk" before the process dies
  /// (the temp file is left as wreckage, the rename never happens), or
  /// nullopt to let the write complete. Wire FaultInjector::
  /// checkpoint_crash through this to test torn writes.
  using CrashFilter =
      std::function<std::optional<std::size_t>(std::size_t image_bytes)>;

  explicit CheckpointStore(std::string path) : path_(std::move(path)) {}

  /// Returns true when the snapshot was durably committed; false when
  /// the crash filter fired (previous snapshot intact) or the
  /// filesystem refused the write.
  bool write(const Snapshot& snap, const CrashFilter& crash = nullptr);

  /// Load and decode the last committed snapshot.
  [[nodiscard]] RestoreError load(Snapshot& out) const;

  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
};

}  // namespace dwatch::recovery
