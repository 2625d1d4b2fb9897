#pragma once
// Fault model for the in-memory disk array: the failures Table VI's risk
// analysis reasons about, made injectable so the migration code paths
// that survive them can actually be exercised. A FaultPlan scripts
// whole-disk failures (at a given cumulative I/O count), latent sector
// errors (deterministic bad blocks and a probabilistic transient rate)
// and torn writes; counted DiskArray I/O reports them through IoResult
// (std::expected is C++23, so a small hand-rolled equivalent is used).

#include <cstdint>
#include <string>
#include <vector>

namespace c56::mig {

enum class IoStatus : std::uint8_t {
  kOk = 0,
  kDiskFailed,   // whole-disk failure: no bytes transferred
  kSectorError,  // latent sector error: the read returned no data
  kTornWrite,    // only a prefix of the block was persisted
};

const char* to_string(IoStatus s) noexcept;

/// Result of one counted block I/O; carries the failing coordinates so
/// errors are diagnosable without extra plumbing.
struct IoResult {
  IoStatus status = IoStatus::kOk;
  int disk = -1;
  std::int64_t block = -1;

  bool ok() const noexcept { return status == IoStatus::kOk; }
  explicit operator bool() const noexcept { return ok(); }

  static IoResult success() noexcept { return {}; }
  static IoResult fail(IoStatus s, int d, std::int64_t b) noexcept {
    return {s, d, b};
  }
};

/// "<status> at disk D block B".
std::string to_string(const IoResult& r);

/// Scripted + probabilistic fault injection applied to counted I/O
/// (raw_block stays an uninjected backdoor for test setup and
/// verification). All randomness comes from one seeded Rng, so a given
/// plan replays identically.
struct FaultPlan {
  /// Fail `disk` permanently after it has served `after_ios` counted
  /// I/Os (reads + writes): the (after_ios+1)-th and all later accesses
  /// return kDiskFailed.
  struct DiskFailure {
    int disk = 0;
    std::uint64_t after_ios = 0;
  };
  std::vector<DiskFailure> disk_failures;

  /// Deterministic latent sector errors: reads of these blocks return
  /// kSectorError until the block is successfully rewritten (modelling
  /// a sector remap on write).
  struct BadBlock {
    int disk = 0;
    std::int64_t block = 0;
  };
  std::vector<BadBlock> bad_blocks;

  /// Scripted silent corruption: the next counted write of this block
  /// persists with one pseudo-randomly chosen bit flipped and reports
  /// success (the model of a write that hit the platter wrong). One-shot
  /// per entry; no IoStatus surfaces — only a scrub can notice.
  struct SilentCorruption {
    int disk = 0;
    std::int64_t block = 0;
  };
  std::vector<SilentCorruption> silent_corruptions;

  /// Probability that any counted read reports a transient sector
  /// error; drawn independently per attempt, so a retry may succeed.
  double sector_error_rate = 0.0;
  /// Probability that a counted write tears: only the first half of the
  /// block is persisted and kTornWrite is reported. A full rewrite
  /// (retry) repairs the block.
  double torn_write_rate = 0.0;
  /// Probability that a counted write silently flips one bit of the
  /// just-persisted block and still reports success (bit-rot at write
  /// time). Like SilentCorruption entries, invisible to IoResult.
  double bit_rot_rate = 0.0;
  std::uint64_t seed = 0xC56'FA17ULL;
};

/// Bounded exponential backoff for transient I/O errors (sector errors
/// on reads, torn writes). Attempt k sleeps backoff_us << (k-1) before
/// reissuing; max_attempts counts the initial attempt.
struct RetryPolicy {
  int max_attempts = 4;
  std::uint32_t backoff_us = 20;
};

}  // namespace c56::mig
