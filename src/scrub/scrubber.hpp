#pragma once
// Online scrubber: paced verification of stored stripes against their
// parity chains, chain-intersection location of silently corrupted
// cells (scrub/locator.hpp), and optional in-place repair.
//
// The scrubber never owns an I/O path of its own; it rides one of two
// coordination gates so scans and repairs cannot race a writer:
//
//  * controller mode — each stripe is scanned under
//    ArrayController::with_stripe_lock, the same per-stripe mutex every
//    controller write path takes, and all parity chains are trusted;
//  * migration mode — each stripe group is scanned under
//    OnlineMigrator::scrub_group (shared ops gate + group lock), which
//    also reports the group's TrustDomain: converted groups cross-check
//    both parity families, unconverted groups trust only the RAID-5
//    horizontal rows (location is information-theoretically impossible
//    there — every row mate has the same single-chain membership — so
//    corruption is detected and reported ambiguous, never mis-repaired),
//    and the group the conversion is inside is deferred to a later pass.
//
// A repair recomputes the located cell from the trusted family via the
// GF(2) solver, rewrites it through counted DiskArray I/O (so a repair
// write is itself subject to the fault plan — including bit rot, which
// is why the repair loop re-verifies and retries), and only counts the
// cell repaired once the stripe's trusted chains verify clean again.
//
// Pacing: run_pass() walks every stripe once; start() runs passes on a
// background thread. C56_SCRUB_RATE (stripes/second, 0 = unpaced)
// token-buckets the walk and C56_SCRUB_MS sets the idle sleep between
// passes; both seed the defaults at construction and have setter
// overrides. A constructed-but-idle scrubber costs foreground I/O
// nothing beyond the controller's own stripe gate.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <thread>

#include "migration/controller.hpp"
#include "migration/disk_array.hpp"
#include "migration/online.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "scrub/locator.hpp"
#include "xorblk/buffer.hpp"

namespace c56::scrub {

/// Cumulative scrub accounting (monotonic since construction).
struct ScrubStats {
  std::uint64_t passes = 0;           // completed full walks
  std::uint64_t stripes_scanned = 0;  // stripes whose chains were checked
  std::uint64_t stripes_dirty = 0;    // >= 1 trusted chain failed
  std::uint64_t cells_located = 0;    // failing set pinned to one cell
  std::uint64_t cells_repaired = 0;   // rewritten and re-verified clean
  std::uint64_t ambiguous = 0;        // detected but not locatable
  std::uint64_t deferred = 0;         // skipped (in-flight group, failed disk)
  std::uint64_t repair_failures = 0;  // located but not healed
};

/// One run_pass() walk.
struct PassReport {
  std::int64_t scanned = 0;
  std::int64_t dirty = 0;
  std::int64_t located = 0;
  std::int64_t repaired = 0;
  std::int64_t ambiguous = 0;
  std::int64_t deferred = 0;
  std::int64_t failed = 0;  // located but not healed this pass
  bool clean() const { return dirty == 0 && deferred == 0; }
};

class Scrubber {
 public:
  /// Controller mode: scan `ctrl`'s stripes under its per-stripe gate.
  /// `array` must be the controller's substrate; both are kept by
  /// reference and must outlive the scrubber.
  Scrubber(mig::DiskArray& array, mig::ArrayController& ctrl);
  /// Migration mode: scan `migrator`'s stripe groups under its scrub
  /// hook, trusting only what each group's conversion progress allows.
  Scrubber(mig::DiskArray& array, mig::OnlineMigrator& migrator);

  Scrubber(const Scrubber&) = delete;
  Scrubber& operator=(const Scrubber&) = delete;
  ~Scrubber();  // stop()s the background thread

  /// Repair located cells in place (default) or detect-only.
  void set_repair(bool on) { repair_.store(on); }
  bool repair() const { return repair_.load(); }
  /// Stripes scanned per second; <= 0 disables pacing. Seeded from
  /// C56_SCRUB_RATE at construction (default unpaced).
  void set_rate(int stripes_per_sec) { rate_.store(stripes_per_sec); }
  int rate() const { return rate_.load(); }
  /// Background-thread sleep between passes. Seeded from C56_SCRUB_MS
  /// at construction (default 1000 ms).
  void set_interval_ms(int ms) { interval_ms_.store(ms < 0 ? 0 : ms); }
  int interval_ms() const { return interval_ms_.load(); }

  /// Walk every stripe once (paced when rate() > 0). Serialized against
  /// the background thread's passes; safe to call concurrently with
  /// foreground I/O and an in-flight conversion.
  PassReport run_pass();

  /// Start/stop the background pass loop. start() is idempotent while
  /// running; stop() interrupts pacing sleeps and joins.
  void start();
  void stop();
  bool running() const { return running_.load(); }

  ScrubStats stats() const;

  /// Record scrub events (dirty stripe, located cell, repair outcome)
  /// into `log`, which must outlive the scrubber. Warn/error level, so
  /// they reach the flight recorder regardless of events_enabled().
  void attach_events(obs::EventLog& log) { events_ = &log; }
  void detach_events() { events_ = nullptr; }

  /// Export the ScrubStats counters through `registry` snapshots as
  /// {prefix}_passes, {prefix}_stripes_scanned, ... Detaches on
  /// destruction.
  void attach_metrics(obs::Registry& registry,
                      const std::string& prefix = "scrub");
  void detach_metrics() { metrics_handle_.remove(); }

 private:
  static constexpr int kRepairAttempts = 3;

  /// Pacing state for one pass (token bucket over steady_clock).
  struct Pacer;
  void pace(Pacer& p);
  /// Scan one stripe already under the relevant gate. `base_block` is
  /// the first row's block index on each member disk.
  void scan_locked(std::int64_t stripe, std::int64_t base_block,
                   std::span<const int> trusted, PassReport& rep);
  /// Column of flat cell -> disk id, or -1 when no disk backs it.
  int disk_of_col(int col) const;
  void emit_event(obs::EventLevel level, std::string message,
                  std::int64_t group = -1, int disk = -1,
                  std::int64_t block = -1,
                  const char* rate_key = nullptr) const;

  mig::DiskArray& array_;
  mig::ArrayController* ctrl_ = nullptr;  // exactly one of ctrl_ /
  mig::OnlineMigrator* mig_ = nullptr;    // mig_ is set
  const ErasureCode& code_;
  CellLocator locator_;
  std::int64_t stripes_;  // controller stripes or migration groups
  // Column offset of disk 0 (controller mode; a migration's Code 5-6
  // has no virtual columns, so 0 there).
  int virtual_cols_ = 0;

  std::atomic<bool> repair_{true};
  std::atomic<int> rate_{0};
  std::atomic<int> interval_ms_{1000};

  std::mutex pass_mu_;  // serializes run_pass bodies
  Buffer buf_;          // one stripe of cells (pass_mu_ holder only)
  Buffer scratch_;      // one recomputed block (pass_mu_ holder only)

  std::mutex bg_mu_;  // background-thread lifecycle + sleep cv
  std::condition_variable bg_cv_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};
  std::thread thread_;

  obs::Counter passes_;
  obs::Counter stripes_scanned_;
  obs::Counter stripes_dirty_;
  obs::Counter cells_located_;
  obs::Counter cells_repaired_;
  obs::Counter ambiguous_;
  obs::Counter deferred_;
  obs::Counter repair_failures_;
  obs::EventLog* events_ = nullptr;
  // Declared last so the collector detaches before anything it reads.
  obs::CollectorHandle metrics_handle_;
};

}  // namespace c56::scrub
