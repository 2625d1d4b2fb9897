#pragma once
// Algorithm 2: online bidirectional conversion between a RAID-5 and a
// RAID-6 using Code 5-6.
//
// The migrator owns two flows over one DiskArray:
//   * a conversion worker pool that walks the stripe groups and
//     generates the diagonal parities onto the freshly added disk. The
//     group index space is pre-partitioned into one contiguous range
//     per worker; a worker that drains its range steals whole groups
//     from the tail of the fullest remaining range, so each group is
//     always generated by exactly one owner;
//   * the application path, called from any thread. It is an
//     ArrayController over Code 5-6 — the controller's one write
//     planner, not a second implementation. A group the conversion has
//     not generated yet is a stripe whose diagonal column is absent
//     (the controller's AbsentColumns callback), so its horizontal
//     chains are exactly the RAID-5 row XOR: a block write costs 2
//     reads + 2 writes there, and 3 + 3 (Table III's 6) in a converted
//     group. Every request passes one gate (serve()): a write first
//     interrupts the conversion workers between group steps, exactly
//     as Algorithm 2 describes; the request then runs under the shared
//     ops gate and the controller's stripe lock, which is also the lock
//     a group step holds.
//
// Fault tolerance (the behaviour Table VI's risk model quantifies):
// both flows degrade under injected faults instead of crashing.
// Transient sector errors and torn writes are retried with bounded
// exponential backoff (one RetryPolicy, shared with the controller); a
// failed source disk is read through the RAID-5 horizontal parity
// (reconstruct-on-read) while the conversion keeps going; a write that
// does not land is counted in OnlineStats::degraded_writes;
// unrecoverable patterns (a second concurrent failure) drive the
// migration into a terminal kAborted state with a reason string.
//
// The unit of conversion is one stripe group: a worker borrows the
// group's data cells in place with one or two counted view runs per
// source column (no staging copy), folds every diagonal row straight
// from them and writes the diagonal column with one run, all under the
// group's stripe lock, which keeps the borrowed blocks stable while
// they are folded; the group is marked converted under the same lock.
// Writers preempt the workers between group steps. An attached
// CheckpointSink journals the contiguous-prefix watermark as each group
// completes, so a killed migration resumes idempotently via resume(),
// re-verifying the watermark group before continuing (a journal that
// names diagonal rows inside a group, as row-granular builds wrote, is
// re-verified and logged, and that group is regenerated whole).
//
// The RAID-6 -> RAID-5 direction is the trivial Step 1-2 of the
// algorithm: verify the geometry and drop the last column.

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "codes/code56.hpp"
#include "migration/controller.hpp"
#include "migration/degraded.hpp"
#include "migration/disk_array.hpp"
#include "migration/journal.hpp"
#include "obs/events.hpp"

namespace c56::mig {

struct OnlineStats {
  std::uint64_t conv_reads = 0;
  std::uint64_t conv_writes = 0;
  std::uint64_t app_reads = 0;
  std::uint64_t app_writes = 0;
  std::uint64_t interruptions = 0;  // writes that preempted the converter
  std::uint64_t retries = 0;        // transient-error retries (both flows)
  std::uint64_t reconstructed_reads = 0;  // reads served through parity
  std::uint64_t degraded_writes = 0;      // block writes that did not
                                          // land (failed disk or retries
                                          // exhausted)
  std::uint64_t backoff_us = 0;  // time spent sleeping between retries
};

enum class MigrationState : std::uint8_t {
  kIdle,        // constructed, conversion not started
  kConverting,  // conversion workers active
  kStopped,     // halted at a checkpoint via request_stop(); resumable
  kDone,        // every group generated
  kAborted,     // unrecoverable fault; see abort_reason()
};

const char* to_string(MigrationState s) noexcept;

/// Which parity families of a stripe group a scrub may trust, derived
/// from the journal watermark: groups below it hold both families; the
/// others are trusted for the source RAID-5's horizontal rows only,
/// even when a worker already converted them out of order (a group
/// step runs under the stripe lock a scrub takes, so no group is seen
/// half generated).
enum class TrustDomain : std::uint8_t {
  kBothFamilies,    // diagonal column generated: cross-check both
  kHorizontalOnly,  // unconverted: only the RAID-5 rows XOR to zero
};

class OnlineMigrator {
 public:
  /// `array` must hold m = p-1 disks laid out as a left-asymmetric
  /// RAID-5 whose blocks_per_disk is a multiple of p-1 (one Code 5-6
  /// stripe group per p-1 rows) — or m+1 disks when re-attaching to an
  /// interrupted migration whose new disk already exists (resume()).
  OnlineMigrator(DiskArray& array, int p);

  OnlineMigrator(const OnlineMigrator&) = delete;
  OnlineMigrator& operator=(const OnlineMigrator&) = delete;
  /// Requests a stop and joins the conversion workers; a migration
  /// destroyed mid-conversion is left at its last checkpoint.
  ~OnlineMigrator();

  const Code56& code() const { return code_; }
  std::int64_t groups() const { return groups_; }
  std::int64_t logical_blocks() const;  // data blocks addressable by apps

  /// Journal the converter position through `sink` (kept by reference;
  /// must outlive the migrator). Call before start()/resume().
  void attach_journal(CheckpointSink& sink);
  /// Retry/backoff policy for transient I/O errors (both flows; the
  /// controller reads this same policy).
  void set_retry_policy(const RetryPolicy& policy);
  /// Conversion worker threads used by the next start()/resume().
  /// Defaults to 1, or to $C56_CONVERT_WORKERS when set at construction
  /// time. Clamped to [1, 64]; only valid while no conversion runs.
  void set_workers(int n);
  int workers() const;

  /// Step 2-3 of Algorithm 2: add the new disk and start the
  /// conversion workers. Only valid in state kIdle.
  void start();
  /// Restart an interrupted conversion from the journal (or from the
  /// in-memory position when no journal is attached): re-verifies the
  /// watermark group and the partial diagonal rows of the current
  /// group, rewinding past anything stale, then continues. Idempotent —
  /// resuming a finished migration is a no-op.
  void resume();
  /// Ask the conversion workers to halt at the next checkpoint (state
  /// kStopped). Returns immediately; finish() joins.
  void request_stop();
  /// Block until every conversion worker exits. Idempotent; safe to
  /// call whether or not start() ever ran.
  void finish();

  bool converting() const { return running_.load(); }
  std::int64_t groups_done() const { return groups_done_.load(); }
  /// Index of the appended diagonal disk; -1 until start()/resume()
  /// (or construction against a p-disk array) made it exist.
  int new_disk() const { return new_disk_; }

  /// Scrub coordination: run `fn` with stripe group `group` locked
  /// against application I/O and the conversion workers (shared ops
  /// gate + the controller's stripe lock — the same order every I/O
  /// path here takes), passing the trust domain derived from the
  /// watermark. `fn` may read the group's blocks and rewrite cells a
  /// repair located (counted or raw I/O), but must not call back into
  /// this migrator. Safe to call concurrently with the conversion and
  /// with application I/O.
  void scrub_group(std::int64_t group,
                   const std::function<void(TrustDomain)>& fn) const;
  MigrationState state() const;
  /// Why the migration aborted (empty unless state() == kAborted).
  std::string abort_reason() const;

  /// The application-I/O gate: run `fn` against the migrator's
  /// controller (logical blocks in RAID-5 data addressing, which is the
  /// controller's too). A write (`write` true) first preempts the
  /// conversion workers (Algorithm 2); the call runs under the shared
  /// ops gate. A controller IoError becomes the returned failure and,
  /// for a write, aborts a running conversion (the block is lost).
  /// Validation errors (std::logic_error) propagate.
  IoResult serve(bool write, const std::function<void(ArrayController&)>& fn);

  /// Front ends of serve() for one logical block (safe to call
  /// concurrently with the conversion and with themselves). They
  /// degrade through parity when disks are failed; the result reports
  /// unrecoverable faults.
  IoResult read_block(std::int64_t logical, std::span<std::uint8_t> out);
  IoResult write_block(std::int64_t logical, std::span<const std::uint8_t> in);

  /// Sub-block application write: replace bytes [offset, offset +
  /// in.size()) of the logical block through the controller's delta
  /// plane (only that byte range of each live parity moves).
  /// write_range(l, 0, block) is write_block(l). A zero-length range is
  /// a validated no-op; a range outside the block throws out_of_range.
  IoResult write_range(std::int64_t logical, std::size_t offset,
                       std::span<const std::uint8_t> in);

  OnlineStats stats() const;

  /// Diagonal rows generated by conversion worker `w` (w < 64).
  /// Maintained only while obs::metrics_enabled().
  std::uint64_t worker_rows(int w) const {
    return worker_rows_[static_cast<std::size_t>(w)].value();
  }

  /// Record lifecycle and degraded-path events (start/resume/stop,
  /// abort reason, journal rewinds, reconstructed reads, and the
  /// controller's degraded writes) into `log`, tagged with
  /// `migration_id` for correlation (the controller's are category
  /// "controller").
  /// Call before start()/resume(); `log` is kept by reference and must
  /// outlive the migrator. Without this call the migrator emits
  /// nothing.
  void attach_events(obs::EventLog& log,
                     std::string migration_id = "migration");

  /// Export the OnlineStats counters, per-worker rows converted
  /// ({prefix}_rows_converted{worker="w"}), journal checkpoint count,
  /// and progress gauges through `registry` snapshots. Detaches on
  /// destruction.
  void attach_metrics(obs::Registry& registry,
                      const std::string& prefix = "migrator");
  void detach_metrics() { metrics_handle_.remove(); }

  /// Reconstruct every block of every failed disk in place and mark the
  /// disks healthy again, through the controller's rebuild_disk (a
  /// source disk from the horizontal parity or, in converted groups,
  /// either family; the new disk from the data; two disks only after
  /// conversion). Returns blocks rebuilt; throws runtime_error for a
  /// pattern the migration state cannot reconstruct.
  std::int64_t rebuild_failed_disks();

  /// Post-conversion check: every stripe group satisfies all Code 5-6
  /// parity chains.
  bool verify_raid6() const;

  /// Reverse conversion (RAID-6 -> RAID-5): conceptually deletes the
  /// last column. Returns the index of the now-obsolete disk; the first
  /// m disks again form a plain RAID-5.
  int revert_to_raid5();

 private:
  struct WorkerRange {  // unclaimed groups [lo, hi) of one worker
    std::mutex mu;
    std::int64_t lo = 0;
    std::int64_t hi = 0;
  };
  /// Zeroed image for the new disk if it does not exist yet (empty
  /// otherwise); built before start()/resume() take the exclusive gate,
  /// so that gate covers only the table insert.
  Buffer provision_new_disk() const;
  void worker_entry(int w);
  void conversion_worker(int w);
  /// One conversion step of worker `w`: wait out pending application
  /// writes, then generate the diagonal column of group `g` under the
  /// shared ops gate and the group's stripe lock, and mark the group
  /// converted. False when the worker must exit (stop, abort).
  bool convert_group(int w, std::int64_t g);
  /// Next group for worker `w`: front of its own range, else the tail
  /// of the fullest other range (work stealing); -1 when drained.
  std::int64_t claim_group(int w);
  /// Advance the journalled watermark after `group` is converted.
  void note_progress(std::int64_t group);
  void launch_locked();
  void abort_locked(std::string reason);
  /// Abort (if still converting) from an I/O path that does not hold
  /// mu_, then wake the workers.
  void abort_from_io(std::string reason);
  /// Fold diagonal rows [lo, hi) of `group` into `out` (hi - lo
  /// blocks, row lo first). The chain members are borrowed in place
  /// with one counted view_blocks run per stretch of needed rows of
  /// each source column (a full group: 2p-4 runs), then each row is one
  /// accumulate pass over the borrowed blocks; nothing is copied. From
  /// a run's faulting block on, blocks go through read_source into a
  /// pooled arena. The borrowed views live only inside this call, and
  /// the caller must hold the exclusion that orders writes to the
  /// group's source blocks: its stripe lock, or the exclusive ops gate.
  IoResult fold_diags(std::int64_t group, int lo, int hi,
                      std::span<std::uint8_t> out, IoCounters& c);
  /// fold_diags, then store the rows on the new disk with one write run
  /// (write_block_retry block by block from a faulting block on). Same
  /// locking contract as fold_diags.
  IoResult generate_diags(std::int64_t group, int lo, int hi,
                          IoCounters& c);
  /// Conversion read of a source-array block with retry, falling back
  /// to a reconstruction through the RAID-5 horizontal parity when the
  /// disk is failed or the block unreadable. Attempts tally into `c`.
  IoResult read_source(int disk, std::int64_t block,
                       std::span<std::uint8_t> out, IoCounters& c);
  /// Fold one conversion operation's attempts into OnlineStats.
  void account(const IoCounters& c);
  /// First diagonal row of `group` in [0, upto) whose stored parity
  /// does not match a recomputation (upto if all match, 0 if the chains
  /// cannot be read). Callers must exclude concurrent I/O (resume path).
  int first_stale_diag(std::int64_t group, int upto);
  /// Record an event when an EventLog is attached (no-op otherwise).
  /// Safe under any of the migrator's locks: the event lock is a leaf
  /// nothing here ever holds while taking migrator locks. Hot callers
  /// guard on events_ themselves to skip message construction.
  void emit_event(obs::EventLevel level, std::string message,
                  std::int64_t group = -1, int worker = -1, int disk = -1,
                  std::int64_t block = -1,
                  const char* rate_key = nullptr) const;

  DiskArray& array_;
  Code56 code_;
  int m_;                       // source disks
  std::int64_t groups_;
  int new_disk_ = -1;

  // Lock order: ops_mu_ (shared for app I/O and converter steps,
  // exclusive for start/resume/rebuild/verify) -> the controller's
  // stripe lock of group g (block data and converted_[g]) -> at most
  // one leaf of {mu_, stats_mu_, progress_mu_}. Leaves never nest in
  // each other.
  mutable std::shared_mutex ops_mu_;
  mutable std::mutex mu_;           // state machine + preemption cv
  mutable std::mutex stats_mu_;     // OnlineStats counters
  mutable std::mutex progress_mu_;  // watermark advance + journal

  std::condition_variable cv_;
  std::atomic<int> pending_writers_{0};
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};
  std::atomic<int> active_workers_{0};

  // Conversion progress. converted_[g]: group g's diagonal column is
  // on the new disk (stored with release order by the group's owner
  // under its stripe lock); groups_done_ is the contiguous-prefix
  // watermark that the journal checkpoints.
  std::atomic<std::int64_t> groups_done_{0};
  std::unique_ptr<std::atomic<bool>[]> converted_;
  std::int64_t start_group_ = 0;  // conversion entry point

  int workers_requested_ = 1;
  std::vector<std::unique_ptr<WorkerRange>> ranges_;
  std::vector<std::thread> threads_;

  MigrationState state_ = MigrationState::kIdle;
  std::string abort_reason_;
  // Event sink; set by attach_events before the workers launch and
  // read without locks afterwards (happens-before via thread start).
  obs::EventLog* events_ = nullptr;
  std::string migration_id_ = "migration";
  RetryPolicy retry_;
  std::optional<MigrationJournal> journal_;

  // The application-I/O plane: Code 5-6 over array_, the diagonal
  // column absent in every unconverted group.
  std::unique_ptr<ArrayController> ctrl_;

  OnlineStats stats_;  // conversion side; stats() adds ctrl_'s tally
  IoCounters rebuild_io_;  // ctrl_'s tally spent by rebuilds (stats_mu_)

  // Per-worker conversion progress (updated only while
  // obs::metrics_enabled(); indices follow worker launch order).
  std::array<obs::Counter, 64> worker_rows_;
  // Declared last so the collector detaches before anything it reads.
  obs::CollectorHandle metrics_handle_;
};

}  // namespace c56::mig
