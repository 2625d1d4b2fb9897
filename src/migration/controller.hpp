#pragma once
// Block-level RAID controller over a DiskArray for any code in the zoo.
//
// This is the substrate behind two of the paper's qualitative claims:
// Table III's "single write performance" column (a small write costs
// one read-modify-write per parity the block feeds — optimal codes pay
// exactly two) and the degraded-mode service that motivates high
// reliability during conversion (Table VI). The controller serves
// logical data blocks, maintains every parity on writes, reconstructs
// reads under up to two failed disks, rebuilds replaced disks, and
// scrubs stripes.
//
// Geometry: disk d stores target column d + v of the code (v = virtual
// columns, which have no physical disk); logical data blocks enumerate
// the code's data cells stripe by stripe in row-major order.
//
// One write planner serves every write entry point. write(l, in),
// write(l, count, in), write_range(l, off, in) and write_range(batch)
// are thin front ends: they validate, split the request by stripe and
// hand each stripe's updates (block, byte range, new bytes, in batch
// order) to write_stripe() under the stripe lock. Per stripe:
//   * each surviving parity whose expanded chain is covered whole is
//     computed directly from the callers' buffers (no pre-read), so
//     updates covering every data cell whole issue no pre-reads at
//     all; every other parity gets one coalesced read-modify-write
//     over the union of its contributors' byte ranges. Every code in
//     the zoo XORs parity bytewise, so a data byte at intra-block
//     offset o feeds each of its parities at offset o: a sub-block
//     update moves only its byte range (parity ^= new ^ old, xor_delta
//     kernels);
//   * old values are read only for cells that feed a read-modify-write
//     parity or that are partially written, idempotent cells are
//     dropped, and every pre-read is issued before the first write, so
//     a failed read leaves the stripe untouched. Whole-block cells move
//     through one DiskArray run per per-column stretch, partial cells
//     through range I/O. A read run is borrowed (view_blocks) and
//     copied straight into its destination; a write run is gathered
//     from the planner's source pointers. Every block moves once.
// A run that faults keeps its transferred prefix and continues block
// by block through the retry helpers from the faulting block on: a
// read that still fails throws, a torn block is rewritten with retries
// (a one-block run exactly like a longer one), and a write to a dead
// disk is dropped for the failure machinery (fail_disk/rebuild).
// A one-block write therefore pays Table III's price — one
// read-modify-write per affected parity, 6 I/Os for an optimal code —
// and write_range(l, 0, full_block) is byte- and I/O-identical to
// write(l, full_block). Reads have one path as well: read(l, out) is
// read(l, 1, out).
//
// There is no cache: every read and every pre-read goes to the disks,
// so counted I/O is the paper's price, and a writer that bypasses this
// controller (an online-migration hand-off, a scrub repair) leaves no
// stale copy behind.

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <set>
#include <vector>

#include "codes/erasure_code.hpp"
#include "migration/disk_array.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"

namespace c56::mig {

class ArrayController {
 public:
  /// `array` must expose exactly code->cols() - virtual columns disks,
  /// with blocks_per_disk a multiple of code->rows().
  ArrayController(DiskArray& array, std::unique_ptr<ErasureCode> code);

  const ErasureCode& code() const { return *code_; }
  std::int64_t stripes() const { return stripes_; }
  std::int64_t logical_blocks() const;

  /// Data-block I/O. Reads reconstruct on the fly when the block's disk
  /// is failed; writes update every affected surviving parity and, for
  /// a failed data disk, keep the block recoverable through parity.
  /// The one-block forms are read/write(logical, 1, ...).
  void read(std::int64_t logical, std::span<std::uint8_t> out);
  void write(std::int64_t logical, std::span<const std::uint8_t> in);

  /// Ranged data-block I/O over [logical, logical + count). The buffer
  /// holds count consecutive logical blocks.
  void read(std::int64_t logical, std::int64_t count,
            std::span<std::uint8_t> out);
  void write(std::int64_t logical, std::int64_t count,
             std::span<const std::uint8_t> in);

  /// Sub-block I/O (the delta write plane, see header comment).
  /// write_range replaces bytes [offset, offset + in.size()) of logical
  /// block `logical`, XOR-delta-updating only that byte range of every
  /// surviving parity the cell feeds. A zero-length range is a
  /// validated no-op; offset/len outside the block throw out_of_range.
  /// A full-block range is byte- and I/O-count-identical to
  /// write(logical, in).
  void write_range(std::int64_t logical, std::int64_t offset,
                   std::span<const std::uint8_t> in);
  void read_range(std::int64_t logical, std::int64_t offset,
                  std::span<std::uint8_t> out);

  struct SubWrite {
    std::int64_t logical = 0;
    std::int64_t offset = 0;
    std::span<const std::uint8_t> data;
  };
  /// Batched sub-block writes. Entries are validated up front (one bad
  /// entry rejects the batch before any I/O), grouped by stripe, and
  /// applied in batch order within each stripe (later entries win on
  /// overlap). Each affected parity block is read and written at most
  /// once per batch regardless of how many sub-writes feed it.
  void write_range(std::span<const SubWrite> batch);

  /// Delta-plane switch (default on). Off widens every partial cell
  /// update to the whole block: the whole-block read-modify-write
  /// baseline the small-write benchmark compares against.
  void set_subblock_delta(bool on) { subblock_delta_ = on; }
  bool subblock_delta() const { return subblock_delta_; }

  /// Zero-only stub for perfbench (any other value throws
  /// std::invalid_argument); it goes with the next benchmark change.
  void set_cache_stripes(std::size_t n);

  /// Ranged-planner decision counters, maintained only while
  /// obs::metrics_enabled() — they are the observability view of the
  /// batched path (full-stripe fast paths taken, parities computed
  /// directly with no pre-read, parities that paid a read-modify-write).
  struct PlannerCounters {
    std::uint64_t ranged_reads = 0;
    std::uint64_t ranged_writes = 0;
    std::uint64_t full_stripe_writes = 0;
    std::uint64_t partial_stripe_writes = 0;
    std::uint64_t direct_parities = 0;  // pre-reads avoided
    std::uint64_t rmw_parities = 0;
    // Delta write plane.
    std::uint64_t subblock_writes = 0;      // sub-writes processed
    std::uint64_t delta_parities = 0;       // parities updated by range RMW
    std::uint64_t subblock_promotions = 0;  // cells widened, delta plane off
  };
  PlannerCounters planner_counters() const;

  /// Export planner counters and ranged-I/O latency histograms
  /// ({prefix}_read_latency_us / {prefix}_write_latency_us) through
  /// `registry` snapshots. Detaches on destruction.
  /// A non-empty `labels` block (e.g. `volume="3"`) is appended to
  /// every counter/gauge name so one registry can host many
  /// controllers; the latency histograms are skipped in that case —
  /// histogram names must stay label-free (metrics.hpp), and two
  /// controllers sharing an unlabeled name would collide.
  void attach_metrics(obs::Registry& registry,
                      const std::string& prefix = "controller",
                      const std::string& labels = "");
  void detach_metrics() { metrics_handle_.remove(); }

  /// Record structured events (disk failures, rebuilds, and — while
  /// obs::events_enabled() — rate-limited ranged-I/O debug events) into
  /// `log`, which is kept by reference and must outlive the controller.
  void attach_events(obs::EventLog& log) { events_ = &log; }
  void detach_events() { events_ = nullptr; }

  /// Failure management. At most two concurrent failures (the code's
  /// fault tolerance); fail_disk throws beyond that.
  void fail_disk(int disk);
  bool failed(int disk) const;
  int failed_count() const { return static_cast<int>(failed_.size()); }
  /// Reconstruct every block of a failed disk in place and mark it
  /// healthy again. Returns blocks rebuilt.
  std::int64_t rebuild_disk(int disk);

  /// Verify every stripe; returns the indices of inconsistent stripes.
  /// Each stripe is verified under its stripe lock (the same gate every
  /// writer path takes), so a stripe written mid-verify can no longer
  /// report a false positive.
  std::vector<std::int64_t> scrub();

  /// Run `fn` with stripe `stripe` locked against this controller's
  /// writers — the scrubber's coordination hook (scrub() and the write
  /// paths take the same lock internally). `fn` must not call back into
  /// this controller's locked I/O entry points.
  void with_stripe_lock(std::int64_t stripe,
                        const std::function<void()>& fn) const;

  /// Cells of one stripe as a buffer + view. Contract: blocks are read
  /// *as stored* through the raw (uncounted, fault-free) backdoor —
  /// failed columns are NOT reconstructed, they return whatever stale
  /// bytes the dead disk holds.
  /// Callers that want the logical value of a failed cell must decode
  /// explicitly. read_stripe() allocates a fresh Buffer per call;
  /// loop-heavy callers (scrub, migrators) should call
  /// read_stripe_into() with a reused/pooled buffer instead.
  Buffer read_stripe(std::int64_t stripe) const;
  /// Same contract, into caller storage of exactly
  /// cell_count() * block_bytes() bytes (checked).
  void read_stripe_into(std::int64_t stripe,
                        std::span<std::uint8_t> out) const;

 private:
  struct Locus {
    Cell cell;
    std::int64_t stripe;
  };
  Locus locate(std::int64_t logical) const;
  int disk_of(int col) const { return col - virtual_cols_; }
  int col_of(int disk) const { return disk + virtual_cols_; }
  std::int64_t block_of(std::int64_t stripe, int row) const {
    return stripe * rows_ + row;
  }
  int flat_of(Cell c) const { return c.row * cols_ + c.col; }
  bool cell_failed(Cell c) const;
  /// Data indices of the expanded inputs of the parity at flat index
  /// `pflat`.
  std::span<const int> parity_inputs(int pflat) const;
  /// Parities fed by data cell index `idx` (CSR over flat arrays).
  std::span<const Cell> parities_of(int idx) const;
  /// Recovery recipes for the current failure set (lazily solved).
  const std::vector<RecoveryRecipe>& recipes();
  void reconstruct_cell(std::int64_t stripe, Cell c,
                        std::span<std::uint8_t> out);

  // The write planner (see header comment).
  struct PlanStats {  // what one stripe's plan did, for the counters
    bool full_stripe = false;
    std::uint64_t direct = 0;    // parities computed with no pre-read
    std::uint64_t rmw = 0;       // parities read-modify-written
    std::uint64_t promoted = 0;  // partial cells widened (delta plane off)
  };
  struct Scratch;  // per-thread planner buffers
  static Scratch& scratch();
  /// Front-end tail: group validated, non-empty `ops` by stripe and
  /// plan each stripe under its lock. `ranged` picks the counters.
  void write_ops(std::span<SubWrite> ops, bool ranged);
  /// Validated, non-empty updates of one stripe in batch order; the
  /// caller holds the stripe lock.
  PlanStats write_stripe(std::int64_t stripe, std::span<const SubWrite> ups);
  // Vectored cell I/O: both group the requested cells into per-column
  // runs of consecutive rows and issue one borrowed (fetch) or gathered
  // (write) DiskArray run per run, reordering `want`/`w` in place.
  struct CellFetch {
    Cell cell;
    int dst;  // block index inside the destination buffer
  };
  /// Current values of the given cells: batched disk reads,
  /// reconstructing failed cells.
  void fetch_cells(std::int64_t stripe, std::span<CellFetch> want,
                   std::uint8_t* dst_blocks);
  struct CellWrite {
    Cell cell;
    const std::uint8_t* src;  // one block
  };
  void write_cells(std::int64_t stripe, std::span<CellWrite> w);

  /// Stripe-level writer/scrub exclusion, striped over a fixed pool of
  /// mutexes (two stripes may alias one mutex; callers only ever hold
  /// one stripe lock at a time, so aliasing cannot deadlock). Leaf-ish:
  /// only DiskArray's internal fault_mu_ ever nests inside it.
  std::mutex& stripe_lock(std::int64_t s) const {
    return stripe_locks_[static_cast<std::size_t>(s) % kStripeLockStripes];
  }
  static constexpr std::size_t kStripeLockStripes = 64;
  mutable std::array<std::mutex, kStripeLockStripes> stripe_locks_;

  DiskArray& array_;
  std::unique_ptr<ErasureCode> code_;
  int rows_, cols_;  // code_->rows()/cols(), kept off the virtual calls
  int virtual_cols_;
  std::int64_t stripes_;

  // Flat dense cell metadata, computed once in the constructor and
  // indexed by row * cols + col (no maps on the hot path).
  std::vector<Cell> data_cells_;       // logical order
  std::vector<int> data_index_;        // flat cell -> logical idx, -1
  std::vector<CellKind> kind_;         // flat cell -> kind
  std::vector<int> parities_offset_;   // CSR: per data idx into ...
  std::vector<Cell> parities_cells_;   // ... this parity-cell pool
  std::vector<int> chain_offset_;      // CSR: flat parity -> inputs in ...
  std::vector<int> chain_inputs_;      // ... this pool of data indices
  std::vector<int> chain_begin_;       // flat parity -> index into offsets
                                       // (-1 for non-parity cells)

  std::set<int> failed_;                // failed disk ids
  std::vector<RecoveryRecipe> recipes_; // for failed_ set
  bool recipes_valid_ = false;

  bool subblock_delta_ = true;  // see set_subblock_delta

  // Observability (updated only under obs::metrics_enabled()).
  obs::Counter ranged_reads_;
  obs::Counter ranged_writes_;
  obs::Counter full_stripe_writes_;
  obs::Counter partial_stripe_writes_;
  obs::Counter direct_parities_;
  obs::Counter rmw_parities_;
  obs::Counter subblock_writes_;
  obs::Counter delta_parities_;
  obs::Counter subblock_promotions_;
  obs::Histogram read_latency_us_;
  obs::Histogram write_latency_us_;
  // Declared last so the collector detaches before anything it reads.
  /// No-op while no EventLog is attached; hot callers additionally
  /// guard on events_ && obs::events_enabled() before building text.
  void emit_event(obs::EventLevel level, std::string message, int disk = -1,
                  const char* rate_key = nullptr) const;
  obs::EventLog* events_ = nullptr;

  obs::CollectorHandle metrics_handle_;
};

}  // namespace c56::mig
