#include "migration/online.hpp"

#include <algorithm>
#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <vector>

#include "util/env.hpp"
#include "util/prime.hpp"
#include "xorblk/pool.hpp"
#include "xorblk/xor.hpp"

namespace c56::mig {

const char* to_string(MigrationState s) noexcept {
  switch (s) {
    case MigrationState::kIdle:
      return "idle";
    case MigrationState::kConverting:
      return "converting";
    case MigrationState::kStopped:
      return "stopped";
    case MigrationState::kDone:
      return "done";
    case MigrationState::kAborted:
      return "aborted";
  }
  return "?";
}

OnlineMigrator::OnlineMigrator(DiskArray& array, int p)
    : array_(array), code_(p), m_(p - 1) {
  if (array.disks() == m_ + 1) {
    new_disk_ = m_;  // re-attaching to an interrupted migration
  } else if (array.disks() != m_) {
    throw std::invalid_argument(
        "OnlineMigrator: array must hold p-1 disks (a full RAID-5), or "
        "p disks to resume an interrupted migration");
  }
  if (array.blocks_per_disk() % (p - 1) != 0) {
    throw std::invalid_argument(
        "OnlineMigrator: blocks per disk must be a multiple of p-1");
  }
  groups_ = array.blocks_per_disk() / (p - 1);
  converted_ =
      std::make_unique<std::atomic<bool>[]>(static_cast<std::size_t>(groups_));
  const std::uint64_t diagonal = std::uint64_t{1} << (p - 1);
  ctrl_ = std::make_unique<ArrayController>(
      array_, std::make_unique<Code56>(p),
      [this, diagonal](std::int64_t g) {
        return converted_[g].load(std::memory_order_acquire) ? 0 : diagonal;
      },
      &retry_);
  // Checked knob parsing: garbage keeps the default (1 worker),
  // negative/zero clamps to 1 and oversized requests clamp to the
  // 64-worker ceiling instead of overflowing through atoi.
  if (const auto v = util::env_int("C56_CONVERT_WORKERS", 1, 64)) {
    workers_requested_ = static_cast<int>(*v);
  }
}

OnlineMigrator::~OnlineMigrator() {
  request_stop();
  finish();
}

std::int64_t OnlineMigrator::logical_blocks() const {
  return array_.blocks_per_disk() * (m_ - 1);
}

void OnlineMigrator::attach_journal(CheckpointSink& sink) {
  std::lock_guard lk(mu_);
  if (running_.load()) {
    throw std::logic_error("attach_journal: conversion already running");
  }
  journal_.emplace(sink);
}

void OnlineMigrator::set_retry_policy(const RetryPolicy& policy) {
  std::lock_guard lk(mu_);
  if (running_.load()) {
    throw std::logic_error("set_retry_policy: conversion already running");
  }
  retry_ = policy;
}

void OnlineMigrator::set_workers(int n) {
  std::lock_guard lk(mu_);
  if (running_.load()) {
    throw std::logic_error("set_workers: conversion already running");
  }
  if (n < 1) {
    throw std::invalid_argument("set_workers: need at least one worker");
  }
  workers_requested_ = std::min(n, 64);
}

int OnlineMigrator::workers() const {
  std::lock_guard lk(mu_);
  return workers_requested_;
}

Buffer OnlineMigrator::provision_new_disk() const {
  {
    std::shared_lock ops(ops_mu_);  // new_disk_ changes only under it
    if (new_disk_ >= 0) return {};
  }
  return Buffer(static_cast<std::size_t>(array_.blocks_per_disk()) *
                array_.block_bytes());
}

void OnlineMigrator::start() {
  // Exclusive ops gate: Step 2 grows the array's disk table, which
  // must not reallocate under concurrent app I/O indexing it. This is
  // the only quiesce start() needs; the disk image is built before it,
  // so it lasts one push_back.
  Buffer storage = provision_new_disk();
  std::unique_lock ops(ops_mu_);
  std::lock_guard lk(mu_);
  if (state_ != MigrationState::kIdle) {
    throw std::logic_error("OnlineMigrator: already started");
  }
  if (new_disk_ < 0) {
    new_disk_ = array_.add_disk(std::move(storage));  // Step 2
  }
  start_group_ = 0;
  groups_done_.store(0);
  for (std::int64_t g = 0; g < groups_; ++g) converted_[g].store(false);
  if (journal_) {
    std::lock_guard pk(progress_mu_);
    journal_->record(0, 0);
  }
  launch_locked();
  emit_event(obs::EventLevel::kInfo,
             "conversion started: " + std::to_string(groups_) +
                 " groups, " + std::to_string(threads_.size()) + " workers",
             -1, -1, new_disk_);
}

void OnlineMigrator::resume() {
  finish();  // join stopped workers before restarting
  Buffer storage = provision_new_disk();
  std::unique_lock ops(ops_mu_);  // exclude app I/O while re-verifying
  std::lock_guard lk(mu_);
  switch (state_) {
    case MigrationState::kIdle:
    case MigrationState::kStopped:
      break;
    case MigrationState::kDone:
      return;  // nothing left to do
    case MigrationState::kConverting:
      throw std::logic_error("resume: conversion already running");
    case MigrationState::kAborted:
      throw std::logic_error("resume: migration aborted: " + abort_reason_);
  }
  if (new_disk_ < 0) new_disk_ = array_.add_disk(std::move(storage));
  const int p = code_.p();
  std::int64_t g = groups_done_.load();
  int rows = 0;  // diagonal rows a row-granular journal names in group g
  if (journal_) {
    if (const auto rec = journal_->recover()) {
      g = std::min(rec->groups_done, groups_);
      rows = std::min(std::max(rec->diag_rows, 0), p - 1);
    } else {
      g = 0;
      rows = 0;
    }
  }
  // Re-verify before trusting the watermark: the last fully generated
  // group must match a recomputation (a torn new-disk write shows up
  // here), and so must the partial rows of the current group. Rewind to
  // the first stale position. Group g is then regenerated whole
  // (regeneration is idempotent), so its rows only inform the log.
  const std::int64_t journalled_g = g;
  const int journalled_rows = rows;
  if (g > 0 && g <= groups_) {
    const int stale = first_stale_diag(g - 1, p - 1);
    if (stale < p - 1) {
      --g;
      rows = stale;
    }
  }
  if (g < groups_ && rows > 0) {
    rows = first_stale_diag(g, rows);
  }
  if (g != journalled_g || rows != journalled_rows) {
    emit_event(obs::EventLevel::kWarn,
               "journal recovery rewound watermark from group " +
                   std::to_string(journalled_g) + " row " +
                   std::to_string(journalled_rows) + " to group " +
                   std::to_string(g) + " row " + std::to_string(rows) +
                   ": stale diagonal parity detected",
               g);
  }
  start_group_ = g;
  groups_done_.store(g);
  // Groups past the watermark may hold diagonals from a previous run;
  // they are regenerated (idempotently), so forget them.
  for (std::int64_t i = 0; i < groups_; ++i) converted_[i].store(i < g);
  if (g >= groups_) {
    state_ = MigrationState::kDone;
    emit_event(obs::EventLevel::kInfo,
               "resume: journal shows conversion already complete");
    return;
  }
  launch_locked();
  emit_event(obs::EventLevel::kInfo,
             "conversion resumed from journal: group " + std::to_string(g) +
                 " of " + std::to_string(groups_) + " groups",
             g);
}

void OnlineMigrator::launch_locked() {
  const std::int64_t total = groups_ - start_group_;
  const int n = static_cast<int>(std::clamp<std::int64_t>(
      workers_requested_, 1, std::max<std::int64_t>(total, 1)));
  ranges_.clear();
  ranges_.reserve(static_cast<std::size_t>(n));
  for (int w = 0; w < n; ++w) {
    auto r = std::make_unique<WorkerRange>();
    r->lo = start_group_ + total * w / n;
    r->hi = start_group_ + total * (w + 1) / n;
    ranges_.push_back(std::move(r));
  }
  state_ = MigrationState::kConverting;
  stop_requested_.store(false);
  running_.store(true);
  active_workers_.store(n);
  threads_.clear();
  threads_.reserve(static_cast<std::size_t>(n));
  for (int w = 0; w < n; ++w) {
    threads_.emplace_back([this, w] { worker_entry(w); });
  }
}

void OnlineMigrator::request_stop() {
  stop_requested_.store(true);
  cv_.notify_all();
}

void OnlineMigrator::finish() {
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
}

MigrationState OnlineMigrator::state() const {
  std::lock_guard lk(mu_);
  return state_;
}

void OnlineMigrator::scrub_group(
    std::int64_t group, const std::function<void(TrustDomain)>& fn) const {
  if (group < 0 || group >= groups_) {
    throw std::out_of_range("OnlineMigrator::scrub_group: group " +
                            std::to_string(group));
  }
  std::shared_lock ops(ops_mu_);
  ctrl_->with_stripe_lock(group, [&] {
    fn(group < groups_done_.load() ? TrustDomain::kBothFamilies
                                   : TrustDomain::kHorizontalOnly);
  });
}

std::string OnlineMigrator::abort_reason() const {
  std::lock_guard lk(mu_);
  return abort_reason_;
}

void OnlineMigrator::abort_locked(std::string reason) {
  state_ = MigrationState::kAborted;
  abort_reason_ = std::move(reason);
  emit_event(obs::EventLevel::kError, "conversion aborted: " + abort_reason_);
}

void OnlineMigrator::abort_from_io(std::string reason) {
  {
    std::lock_guard lk(mu_);
    if (state_ == MigrationState::kConverting) abort_locked(std::move(reason));
  }
  cv_.notify_all();
}

void OnlineMigrator::account(const IoCounters& c) {
  std::lock_guard sk(stats_mu_);
  stats_.conv_reads += c.reads;
  stats_.conv_writes += c.writes;
  stats_.retries += c.retries;
  stats_.backoff_us += c.backoff_us;
}

IoResult OnlineMigrator::read_source(int disk, std::int64_t block,
                                     std::span<std::uint8_t> out,
                                     IoCounters& c) {
  IoResult r = IoResult::fail(IoStatus::kDiskFailed, disk, block);
  if (!array_.disk_failed(disk)) {
    r = read_block_retry(array_, disk, block, out, retry_, &c);
  }
  if (r.ok() || disk >= m_) return r;
  // Reconstruct through the RAID-5 horizontal parity: every row of the
  // source array XORs to zero, so the block is the XOR of the other m-1
  // blocks of its row (works for data and parity cells alike, and for
  // hard sector errors as well as whole-disk loss).
  std::vector<BlockAddr> srcs;
  srcs.reserve(static_cast<std::size_t>(m_ - 1));
  for (int d = 0; d < m_; ++d) {
    if (d == disk) continue;
    if (array_.disk_failed(d)) return r;
    srcs.push_back({d, block});
  }
  r = xor_chain_read(array_, srcs, out, retry_, &c);
  if (!r.ok()) return r;
  {
    std::lock_guard sk(stats_mu_);
    ++stats_.reconstructed_reads;
  }
  if (events_) {
    emit_event(obs::EventLevel::kWarn,
               "read served by parity reconstruction (conversion flow)", -1,
               -1, disk, block, "reconstructed_read");
  }
  return r;
}

IoResult OnlineMigrator::fold_diags(std::int64_t group, int lo, int hi,
                                    std::span<std::uint8_t> out,
                                    IoCounters& c) {
  // Chain for diagonal parity row i (Eq. 2): data cells
  // (<i-1-j> mod p, j), j != i. Every data cell is on exactly one chain
  // and no horizontal-parity cell (row p-2-j of column j) is on any, so
  // a full group borrows each source column minus its parity cell: one
  // run above it and one below. Cell (r, j) is view slot j*(p-1) + r,
  // so a run of one column fills consecutive slots.
  const int p = code_.p();
  const int rows = p - 1;
  const std::size_t bs = array_.block_bytes();
  const std::int64_t base = group * rows;
  const auto slot = [&](int r, int j) {
    return static_cast<std::size_t>(j * rows + r);
  };
  std::vector<const std::uint8_t*> view(static_cast<std::size_t>(rows * rows));
  std::optional<PooledBuffer> arena;  // blocks read from a fault on
  std::vector<char> need(static_cast<std::size_t>(rows));
  for (int j = 0; j < rows; ++j) {
    // Rows of column j on the chains of diagonal rows [lo, hi), borrowed
    // as one run per stretch of consecutive rows.
    std::ranges::fill(need, 0);
    for (int i = lo; i < hi; ++i) {
      if (i != j) need[static_cast<std::size_t>(pmod(i - 1 - j, p))] = 1;
    }
    for (int r = 0; r < rows;) {
      if (!need[static_cast<std::size_t>(r)]) {
        ++r;
        continue;
      }
      int e = r + 1;
      while (e < rows && need[static_cast<std::size_t>(e)]) ++e;
      const std::int64_t count = e - r;
      const std::span run(view.data() + slot(r, j),
                          static_cast<std::size_t>(count));
      std::int64_t k = 0;
      if (!array_.disk_failed(j)) {
        c.reads += static_cast<std::uint64_t>(count);
        const IoResult res = array_.view_blocks(j, base + r, run);
        k = res.ok() ? count : res.block - (base + r);
        // The run was the first attempt at the faulting block.
        if (res.status == IoStatus::kSectorError) ++c.retries;
      }
      // From a fault on: retry, then reconstruct, into the arena.
      for (; k < count; ++k) {
        if (!arena) arena.emplace(bs * view.size());
        const auto blk =
            arena->block(slot(r, j) + static_cast<std::size_t>(k), bs);
        const IoResult res = read_source(j, base + r + k, blk, c);
        if (!res.ok()) return res;
        run[static_cast<std::size_t>(k)] = blk.data();
      }
      r = e;
    }
  }
  std::vector<const std::uint8_t*> srcs;
  srcs.reserve(static_cast<std::size_t>(p - 2));
  for (int i = lo; i < hi; ++i) {
    srcs.clear();
    for (int j = 0; j < rows; ++j) {
      if (j != i) srcs.push_back(view[slot(pmod(i - 1 - j, p), j)]);
    }
    xor_accumulate(out.subspan(static_cast<std::size_t>(i - lo) * bs, bs),
                   srcs);
  }
  return IoResult::success();
}

IoResult OnlineMigrator::generate_diags(std::int64_t group, int lo, int hi,
                                        IoCounters& c) {
  if (lo == hi) return IoResult::success();
  const std::size_t bs = array_.block_bytes();
  const std::int64_t count = hi - lo;
  const std::int64_t first = group * (code_.p() - 1) + lo;
  PooledBuffer col(bs * static_cast<std::size_t>(count));
  if (const IoResult r = fold_diags(group, lo, hi, col.span(), c); !r.ok()) {
    return r;
  }
  c.writes += static_cast<std::uint64_t>(count);
  const IoResult run = array_.write_blocks(new_disk_, first, count, col.span());
  if (run.ok()) return run;
  // From the faulting block on (a torn block included), rewrite block
  // by block with the retrying writer; the run was the first attempt.
  if (run.status == IoStatus::kTornWrite) ++c.retries;
  for (std::int64_t b = run.block; b < first + count; ++b) {
    const IoResult r = write_block_retry(
        array_, new_disk_, b,
        col.block(static_cast<std::size_t>(b - first), bs), retry_, &c);
    if (!r.ok()) return r;
  }
  return IoResult::success();
}

int OnlineMigrator::first_stale_diag(std::int64_t group, int upto) {
  const int p = code_.p();
  const std::size_t bs = array_.block_bytes();
  PooledBuffer col(bs * static_cast<std::size_t>(upto));
  IoCounters c;
  int i = 0;
  // An unreadable chain rewinds the whole group: the conversion retries it.
  if (fold_diags(group, 0, upto, col.span(), c).ok()) {
    const auto stored = array_.raw_blocks(new_disk_, group * (p - 1), upto);
    while (i < upto &&
           std::ranges::equal(col.block(static_cast<std::size_t>(i), bs),
                              stored.subspan(static_cast<std::size_t>(i) * bs,
                                             bs))) {
      ++i;
    }
  }
  account(c);
  return i;
}

std::int64_t OnlineMigrator::claim_group(int w) {
  {
    WorkerRange& own = *ranges_[static_cast<std::size_t>(w)];
    std::lock_guard lk(own.mu);
    if (own.lo < own.hi) return own.lo++;
  }
  // Own range drained: steal the tail group of the fullest remaining
  // range, so owners keep consuming their front in sequential order.
  for (;;) {
    int victim = -1;
    std::int64_t best = 0;
    for (int v = 0; v < static_cast<int>(ranges_.size()); ++v) {
      if (v == w) continue;
      WorkerRange& r = *ranges_[static_cast<std::size_t>(v)];
      std::lock_guard lk(r.mu);
      if (r.hi - r.lo > best) {
        best = r.hi - r.lo;
        victim = v;
      }
    }
    if (victim < 0) return -1;
    WorkerRange& r = *ranges_[static_cast<std::size_t>(victim)];
    std::lock_guard lk(r.mu);
    if (r.lo < r.hi) return --r.hi;
    // Drained between the scan and the lock; rescan for another victim.
  }
}

void OnlineMigrator::note_progress(std::int64_t group) {
  const int p = code_.p();
  std::lock_guard pk(progress_mu_);
  // Group-completion checkpoint of the watermark group, then one record
  // per watermark advance.
  if (group == groups_done_.load() && journal_) journal_->record(group, p - 1);
  const std::int64_t old = groups_done_.load();
  std::int64_t wm = old;
  while (wm < groups_ && converted_[wm].load(std::memory_order_acquire)) {
    ++wm;
  }
  if (wm == old) return;
  groups_done_.store(wm);
  if (journal_) journal_->record(wm, 0);
  if (events_ && obs::events_enabled()) {
    emit_event(obs::EventLevel::kDebug,
               "watermark advanced to group " + std::to_string(wm), wm, -1,
               -1, -1, "watermark");
  }
}

bool OnlineMigrator::convert_group(int w, std::int64_t g) {
  const int p = code_.p();
  {
    std::unique_lock lk(mu_);
    // A pending application write preempts the converter between group
    // steps (Algorithm 2, "interrupt the conversion thread").
    cv_.wait(lk, [this] {
      return pending_writers_.load() == 0 || stop_requested_.load() ||
             state_ == MigrationState::kAborted;
    });
    if (state_ == MigrationState::kAborted || stop_requested_.load()) {
      return false;
    }
  }
  IoCounters c;
  IoResult res;
  {
    std::shared_lock ops(ops_mu_);
    ctrl_->with_stripe_lock(g, [&] {
      res = generate_diags(g, 0, p - 1, c);
      if (res.ok()) converted_[g].store(true, std::memory_order_release);
    });
  }
  account(c);
  if (!res.ok()) {
    abort_from_io("conversion cannot generate the diagonal column of group " +
                  std::to_string(g) + ": " + to_string(res));
    return false;
  }
  if (obs::metrics_enabled()) {
    worker_rows_[static_cast<std::size_t>(w)].inc(
        static_cast<std::uint64_t>(p - 1));
  }
  note_progress(g);
  return true;
}

void OnlineMigrator::conversion_worker(int w) {
  for (;;) {
    const std::int64_t g = claim_group(w);
    if (g < 0 || !convert_group(w, g)) {
      return;
    }
  }
}

void OnlineMigrator::worker_entry(int w) {
  conversion_worker(w);
  if (active_workers_.fetch_sub(1) == 1) {
    // Last worker out decides the terminal state.
    std::lock_guard lk(mu_);
    if (state_ == MigrationState::kConverting) {
      state_ = groups_done_.load() >= groups_ ? MigrationState::kDone
                                              : MigrationState::kStopped;
      emit_event(obs::EventLevel::kInfo,
                 state_ == MigrationState::kDone
                     ? "conversion complete: all " + std::to_string(groups_) +
                           " groups generated"
                     : "conversion stopped at watermark group " +
                           std::to_string(groups_done_.load()),
                 -1, w);
    }
    running_.store(false);
  }
}

IoResult OnlineMigrator::serve(
    bool write, const std::function<void(ArrayController&)>& fn) {
  // A pending writer preempts the conversion workers between groups
  // (Algorithm 2, "interrupt the conversion thread"); they are woken
  // once the write is out of the way (or bailed out).
  if (write) pending_writers_.fetch_add(1);
  struct Notifier {
    OnlineMigrator* m;
    ~Notifier() {
      if (!m) return;
      // pending_writers_ changes outside mu_: passing through mu_ first
      // orders this wake-up after any worker's predicate check, so a
      // worker that saw the write pending is already waiting for it.
      { std::lock_guard lk(m->mu_); }
      m->cv_.notify_all();
    }
  } notify{write ? this : nullptr};
  std::shared_lock ops(ops_mu_);
  if (write) {
    pending_writers_.fetch_sub(1);
    if (running_.load()) {
      std::lock_guard sk(stats_mu_);
      ++stats_.interruptions;
    }
  }
  try {
    fn(*ctrl_);
    return IoResult::success();
  } catch (const IoError& e) {
    // A block the write needed is gone: mid-conversion this is the
    // data-loss event Table VI prices, so the migration aborts.
    if (write) {
      abort_from_io("application write lost a block: " + to_string(e.result));
    }
    return e.result;
  }
}

IoResult OnlineMigrator::read_block(std::int64_t logical,
                                    std::span<std::uint8_t> out) {
  return serve(false, [&](ArrayController& c) { c.read(logical, 1, out); });
}

IoResult OnlineMigrator::write_block(std::int64_t logical,
                                     std::span<const std::uint8_t> in) {
  return serve(true, [&](ArrayController& c) { c.write(logical, 1, in); });
}

IoResult OnlineMigrator::write_range(std::int64_t logical, std::size_t offset,
                                     std::span<const std::uint8_t> in) {
  const ArrayController::SubWrite w{logical, static_cast<std::int64_t>(offset),
                                    in};
  return serve(true, [&w](ArrayController& c) {
    c.write_range(std::span<const ArrayController::SubWrite>(&w, 1));
  });
}

OnlineStats OnlineMigrator::stats() const {
  std::lock_guard sk(stats_mu_);
  OnlineStats s = stats_;
  const ArrayController::IoTally t = ctrl_->io_tally();
  s.app_reads = t.reads - rebuild_io_.reads;
  s.app_writes = t.writes - rebuild_io_.writes;
  s.conv_reads += rebuild_io_.reads;
  s.conv_writes += rebuild_io_.writes;
  s.retries += t.retries;
  s.backoff_us += t.backoff_us;
  s.reconstructed_reads += t.reconstructed_reads;
  s.degraded_writes = t.degraded_writes;
  return s;
}

void OnlineMigrator::attach_events(obs::EventLog& log,
                                   std::string migration_id) {
  std::lock_guard lk(mu_);
  if (state_ == MigrationState::kConverting) {
    throw std::logic_error("attach_events: conversion already running");
  }
  events_ = &log;
  migration_id_ = std::move(migration_id);
  ctrl_->attach_events(log);
}

void OnlineMigrator::emit_event(obs::EventLevel level, std::string message,
                                std::int64_t group, int worker, int disk,
                                std::int64_t block,
                                const char* rate_key) const {
  obs::EventLog* log = events_;
  if (!log) return;
  obs::Event ev;
  ev.level = level;
  ev.category = "migration";
  ev.message = std::move(message);
  ev.migration_id = migration_id_;
  ev.group = group;
  ev.worker = worker;
  ev.disk = disk;
  ev.block = block;
  if (rate_key) {
    log->emit(std::move(ev), rate_key);
  } else {
    log->emit(std::move(ev));
  }
}

void OnlineMigrator::attach_metrics(obs::Registry& registry,
                                    const std::string& prefix) {
  metrics_handle_ = registry.add_collector([this, prefix](obs::Collection& c) {
    // stats() and workers() take only leaf locks (stats_mu_ / mu_),
    // which never nest inside anything that could be waiting on the
    // registry, so locking them from the collector is safe.
    const OnlineStats s = stats();
    c.counter(prefix + "_conv_reads", s.conv_reads);
    c.counter(prefix + "_conv_writes", s.conv_writes);
    c.counter(prefix + "_app_reads", s.app_reads);
    c.counter(prefix + "_app_writes", s.app_writes);
    c.counter(prefix + "_interruptions", s.interruptions);
    c.counter(prefix + "_retries", s.retries);
    c.counter(prefix + "_reconstructed_reads", s.reconstructed_reads);
    c.counter(prefix + "_degraded_writes", s.degraded_writes);
    c.counter(prefix + "_backoff_us", s.backoff_us);
    const int n = workers();
    std::uint64_t rows_total = 0;
    for (int w = 0; w < n; ++w) {
      const std::uint64_t rows = worker_rows_[static_cast<std::size_t>(w)]
                                     .value();
      c.counter(prefix + "_rows_converted{worker=\"" + std::to_string(w) +
                    "\"}",
                rows);
      rows_total += rows;
    }
    c.counter(prefix + "_rows_converted_total", rows_total);
    {
      std::lock_guard pk(progress_mu_);
      c.counter(prefix + "_journal_checkpoints",
                journal_ ? journal_->records() : 0);
    }
    c.gauge(prefix + "_groups_done", groups_done_.load());
    c.gauge(prefix + "_groups", groups_);
  });
}

std::int64_t OnlineMigrator::rebuild_failed_disks() {
  std::unique_lock ops(ops_mu_);  // exclude app I/O for the whole rebuild
  if (running_.load()) {
    throw std::logic_error("rebuild_failed_disks: conversion still running");
  }
  std::vector<int> failed;
  for (int d = 0; d < array_.disks(); ++d) {
    if (array_.disk_failed(d)) failed.push_back(d);
  }
  // A lost source disk is its rows' XOR and the diagonal column a
  // function of the data, in any state; two lost disks need both
  // families in every group (Algorithm 1).
  if (failed.size() > 2 ||
      (failed.size() == 2 && state() != MigrationState::kDone)) {
    throw std::runtime_error(
        "rebuild_failed_disks: failure pattern exceeds what the current "
        "migration state can reconstruct");
  }
  // The controller rewrites each disk stripe by stripe. Under the
  // exclusive gate its tally's delta is exactly the rebuild's I/O,
  // which stats() moves to the conversion columns.
  const ArrayController::IoTally t0 = ctrl_->io_tally();
  std::int64_t rebuilt = 0;
  for (int d : failed) rebuilt += ctrl_->rebuild_disk(d);
  const ArrayController::IoTally t1 = ctrl_->io_tally();
  std::lock_guard sk(stats_mu_);
  rebuild_io_.reads += t1.reads - t0.reads;
  rebuild_io_.writes += t1.writes - t0.writes;
  return rebuilt;
}

bool OnlineMigrator::verify_raid6() const {
  std::unique_lock ops(ops_mu_);  // a consistent snapshot of every group
  return ctrl_->scrub().empty();
}

int OnlineMigrator::revert_to_raid5() {
  if (running_.load()) {
    throw std::logic_error("cannot revert while converting");
  }
  // Step 1-2 of the reverse direction: the first m columns already form
  // a valid RAID-5; the diagonal column is simply abandoned.
  return new_disk_;
}

}  // namespace c56::mig
