#include "scrub/scrubber.hpp"

#include <chrono>
#include <cstring>
#include <string>

#include "layout/geometry.hpp"
#include "migration/degraded.hpp"
#include "util/env.hpp"

namespace c56::scrub {

namespace {

int env_rate() {
  return static_cast<int>(
      util::env_int("C56_SCRUB_RATE", 0, 1'000'000'000).value_or(0));
}

int env_interval_ms() {
  return static_cast<int>(
      util::env_int("C56_SCRUB_MS", 0, 3'600'000).value_or(1000));
}

std::string cell_text(Cell c, int disk, std::int64_t block) {
  return "cell (" + std::to_string(c.row) + "," + std::to_string(c.col) +
         ") disk " + std::to_string(disk) + " block " + std::to_string(block);
}

}  // namespace

Scrubber::Scrubber(mig::DiskArray& array, mig::ArrayController& ctrl)
    : array_(array),
      ctrl_(&ctrl),
      code_(ctrl.code()),
      locator_(code_),
      stripes_(ctrl.stripes()),
      virtual_cols_(ctrl.code().cols() - array.disks()),
      buf_(static_cast<std::size_t>(ctrl.code().cell_count()) *
           array.block_bytes()),
      scratch_(array.block_bytes()) {
  rate_.store(env_rate());
  interval_ms_.store(env_interval_ms());
}

Scrubber::Scrubber(mig::DiskArray& array, mig::OnlineMigrator& migrator)
    : array_(array),
      mig_(&migrator),
      code_(migrator.code()),
      locator_(code_),
      stripes_(migrator.groups()),
      buf_(static_cast<std::size_t>(migrator.code().cell_count()) *
           array.block_bytes()),
      scratch_(array.block_bytes()) {
  rate_.store(env_rate());
  interval_ms_.store(env_interval_ms());
}

Scrubber::~Scrubber() { stop(); }

int Scrubber::disk_of_col(int col) const {
  const int d = col - virtual_cols_;
  return (d >= 0 && d < array_.disks()) ? d : -1;
}

void Scrubber::scan_locked(std::int64_t stripe, std::int64_t base_block,
                           std::span<const int> trusted, PassReport& rep) {
  const std::size_t bs = array_.block_bytes();
  StripeView v(buf_.span(), code_.rows(), code_.cols(), bs);
  mig::load_raw_stripe(array_, code_, virtual_cols_, base_block, v);
  LocateResult res = locator_.locate(v, trusted);
  ++rep.scanned;
  stripes_scanned_.inc();
  if (res.outcome == LocateResult::Outcome::kClean) return;

  ++rep.dirty;
  stripes_dirty_.inc();
  if (res.outcome == LocateResult::Outcome::kAmbiguous) {
    ++rep.ambiguous;
    ambiguous_.inc();
    emit_event(obs::EventLevel::kWarn,
               "scrub: stripe " + std::to_string(stripe) +
                   " corrupt but ambiguous (" +
                   std::to_string(res.failing_chains.size()) +
                   " failing chains, " + std::to_string(res.candidates.size()) +
                   " candidates)",
               stripe, -1, -1, "scrub-ambiguous");
    return;
  }

  ++rep.located;
  cells_located_.inc();
  {
    const Cell c = cell_of_index(res.cell, code_.cols());
    const int d = disk_of_col(c.col);
    emit_event(obs::EventLevel::kWarn,
               "scrub: stripe " + std::to_string(stripe) +
                   " corrupt, located " +
                   cell_text(c, d, base_block + c.row),
               stripe, d, base_block + c.row, "scrub-located");
  }
  if (!repair_.load()) return;

  // Repair loop: the rewrite goes through counted I/O, so the fault
  // plan applies to it too (a repair write can itself rot or tear) —
  // re-verify from the stored bytes and retry a bounded number of
  // times before declaring the repair failed.
  for (int attempt = 0; attempt < kRepairAttempts; ++attempt) {
    const Cell c = cell_of_index(res.cell, code_.cols());
    const int d = disk_of_col(c.col);
    if (d < 0) break;  // trusted family points at an unbacked cell
    if (!locator_.recompute(v, res.cell, trusted, scratch_.span())) break;
    const std::int64_t b = base_block + c.row;
    (void)array_.write_block(d, b, scratch_.span());  // verified below
    std::memcpy(v.block(res.cell).data(), array_.raw_block(d, b).data(), bs);
    res = locator_.locate(v, trusted);
    if (res.outcome == LocateResult::Outcome::kClean) {
      ++rep.repaired;
      cells_repaired_.inc();
      emit_event(obs::EventLevel::kWarn,
                 "scrub: repaired stripe " + std::to_string(stripe) + " " +
                     cell_text(c, d, b),
                 stripe, d, b, "scrub-repaired");
      return;
    }
    if (res.outcome != LocateResult::Outcome::kLocated) break;
  }
  ++rep.failed;
  repair_failures_.inc();
  emit_event(obs::EventLevel::kError,
             "scrub: repair failed on stripe " + std::to_string(stripe),
             stripe, -1, -1, "scrub-repair-failed");
}

struct Scrubber::Pacer {
  std::chrono::steady_clock::time_point last;
  double tokens = 1.0;  // first stripe is free
};

void Scrubber::pace(Pacer& p) {
  const int rate = rate_.load();
  if (rate <= 0) return;
  const double burst = static_cast<double>(rate);  // one second's worth
  auto refill = [&](std::chrono::steady_clock::time_point now) {
    p.tokens += std::chrono::duration<double>(now - p.last).count() * rate;
    p.last = now;
    if (p.tokens > burst) p.tokens = burst;
  };
  refill(std::chrono::steady_clock::now());
  if (p.tokens < 1.0) {
    const double need_s = (1.0 - p.tokens) / rate;
    std::unique_lock lk(bg_mu_);
    bg_cv_.wait_for(lk, std::chrono::duration<double>(need_s),
                    [&] { return stop_requested_.load(); });
    lk.unlock();
    refill(std::chrono::steady_clock::now());
  }
  p.tokens -= 1.0;
}

PassReport Scrubber::run_pass() {
  std::lock_guard pl(pass_mu_);
  PassReport rep;
  Pacer pacer{std::chrono::steady_clock::now()};
  for (std::int64_t s = 0; s < stripes_; ++s) {
    if (stop_requested_.load()) return rep;  // interrupted: not a full pass
    pace(pacer);
    const std::int64_t base = s * code_.rows();
    if (ctrl_ != nullptr) {
      if (ctrl_->failed_count() > 0) {
        // Raw stripe reads would see a dead disk's stale bytes and
        // every chain through it would fail; wait for the rebuild.
        ++rep.deferred;
        deferred_.inc();
        continue;
      }
      ctrl_->with_stripe_lock(
          s, [&] { scan_locked(s, base, locator_.all_chains(), rep); });
    } else {
      mig_->scrub_group(s, [&](mig::TrustDomain td) {
        const std::vector<int>& trusted =
            td == mig::TrustDomain::kBothFamilies
                ? locator_.all_chains()
                : locator_.horizontal_chains();
        scan_locked(s, base, trusted, rep);
      });
    }
  }
  passes_.inc();
  return rep;
}

void Scrubber::start() {
  std::lock_guard lk(bg_mu_);
  if (running_.load()) return;
  if (thread_.joinable()) thread_.join();  // previous loop already exited
  stop_requested_.store(false);
  running_.store(true);
  thread_ = std::thread([this] {
    while (!stop_requested_.load()) {
      run_pass();
      std::unique_lock slk(bg_mu_);
      bg_cv_.wait_for(slk,
                      std::chrono::milliseconds(interval_ms_.load()),
                      [&] { return stop_requested_.load(); });
    }
    running_.store(false);
  });
}

void Scrubber::stop() {
  {
    std::lock_guard lk(bg_mu_);
    stop_requested_.store(true);
  }
  bg_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  running_.store(false);
  stop_requested_.store(false);  // manual run_pass() keeps working
}

ScrubStats Scrubber::stats() const {
  ScrubStats s;
  s.passes = passes_.value();
  s.stripes_scanned = stripes_scanned_.value();
  s.stripes_dirty = stripes_dirty_.value();
  s.cells_located = cells_located_.value();
  s.cells_repaired = cells_repaired_.value();
  s.ambiguous = ambiguous_.value();
  s.deferred = deferred_.value();
  s.repair_failures = repair_failures_.value();
  return s;
}

void Scrubber::attach_metrics(obs::Registry& registry,
                              const std::string& prefix) {
  metrics_handle_.remove();
  metrics_handle_ = registry.add_collector([this, prefix](obs::Collection& c) {
    c.counter(prefix + "_passes", passes_.value());
    c.counter(prefix + "_stripes_scanned", stripes_scanned_.value());
    c.counter(prefix + "_stripes_dirty", stripes_dirty_.value());
    c.counter(prefix + "_cells_located", cells_located_.value());
    c.counter(prefix + "_cells_repaired", cells_repaired_.value());
    c.counter(prefix + "_ambiguous", ambiguous_.value());
    c.counter(prefix + "_deferred", deferred_.value());
    c.counter(prefix + "_repair_failures", repair_failures_.value());
  });
}

void Scrubber::emit_event(obs::EventLevel level, std::string message,
                          std::int64_t group, int disk, std::int64_t block,
                          const char* rate_key) const {
  if (events_ == nullptr) return;
  obs::Event ev;
  ev.level = level;
  ev.category = "scrub";
  ev.message = std::move(message);
  ev.group = group;
  ev.disk = disk;
  ev.block = block;
  if (rate_key != nullptr) {
    events_->emit(std::move(ev), rate_key);
  } else {
    events_->emit(std::move(ev));
  }
}

}  // namespace c56::scrub
