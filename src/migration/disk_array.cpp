#include "migration/disk_array.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>

#include "obs/reqtrace.hpp"

namespace c56::mig {

const char* to_string(IoStatus s) noexcept {
  switch (s) {
    case IoStatus::kOk:
      return "ok";
    case IoStatus::kDiskFailed:
      return "disk failed";
    case IoStatus::kSectorError:
      return "sector error";
    case IoStatus::kTornWrite:
      return "torn write";
  }
  return "?";
}

std::string to_string(const IoResult& r) {
  return std::string(to_string(r.status)) + " at disk " +
         std::to_string(r.disk) + " block " + std::to_string(r.block);
}

DiskArray::DiskArray(int disks, std::int64_t blocks_per_disk,
                     std::size_t block_bytes)
    : blocks_per_disk_(blocks_per_disk), block_bytes_(block_bytes) {
  if (disks <= 0 || blocks_per_disk <= 0 || block_bytes == 0) {
    throw std::invalid_argument("DiskArray: invalid geometry");
  }
  for (int d = 0; d < disks; ++d) add_disk();
}

int DiskArray::add_disk() {
  return add_disk(
      Buffer(static_cast<std::size_t>(blocks_per_disk_) * block_bytes_));
}

int DiskArray::add_disk(Buffer storage) {
  if (storage.size() !=
      static_cast<std::size_t>(blocks_per_disk_) * block_bytes_) {
    throw std::invalid_argument("DiskArray::add_disk: storage of " +
                                std::to_string(storage.size()) +
                                " bytes does not match the disk size");
  }
  auto disk = std::make_unique<Disk>();
  disk->data = std::move(storage);
  // Exclusive vs the metrics collector's shared walk: the push_back may
  // reallocate the table, which must not happen under a snapshot.
  std::unique_lock lk(geom_mu_);
  disks_.push_back(std::move(disk));
  return static_cast<int>(disks_.size()) - 1;
}

void DiskArray::check(int disk, std::int64_t block) const {
  if (disk < 0 || disk >= disks() || block < 0 || block >= blocks_per_disk_) {
    throw std::out_of_range("DiskArray: disk " + std::to_string(disk) +
                            " block " + std::to_string(block) +
                            " outside " + std::to_string(disks()) + "x" +
                            std::to_string(blocks_per_disk_));
  }
}

std::span<std::uint8_t> DiskArray::raw_block(int disk, std::int64_t block) {
  check(disk, block);
  return disks_[static_cast<std::size_t>(disk)]->data.span().subspan(
      static_cast<std::size_t>(block) * block_bytes_, block_bytes_);
}

std::span<const std::uint8_t> DiskArray::raw_block(
    int disk, std::int64_t block) const {
  check(disk, block);
  return disks_[static_cast<std::size_t>(disk)]->data.span().subspan(
      static_cast<std::size_t>(block) * block_bytes_, block_bytes_);
}

void DiskArray::check_run(int disk, std::int64_t block,
                          std::int64_t count) const {
  check(disk, block);
  if (count <= 0 || block + count > blocks_per_disk_) {
    throw std::out_of_range("DiskArray: run of " + std::to_string(count) +
                            " blocks at " + std::to_string(block) +
                            " outside " + std::to_string(blocks_per_disk_));
  }
}

std::span<std::uint8_t> DiskArray::raw_blocks(int disk, std::int64_t block,
                                              std::int64_t count) {
  check_run(disk, block, count);
  return disks_[static_cast<std::size_t>(disk)]->data.span().subspan(
      static_cast<std::size_t>(block) * block_bytes_,
      static_cast<std::size_t>(count) * block_bytes_);
}

std::span<const std::uint8_t> DiskArray::raw_blocks(
    int disk, std::int64_t block, std::int64_t count) const {
  check_run(disk, block, count);
  return disks_[static_cast<std::size_t>(disk)]->data.span().subspan(
      static_cast<std::size_t>(block) * block_bytes_,
      static_cast<std::size_t>(count) * block_bytes_);
}

void DiskArray::set_fault_plan(const FaultPlan& plan) {
  std::lock_guard lk(fault_mu_);
  for (auto& d : disks_) {
    d->fail_after.store(kNeverFails, std::memory_order_relaxed);
  }
  for (const FaultPlan::DiskFailure& f : plan.disk_failures) {
    check(f.disk, 0);
    disks_[static_cast<std::size_t>(f.disk)]->fail_after.store(
        f.after_ios, std::memory_order_relaxed);
  }
  bad_blocks_.clear();
  for (const FaultPlan::BadBlock& b : plan.bad_blocks) {
    check(b.disk, b.block);
    bad_blocks_.emplace_back(b.disk, b.block);
  }
  rot_blocks_.clear();
  for (const FaultPlan::SilentCorruption& s : plan.silent_corruptions) {
    check(s.disk, s.block);
    rot_blocks_.emplace_back(s.disk, s.block);
  }
  sector_error_rate_ = plan.sector_error_rate;
  torn_write_rate_ = plan.torn_write_rate;
  bit_rot_rate_ = plan.bit_rot_rate;
  rng_ = Rng(plan.seed);
  injecting_ = true;
}

void DiskArray::mark_failed(Disk& d) {
  if (!d.failed.exchange(true)) {
    disk_failure_events_.inc();
    failed_count_.fetch_add(1);
  }
}

void DiskArray::fail_disk(int disk) {
  check(disk, 0);
  mark_failed(*disks_[static_cast<std::size_t>(disk)]);
}

void DiskArray::repair_disk(int disk) {
  check(disk, 0);
  Disk& d = *disks_[static_cast<std::size_t>(disk)];
  d.fail_after.store(kNeverFails);
  if (d.failed.exchange(false)) failed_count_.fetch_sub(1);
}

bool DiskArray::disk_failed(int disk) const {
  check(disk, 0);
  return disks_[static_cast<std::size_t>(disk)]->failed.load();
}

int DiskArray::failed_disks() const {
  return failed_count_.load();
}

bool DiskArray::roll(double rate) {
  if (rate <= 0.0) return false;
  std::lock_guard lk(fault_mu_);
  return rng_.next_double() < rate;
}

bool DiskArray::is_bad(int disk, std::int64_t block) const {
  std::lock_guard lk(fault_mu_);
  return std::find(bad_blocks_.begin(), bad_blocks_.end(),
                   std::make_pair(disk, block)) != bad_blocks_.end();
}

void DiskArray::clear_bad(int disk, std::int64_t block) {
  std::lock_guard lk(fault_mu_);
  std::erase(bad_blocks_, std::make_pair(disk, block));
}

std::optional<std::pair<std::size_t, std::uint8_t>> DiskArray::rot_for_write(
    int disk, std::int64_t block) {
  std::lock_guard lk(fault_mu_);
  const bool scripted =
      std::erase(rot_blocks_, std::make_pair(disk, block)) > 0;
  if (!scripted &&
      (bit_rot_rate_ <= 0.0 || rng_.next_double() >= bit_rot_rate_)) {
    return std::nullopt;
  }
  return std::make_pair(
      static_cast<std::size_t>(
          rng_.next_below(static_cast<std::uint64_t>(block_bytes_))),
      static_cast<std::uint8_t>(1u << rng_.next_below(8)));
}

void DiskArray::corrupt_block(int disk, std::int64_t block, std::size_t offset,
                              std::uint8_t mask) {
  check(disk, block);
  if (offset >= block_bytes_ || mask == 0) {
    throw std::invalid_argument("DiskArray::corrupt_block: bad flip");
  }
  raw_block(disk, block)[offset] ^= mask;
  silent_corruptions_.inc();
}

IoResult DiskArray::read_block(int disk, std::int64_t block,
                               std::span<std::uint8_t> out) {
  check(disk, block);
  if (out.size() != block_bytes_) {
    throw std::invalid_argument("DiskArray::read_block: bad buffer size");
  }
  return read_range(disk, block, 0, out);
}

IoResult DiskArray::write_block(int disk, std::int64_t block,
                                std::span<const std::uint8_t> in) {
  check(disk, block);
  if (in.size() != block_bytes_) {
    throw std::invalid_argument("DiskArray::write_block: bad buffer size");
  }
  return write_range(disk, block, 0, in);
}

void DiskArray::check_range(int disk, std::int64_t block, std::size_t offset,
                            std::size_t len) const {
  check(disk, block);
  if (len == 0 || offset > block_bytes_ || len > block_bytes_ - offset) {
    throw std::invalid_argument(
        "DiskArray: range [" + std::to_string(offset) + ", " +
        std::to_string(offset + len) + ") outside block of " +
        std::to_string(block_bytes_) + " bytes");
  }
}

std::int64_t DiskArray::claim_run(Disk& d, std::int64_t count) {
  const std::uint64_t ord = d.ios.fetch_add(static_cast<std::uint64_t>(count),
                                            std::memory_order_relaxed);
  // Per-block fail_after semantics: block k of the run carries ordinal
  // ord+k, so the run survives only its first fail_after-ord blocks.
  const bool was_failed = d.failed.load();
  const std::uint64_t fail_at = d.fail_after.load(std::memory_order_relaxed);
  std::int64_t ok = count;
  if (fail_at <= ord) {
    ok = 0;
  } else if (fail_at - ord < static_cast<std::uint64_t>(count)) {
    ok = static_cast<std::int64_t>(fail_at - ord);
  }
  if (ok < count) mark_failed(d);
  return was_failed ? 0 : ok;  // an already-failed disk transfers nothing
}

IoResult DiskArray::read_run(int disk, std::int64_t block, std::int64_t count,
                             std::size_t len) {
  Disk& d = *disks_[static_cast<std::size_t>(disk)];
  d.reads.inc(static_cast<std::uint64_t>(count));
  d.read_runs.inc();
  d.read_bytes.inc(static_cast<std::uint64_t>(count) * len);
  const std::int64_t ok = claim_run(d, count);
  if (injecting_) {
    for (std::int64_t k = 0; k < ok; ++k) {
      if (is_bad(disk, block + k) || roll(sector_error_rate_)) {
        sector_errors_.inc();
        return IoResult::fail(IoStatus::kSectorError, disk, block + k);
      }
    }
  }
  if (ok < count) {
    return IoResult::fail(IoStatus::kDiskFailed, disk, block + ok);
  }
  return IoResult::success();
}

template <class SrcAt>
IoResult DiskArray::write_run(int disk, std::int64_t block, std::int64_t count,
                              std::size_t offset, std::size_t len,
                              SrcAt src_at) {
  Disk& d = *disks_[static_cast<std::size_t>(disk)];
  d.writes.inc(static_cast<std::uint64_t>(count));
  d.write_runs.inc();
  d.write_bytes.inc(static_cast<std::uint64_t>(count) * len);
  const std::int64_t ok = claim_run(d, count);
  std::uint8_t* dst =
      d.data.data() + static_cast<std::size_t>(block) * block_bytes_ + offset;
  for (std::int64_t k = 0; k < ok; ++k, dst += block_bytes_) {
    const std::uint8_t* src = src_at(k);
    if (!injecting_) {
      std::memcpy(dst, src, len);
      continue;
    }
    if (roll(torn_write_rate_)) {
      std::memcpy(dst, src, len / 2);
      torn_writes_.inc();
      return IoResult::fail(IoStatus::kTornWrite, disk, block + k);
    }
    std::memcpy(dst, src, len);
    // Only a full-block rewrite remaps a bad block; a partial write
    // leaves the mark in place.
    if (len == block_bytes_) clear_bad(disk, block + k);
    if (const auto rot = rot_for_write(disk, block + k)) {
      dst[rot->first % len] ^= rot->second;  // silent: still reported ok
      silent_corruptions_.inc();
    }
  }
  if (ok < count) {
    return IoResult::fail(IoStatus::kDiskFailed, disk, block + ok);
  }
  return IoResult::success();
}

IoResult DiskArray::read_range(int disk, std::int64_t block,
                               std::size_t offset,
                               std::span<std::uint8_t> out) {
  // Counted-I/O entry: attribute this call's wall time to the device
  // stage of whatever request is executing on this thread.
  obs::DeviceSpan dspan;
  check_range(disk, block, offset, out.size());
  const IoResult r = read_run(disk, block, 1, out.size());
  if (r.ok()) {
    std::memcpy(out.data(),
                disks_[static_cast<std::size_t>(disk)]->data.data() +
                    static_cast<std::size_t>(block) * block_bytes_ + offset,
                out.size());
  }
  return r;
}

IoResult DiskArray::write_range(int disk, std::int64_t block,
                                std::size_t offset,
                                std::span<const std::uint8_t> in) {
  obs::DeviceSpan dspan;
  check_range(disk, block, offset, in.size());
  return write_run(disk, block, 1, offset, in.size(),
                   [&](std::int64_t) { return in.data(); });
}

IoResult DiskArray::read_blocks(int disk, std::int64_t block,
                                std::int64_t count,
                                std::span<std::uint8_t> out) {
  obs::DeviceSpan dspan;
  check_run(disk, block, count);
  if (out.size() != static_cast<std::size_t>(count) * block_bytes_) {
    throw std::invalid_argument("DiskArray::read_blocks: bad buffer size");
  }
  const IoResult r = read_run(disk, block, count, block_bytes_);
  const std::size_t n =
      static_cast<std::size_t>(r.ok() ? count : r.block - block);
  if (n > 0) {
    std::memcpy(out.data(),
                disks_[static_cast<std::size_t>(disk)]->data.data() +
                    static_cast<std::size_t>(block) * block_bytes_,
                n * block_bytes_);
  }
  return r;
}

IoResult DiskArray::view_blocks(int disk, std::int64_t block,
                                std::span<const std::uint8_t*> out) {
  obs::DeviceSpan dspan;
  const auto count = static_cast<std::int64_t>(out.size());
  check_run(disk, block, count);
  const IoResult r = read_run(disk, block, count, block_bytes_);
  const std::uint8_t* src =
      disks_[static_cast<std::size_t>(disk)]->data.data() +
      static_cast<std::size_t>(block) * block_bytes_;
  const std::int64_t n = r.ok() ? count : r.block - block;
  for (std::int64_t k = 0; k < n; ++k) {
    out[static_cast<std::size_t>(k)] =
        src + static_cast<std::size_t>(k) * block_bytes_;
  }
  return r;
}

IoResult DiskArray::write_blocks(int disk, std::int64_t block,
                                 std::int64_t count,
                                 std::span<const std::uint8_t> in) {
  obs::DeviceSpan dspan;
  check_run(disk, block, count);
  if (in.size() != static_cast<std::size_t>(count) * block_bytes_) {
    throw std::invalid_argument("DiskArray::write_blocks: bad buffer size");
  }
  return write_run(disk, block, count, 0, block_bytes_, [&](std::int64_t k) {
    return in.data() + static_cast<std::size_t>(k) * block_bytes_;
  });
}

IoResult DiskArray::write_blocks(int disk, std::int64_t block,
                                 std::span<const std::uint8_t* const> srcs) {
  obs::DeviceSpan dspan;
  const auto count = static_cast<std::int64_t>(srcs.size());
  check_run(disk, block, count);
  return write_run(disk, block, count, 0, block_bytes_, [&](std::int64_t k) {
    return srcs[static_cast<std::size_t>(k)];
  });
}

std::uint64_t DiskArray::reads(int disk) const {
  return disks_[static_cast<std::size_t>(disk)]->reads.value();
}

std::uint64_t DiskArray::writes(int disk) const {
  return disks_[static_cast<std::size_t>(disk)]->writes.value();
}

std::uint64_t DiskArray::total_reads() const {
  std::uint64_t n = 0;
  for (int d = 0; d < disks(); ++d) n += reads(d);
  return n;
}

std::uint64_t DiskArray::total_writes() const {
  std::uint64_t n = 0;
  for (int d = 0; d < disks(); ++d) n += writes(d);
  return n;
}

std::uint64_t DiskArray::read_runs(int disk) const {
  return disks_[static_cast<std::size_t>(disk)]->read_runs.value();
}

std::uint64_t DiskArray::write_runs(int disk) const {
  return disks_[static_cast<std::size_t>(disk)]->write_runs.value();
}

std::uint64_t DiskArray::read_bytes(int disk) const {
  return disks_[static_cast<std::size_t>(disk)]->read_bytes.value();
}

std::uint64_t DiskArray::write_bytes(int disk) const {
  return disks_[static_cast<std::size_t>(disk)]->write_bytes.value();
}

std::uint64_t DiskArray::total_read_bytes() const {
  std::uint64_t n = 0;
  for (int d = 0; d < disks(); ++d) n += read_bytes(d);
  return n;
}

std::uint64_t DiskArray::total_write_bytes() const {
  std::uint64_t n = 0;
  for (int d = 0; d < disks(); ++d) n += write_bytes(d);
  return n;
}

std::uint64_t DiskArray::total_read_runs() const {
  std::uint64_t n = 0;
  for (int d = 0; d < disks(); ++d) n += read_runs(d);
  return n;
}

std::uint64_t DiskArray::total_write_runs() const {
  std::uint64_t n = 0;
  for (int d = 0; d < disks(); ++d) n += write_runs(d);
  return n;
}

void DiskArray::attach_metrics(obs::Registry& registry,
                               const std::string& prefix,
                               const std::string& labels) {
  // Caller labels (e.g. volume="3") merge into the per-disk label set
  // and suffix the totals so many arrays can share one registry.
  const std::string lb = labels.empty() ? "" : "{" + labels + "}";
  metrics_handle_ =
      registry.add_collector([this, prefix, labels, lb](obs::Collection& c) {
    // Shared geometry lock: a concurrent add_disk (migration Step 2)
    // must not reallocate the disk table mid-walk.
    std::shared_lock geom(geom_mu_);
    std::uint64_t reads_total = 0, writes_total = 0;
    std::uint64_t read_runs_total = 0, write_runs_total = 0;
    std::uint64_t read_bytes_total = 0, write_bytes_total = 0;
    for (std::size_t d = 0; d < disks_.size(); ++d) {
      const Disk& disk = *disks_[d];
      const std::string label = "{disk=\"" + std::to_string(d) + "\"" +
                                (labels.empty() ? "" : "," + labels) + "}";
      c.counter(prefix + "_reads" + label, disk.reads.value());
      c.counter(prefix + "_writes" + label, disk.writes.value());
      c.counter(prefix + "_read_runs" + label, disk.read_runs.value());
      c.counter(prefix + "_write_runs" + label, disk.write_runs.value());
      reads_total += disk.reads.value();
      writes_total += disk.writes.value();
      read_runs_total += disk.read_runs.value();
      write_runs_total += disk.write_runs.value();
      read_bytes_total += disk.read_bytes.value();
      write_bytes_total += disk.write_bytes.value();
    }
    c.counter(prefix + "_reads_total" + lb, reads_total);
    c.counter(prefix + "_writes_total" + lb, writes_total);
    c.counter(prefix + "_read_runs_total" + lb, read_runs_total);
    c.counter(prefix + "_write_runs_total" + lb, write_runs_total);
    c.counter(prefix + "_read_bytes_total" + lb, read_bytes_total);
    c.counter(prefix + "_write_bytes_total" + lb, write_bytes_total);
    c.counter(prefix + "_sector_errors" + lb, sector_errors_.value());
    c.counter(prefix + "_torn_writes" + lb, torn_writes_.value());
    c.counter(prefix + "_silent_corruptions" + lb,
              silent_corruptions_.value());
    c.counter(prefix + "_disk_failures" + lb, disk_failure_events_.value());
    c.gauge(prefix + "_failed_disks" + lb, failed_disks());
  });
}

}  // namespace c56::mig
