#include "migration/degraded.hpp"

#include <algorithm>
#include <chrono>
#include <thread>
#include <vector>

#include "xorblk/xor.hpp"

namespace c56::mig {
namespace {

void backoff(const RetryPolicy& policy, int attempt, IoCounters* counters) {
  if (policy.backoff_us == 0) return;
  const std::uint64_t us = static_cast<std::uint64_t>(policy.backoff_us)
                           << (attempt - 1);
  if (counters) counters->backoff_us += us;
  std::this_thread::sleep_for(std::chrono::microseconds(us));
}

bool transient(IoStatus s) {
  return s == IoStatus::kSectorError || s == IoStatus::kTornWrite;
}

/// Issue `io` until it succeeds, fails permanently, or exhausts the
/// policy, tallying each attempt into counters->*attempts.
template <class Io>
IoResult with_retry(const RetryPolicy& policy, IoCounters* counters,
                    std::uint64_t IoCounters::*attempts, Io io) {
  for (int attempt = 1;; ++attempt) {
    const IoResult r = io();
    if (counters) ++(counters->*attempts);
    if (r.ok() || !transient(r.status) || attempt >= policy.max_attempts) {
      return r;
    }
    if (counters) ++counters->retries;
    backoff(policy, attempt, counters);
  }
}

}  // namespace

IoResult read_block_retry(DiskArray& a, int disk, std::int64_t block,
                          std::span<std::uint8_t> out,
                          const RetryPolicy& policy, IoCounters* counters) {
  return read_range_retry(a, disk, block, 0, out, policy, counters);
}

IoResult write_block_retry(DiskArray& a, int disk, std::int64_t block,
                           std::span<const std::uint8_t> in,
                           const RetryPolicy& policy, IoCounters* counters) {
  return write_range_retry(a, disk, block, 0, in, policy, counters);
}

IoResult read_range_retry(DiskArray& a, int disk, std::int64_t block,
                          std::size_t offset, std::span<std::uint8_t> out,
                          const RetryPolicy& policy, IoCounters* counters) {
  return with_retry(policy, counters, &IoCounters::reads,
                    [&] { return a.read_range(disk, block, offset, out); });
}

IoResult write_range_retry(DiskArray& a, int disk, std::int64_t block,
                           std::size_t offset,
                           std::span<const std::uint8_t> in,
                           const RetryPolicy& policy, IoCounters* counters) {
  return with_retry(policy, counters, &IoCounters::writes,
                    [&] { return a.write_range(disk, block, offset, in); });
}

IoResult xor_chain_read(DiskArray& a, std::span<const BlockAddr> sources,
                        std::span<std::uint8_t> out,
                        const RetryPolicy& policy, IoCounters* counters) {
  // Borrow every chain member as a one-block view, each retried on its
  // own, then fold them in a single accumulate pass: nothing is staged,
  // and the parity is produced without re-reading out.
  constexpr std::size_t kInline = 64;
  const std::uint8_t* inline_srcs[kInline];
  std::vector<const std::uint8_t*> heap_srcs;
  const std::uint8_t** srcs = inline_srcs;
  if (sources.size() > kInline) {
    heap_srcs.resize(sources.size());
    srcs = heap_srcs.data();
  }
  for (std::size_t i = 0; i < sources.size(); ++i) {
    const BlockAddr& s = sources[i];
    const IoResult r = with_retry(policy, counters, &IoCounters::reads, [&] {
      return a.view_blocks(s.disk, s.block, {srcs + i, 1});
    });
    if (!r.ok()) return r;
  }
  xor_accumulate(out.data(), reinterpret_cast<const void* const*>(srcs),
                 sources.size(), a.block_bytes());
  return IoResult::success();
}

void load_raw_stripe(const DiskArray& a, const ErasureCode& code,
                     int virtual_cols, std::int64_t base_block,
                     StripeView v) {
  const int rows = code.rows();
  const std::size_t bs = a.block_bytes();
  for (int c = 0; c < code.cols(); ++c) {
    const int d = c - virtual_cols;
    const bool on_disk = d >= 0 && d < a.disks();
    const std::span<const std::uint8_t> col =
        on_disk ? a.raw_blocks(d, base_block, rows)
                : std::span<const std::uint8_t>{};
    for (int r = 0; r < rows; ++r) {
      const auto dst = v.block({r, c});
      if (!on_disk || code.kind({r, c}) == CellKind::kVirtual) {
        std::ranges::fill(dst, std::uint8_t{0});
      } else {
        std::ranges::copy(col.subspan(static_cast<std::size_t>(r) * bs, bs),
                          dst.begin());
      }
    }
  }
}

}  // namespace c56::mig
