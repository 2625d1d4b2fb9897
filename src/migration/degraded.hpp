#pragma once
// Shared degraded-I/O primitives over the fault-injecting DiskArray:
// bounded retry-with-backoff for transient errors (latent sector errors
// on reads, torn writes) and reconstruct-by-XOR-chain reads. The RAID
// controller's recipe-driven reconstruction and the online migrator's
// RAID-5 row reconstruction are both expressed through xor_chain_read,
// so there is exactly one reconstruct-on-read code path. The raw stripe
// loader that the controller, the scrubber and the migrator verify and
// decode through lives here too.

#include <cstdint>
#include <span>

#include "codes/erasure_code.hpp"
#include "layout/stripe.hpp"
#include "migration/disk_array.hpp"
#include "migration/fault.hpp"

namespace c56::mig {

struct BlockAddr {
  int disk = 0;
  std::int64_t block = 0;
};

/// Attempt accounting for one degraded operation; callers fold these
/// into their own stats under their own locking.
struct IoCounters {
  std::uint64_t reads = 0;    // counted reads issued, retries included
  std::uint64_t writes = 0;   // counted writes issued, retries included
  std::uint64_t retries = 0;  // reissues after a transient error
  std::uint64_t backoff_us = 0;  // time slept between retry attempts
};

/// Read with retry. kSectorError is transient (reissued up to
/// policy.max_attempts with exponential backoff); kDiskFailed is
/// permanent and returned immediately.
IoResult read_block_retry(DiskArray& a, int disk, std::int64_t block,
                          std::span<std::uint8_t> out,
                          const RetryPolicy& policy, IoCounters* counters);

/// Write with retry. A torn write is repaired by rewriting the whole
/// block; kDiskFailed is permanent.
IoResult write_block_retry(DiskArray& a, int disk, std::int64_t block,
                           std::span<const std::uint8_t> in,
                           const RetryPolicy& policy, IoCounters* counters);

/// Sub-block variants: same retry discipline over DiskArray's range
/// I/O (the block forms above are their full-block case). A torn range
/// write is repaired by rewriting the whole range.
IoResult read_range_retry(DiskArray& a, int disk, std::int64_t block,
                          std::size_t offset, std::span<std::uint8_t> out,
                          const RetryPolicy& policy, IoCounters* counters);
IoResult write_range_retry(DiskArray& a, int disk, std::int64_t block,
                           std::size_t offset,
                           std::span<const std::uint8_t> in,
                           const RetryPolicy& policy, IoCounters* counters);

/// out = XOR of the addressed blocks (zero for no blocks). This is the
/// reconstruct-on-read kernel: pass the surviving members of the failed
/// block's parity chain. Each member is borrowed as a one-block view
/// (DiskArray::view_blocks) with its own retries, so nothing is staged;
/// the caller must hold the lock that orders writes to those blocks.
/// Fails on the first unreadable source.
IoResult xor_chain_read(DiskArray& a, std::span<const BlockAddr> sources,
                        std::span<std::uint8_t> out,
                        const RetryPolicy& policy, IoCounters* counters);

/// Copy one stripe of `code` into `v` as stored, through the raw
/// (uncounted, fault-free) backdoor: cell (r, c) is block base_block + r
/// of disk c - virtual_cols, nothing is reconstructed, and virtual
/// cells and columns without a disk read as zero. The caller holds the
/// lock that orders writes to the stripe.
void load_raw_stripe(const DiskArray& a, const ErasureCode& code,
                     int virtual_cols, std::int64_t base_block,
                     StripeView v);

}  // namespace c56::mig
