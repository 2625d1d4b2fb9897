#pragma once
// Open-loop load generator for the block service: many small
// sequential streams (the "100k streams" shape of the service bench)
// spread across many volumes and tenants, driven through
// VolumeManager::submit as fast as the admission control admits them.
//
// Streams are carved from sim::make_workload arrival schedules — one
// Poisson process per volume, merged by issue time across volumes — so
// the submit order interleaves volumes and tenants the way concurrent
// clients would, while each stream still issues its own requests in
// order (the per-tenant FIFO the service preserves). Stream s owns the
// extent [s*requests_per_stream, (s+1)*requests_per_stream) of its
// volume, so a stream is a short sequential burst: exactly the unit
// the shard's queue-depth-aware batching should coalesce under load.
//
// Two throughputs come back, matching the other benches: in-memory
// wall clock over the submit+drain interval, and a device-model figure
// that prices the counted DiskArray I/O through sim::DiskParams (one
// head reposition per run, transfer time per byte) — the deterministic
// number the CI gates compare.

#include <cstdint>
#include <vector>

#include "codes/registry.hpp"
#include "service/volume_manager.hpp"

namespace c56::svc {

struct LoadParams {
  int volumes = 64;
  int tenants = 64;
  /// Requested stream count; rounded up so every volume hosts the same
  /// number of streams (the actual count lands in LoadStats::streams).
  std::int64_t streams = 100000;
  int requests_per_stream = 2;
  /// Fraction of requests that read back a stream block instead of
  /// writing one (0 = pure write load).
  double read_fraction = 0.0;
  std::size_t block_bytes = 512;
  CodeId code = CodeId::kCode56;
  int p = 7;
  /// Mean arrival rate of each volume's Poisson schedule. Shapes the
  /// interleave only — submission is open-loop (no pacing).
  double iops = 20000.0;
  std::uint64_t seed = 1;
};

struct LoadStats {
  std::int64_t streams = 0;
  std::int64_t requests = 0;
  std::int64_t payload_bytes = 0;
  /// kQueueFull rejections absorbed by the resubmit loop (backpressure
  /// events, not failures).
  std::int64_t rejected = 0;
  std::uint64_t errors = 0;  // completions with status != kOk
  double wall_s = 0;
  double mbps = 0;          // payload over submit+drain wall clock
  std::uint64_t device_runs = 0;
  std::uint64_t device_bytes = 0;
  double device_mbps = 0;   // counted I/O priced via sim::DiskParams
  double p50_us = 0, p95_us = 0, p99_us = 0;  // completion latency
  std::uint64_t max_us = 0;
};

/// Create `params.volumes` identical volumes in `mgr`, each sized to
/// hold its share of the streams (ceil so the last stripe may carry
/// slack). Returns the ids (dense, creation order).
std::vector<VolumeId> create_stream_volumes(VolumeManager& mgr,
                                            const LoadParams& params);

/// Drive the stream load through `mgr` (volumes must have been created
/// by create_stream_volumes with the same params) and block until every
/// request completes.
LoadStats run_stream_load(VolumeManager& mgr, const LoadParams& params);

}  // namespace c56::svc
