#include "service/loadgen.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>

#include "sim/disk_model.hpp"
#include "sim/workload.hpp"
#include "util/rng.hpp"
#include "xorblk/buffer.hpp"

namespace c56::svc {

namespace {

using Clock = std::chrono::steady_clock;

// Bytes of random payload the write requests slice from; streams hash
// into it so repeated runs write varied, non-zero content without a
// per-stream allocation.
constexpr std::size_t kPoolBytes = 1 << 21;

std::int64_t streams_per_volume(const LoadParams& p) {
  return (p.streams + p.volumes - 1) / p.volumes;
}

/// One submission in the merged cross-volume order.
struct Arrival {
  double issue_ms = 0;
  std::int32_t vol = 0;    // index into the created-volume list
  std::int32_t idx = 0;    // arrival index within the volume's schedule
  bool is_read = false;
};

}  // namespace

std::vector<VolumeId> create_stream_volumes(VolumeManager& mgr,
                                            const LoadParams& params) {
  if (params.volumes < 1 || params.tenants < 1 || params.streams < 1 ||
      params.requests_per_stream < 1) {
    throw std::invalid_argument("loadgen: params must be >= 1");
  }
  auto code = make_code(params.code, params.p);
  const auto data_cells = static_cast<std::int64_t>(code->data_cell_count());
  code.reset();
  const std::int64_t blocks =
      streams_per_volume(params) * params.requests_per_stream;
  Volume::Config cfg;
  cfg.code = params.code;
  cfg.p = params.p;
  cfg.stripes = std::max<std::int64_t>((blocks + data_cells - 1) / data_cells,
                                       1);
  cfg.block_bytes = params.block_bytes;
  std::vector<VolumeId> ids;
  ids.reserve(static_cast<std::size_t>(params.volumes));
  for (int v = 0; v < params.volumes; ++v) {
    ids.push_back(mgr.create_volume(cfg));
  }
  return ids;
}

LoadStats run_stream_load(VolumeManager& mgr, const LoadParams& params) {
  const std::int64_t spv = streams_per_volume(params);
  const std::int64_t rps = params.requests_per_stream;
  const std::int64_t per_volume = spv * rps;
  const std::size_t bs = params.block_bytes;

  // One Poisson schedule per volume, merged by issue time: the global
  // submit order interleaves volumes/tenants like concurrent clients
  // while each stream's own requests stay in order (arrival k*spv + s
  // is stream s's step k, monotone in k).
  std::vector<Arrival> order;
  order.reserve(static_cast<std::size_t>(per_volume) *
                static_cast<std::size_t>(params.volumes));
  for (int v = 0; v < params.volumes; ++v) {
    sim::WorkloadParams wp;
    wp.disks = 1;
    wp.blocks_per_disk = std::max<std::int64_t>(spv, 1);
    wp.block_bytes = static_cast<std::uint32_t>(bs);
    wp.iops = params.iops;
    wp.horizon_ms = 1.0;  // min_requests is the real bound
    wp.min_requests = per_volume;
    wp.read_fraction = params.read_fraction;
    wp.pattern = sim::AddressPattern::kSequential;
    wp.seed = params.seed + static_cast<std::uint64_t>(v) * 0x9E3779B9u;
    const auto reqs = sim::make_workload(wp);
    for (std::int64_t i = 0; i < per_volume; ++i) {
      const auto& r = reqs[static_cast<std::size_t>(i)];
      order.push_back({r.issue_ms, v, static_cast<std::int32_t>(i),
                       r.op == sim::Op::kRead});
    }
  }
  std::sort(order.begin(), order.end(), [](const Arrival& a, const Arrival& b) {
    if (a.issue_ms != b.issue_ms) return a.issue_ms < b.issue_ms;
    if (a.vol != b.vol) return a.vol < b.vol;
    return a.idx < b.idx;
  });

  Buffer pool(kPoolBytes);
  Rng rng(params.seed ^ 0xC56'0008);
  rng.fill(pool.data(), kPoolBytes);
  // Per-volume read sinks: one volume executes on one shard thread, so
  // a shared sink per volume is race-free (contents are discarded).
  std::vector<Buffer> sinks;
  if (params.read_fraction > 0) {
    sinks.reserve(static_cast<std::size_t>(params.volumes));
    for (int v = 0; v < params.volumes; ++v) sinks.emplace_back(bs);
  }

  std::uint64_t runs0 = 0, bytes0 = 0;
  for (int v = 0; v < params.volumes; ++v) {
    const auto& a = mgr.volume(v)->array();
    runs0 += a.total_read_runs() + a.total_write_runs();
    bytes0 += a.total_read_bytes() + a.total_write_bytes();
  }

  obs::Histogram latency;
  std::atomic<std::uint64_t> errors{0};
  const bool manual = mgr.config().manual_pump;
  LoadStats stats;
  stats.streams = spv * params.volumes;

  const auto t0 = Clock::now();
  for (const Arrival& a : order) {
    const std::int64_t stream_local = a.idx % spv;
    const std::int64_t step = a.idx / spv;
    const std::int64_t global_stream =
        static_cast<std::int64_t>(a.vol) * spv + stream_local;
    Request rq;
    rq.volume = a.vol;
    rq.tenant = static_cast<TenantId>(global_stream %
                                      static_cast<std::int64_t>(params.tenants));
    rq.logical = stream_local * rps + step;
    rq.count = 1;
    if (a.is_read) {
      rq.kind = OpKind::kRead;
      rq.out = sinks[static_cast<std::size_t>(a.vol)].span();
    } else {
      rq.kind = OpKind::kWrite;
      const std::size_t off = static_cast<std::size_t>(
          (static_cast<std::uint64_t>(global_stream) * 2654435761ull +
           static_cast<std::uint64_t>(step) * 40503ull) *
          bs % (kPoolBytes - bs));
      rq.in = std::span<const std::uint8_t>(pool.data() + off, bs);
    }
    rq.on_complete = [&latency, &errors](const Completion& c) {
      latency.observe(c.latency_us);
      if (c.status != Status::kOk) {
        errors.fetch_add(1, std::memory_order_relaxed);
      }
    };
    for (;;) {
      const Status s = mgr.submit(rq);
      if (s == Status::kOk) break;
      if (s != Status::kQueueFull) {  // loadgen bug or shutdown: surface it
        errors.fetch_add(1, std::memory_order_relaxed);
        break;
      }
      ++stats.rejected;
      if (manual) {
        mgr.pump_all();
      } else {
        std::this_thread::yield();
      }
    }
    ++stats.requests;
  }
  mgr.drain();
  stats.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();

  std::uint64_t runs1 = 0, bytes1 = 0;
  for (int v = 0; v < params.volumes; ++v) {
    const auto& a = mgr.volume(v)->array();
    runs1 += a.total_read_runs() + a.total_write_runs();
    bytes1 += a.total_read_bytes() + a.total_write_bytes();
  }
  stats.device_runs = runs1 - runs0;
  stats.device_bytes = bytes1 - bytes0;
  stats.payload_bytes = stats.requests * static_cast<std::int64_t>(bs);
  stats.errors = errors.load(std::memory_order_relaxed);
  stats.mbps = stats.wall_s > 0
                   ? static_cast<double>(stats.payload_bytes) / stats.wall_s /
                         1e6
                   : 0;
  const sim::DiskParams d;
  const double device_ms =
      static_cast<double>(stats.device_runs) *
          (d.avg_seek_ms + d.avg_rotational_ms()) +
      static_cast<double>(stats.device_bytes) / (d.transfer_mb_s * 1e3);
  stats.device_mbps =
      device_ms > 0
          ? static_cast<double>(stats.payload_bytes) / device_ms / 1e3
          : 0;
  const auto h = latency.snapshot();
  stats.p50_us = h.p50;
  stats.p95_us = h.p95;
  stats.p99_us = h.p99;
  stats.max_us = h.max;
  return stats;
}

}  // namespace c56::svc
