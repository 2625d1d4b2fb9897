// Per-layer measurements of the traced run that call each module
// directly, bottom up, so every layer's throughput sits next to the
// layer below it (the layer ledger):
//
//   xorblk      xor_accumulate / xor_delta_into at the code's chain width
//   codes       ErasureCode::encode on one stripe
//   disk_array  read_blocks / write_blocks replaying the run count and
//               bytes the traced pass moved, plus sim::DiskParams pricing
//   controller  the workload's op stream fed straight to ArrayController
//   volume      the same stream through Volume::execute in fixed slices
//
// Every replay rate is expressed as client payload MB/s: the layer's
// time to serve the traffic one megabyte of workload payload causes.

#include <cmath>
#include <functional>

#include "bench.hpp"
#include "codes/registry.hpp"
#include "layout/stripe.hpp"
#include "sim/disk_model.hpp"
#include "util/rng.hpp"
#include "xorblk/buffer.hpp"
#include "xorblk/xor.hpp"

namespace pb {

namespace {

/// Repeat `step` (which returns bytes or units done) for about
/// `seconds`; returns units per second.
double rate_for(double seconds, const std::function<double()>& step) {
  double done = 0;
  const std::int64_t t0 = now_ns();
  const std::int64_t t_end = t0 + std::int64_t(seconds * 1e9);
  std::int64_t t = t0;
  do {
    for (int i = 0; i < 16; ++i) done += step();
    t = now_ns();
  } while (t < t_end);
  return done / (double(t - t0) / 1e9);
}

double ratio(double a, double b) { return b > 0 ? a / b : 0.0; }

constexpr std::size_t kPoolBlocks = 8192;  // 32 MiB of XOR sources

void xorblk_metrics(double seconds, int width, Metrics& out) {
  c56::Buffer pool(kPoolBlocks * kBlock);
  c56::Rng rng(7);
  rng.fill(pool.data(), pool.size());
  c56::Buffer dst(kBlock);
  std::size_t at = 0;
  auto blk = [&](std::size_t i) {
    return pool.data() + (i % kPoolBlocks) * kBlock;
  };
  std::vector<const void*> srcs(static_cast<std::size_t>(width));
  const double acc = rate_for(seconds / 2, [&] {
    for (auto& s : srcs) s = blk(at++);
    c56::xor_accumulate(dst.data(), srcs.data(), srcs.size(), kBlock);
    return double(width) * kBlock;
  });
  const double delta = rate_for(seconds / 2, [&] {
    c56::xor_delta_into(dst.data(), blk(at), blk(at + 1), kBlock);
    at += 2;
    return 2.0 * kBlock;
  });
  out.set("xorblk.accumulate_gbps", acc / 1e9, "GB/s",
          "source bytes, " + std::to_string(width) + " sources of 4 KiB");
  out.set("xorblk.delta_gbps", delta / 1e9, "GB/s", "source bytes, 4 KiB");
}

void codes_metrics(double seconds, const c56::ErasureCode& code,
                   Metrics& out) {
  constexpr int kStripes = 64;
  const std::size_t sbytes = std::size_t(code.cell_count()) * kBlock;
  c56::Buffer buf(sbytes * kStripes);
  c56::Rng rng(11);
  rng.fill(buf.data(), buf.size());
  int i = 0;
  const double r = rate_for(seconds, [&] {
    c56::StripeView v({buf.data() + sbytes * std::size_t(i++ % kStripes), sbytes},
                      code.rows(), code.cols(), kBlock);
    code.encode(v);
    return double(code.data_cell_count()) * kBlock;
  });
  out.set("codes.encode_gbps", r / 1e9, "GB/s", "data bytes encoded");
}

/// Replays the traced pass's device traffic shape — runs of the mean
/// run length, reads and writes in the measured byte proportion — on a
/// fresh DiskArray, and prices the same traffic with sim::DiskParams.
/// Returns the replay rate in payload MB/s.
double disk_array_metrics(double seconds, const TracedPass& p, bool tiny,
                          Metrics& out) {
  const double runs = p.delta.runs;
  const double bytes = p.delta.read_bytes + p.delta.write_bytes;
  if (runs <= 0 || p.payload_bytes <= 0) {
    throw std::runtime_error("traced pass moved no device traffic");
  }
  const double run_len = bytes / runs;
  const double read_share = p.delta.read_bytes / bytes;
  const int disks = p.disks;
  const std::int64_t bpd = tiny ? 256 : 8192;
  c56::mig::DiskArray arr(disks, bpd, kBlock);
  const auto k = std::max<std::int64_t>(1, std::llround(run_len / kBlock));
  const std::size_t range =
      std::clamp<std::size_t>(std::size_t(std::llround(run_len / kSector)) * kSector,
                              kSector, kBlock);
  c56::Buffer io(std::size_t(k) * kBlock);
  c56::Rng rng(13);
  const double replay_runs = rate_for(seconds, [&] {
    const int d = int(rng.next_below(std::uint64_t(disks)));
    const bool rd = rng.next_double() < read_share;
    if (run_len < kBlock) {
      const std::int64_t b = std::int64_t(rng.next_below(std::uint64_t(bpd)));
      const auto r = rd ? arr.read_range(d, b, 0, {io.data(), range})
                        : arr.write_range(d, b, 0, {io.data(), range});
      if (!r.ok()) throw std::runtime_error("disk_array replay I/O failed");
    } else {
      const std::int64_t b =
          std::int64_t(rng.next_below(std::uint64_t(bpd - k + 1)));
      const std::span<std::uint8_t> s{io.data(), std::size_t(k) * kBlock};
      const auto r = rd ? arr.read_blocks(d, b, k, s) : arr.write_blocks(d, b, k, s);
      if (!r.ok()) throw std::runtime_error("disk_array replay I/O failed");
    }
    return 1.0;
  });
  const double payload_per_run = p.payload_bytes / runs;
  const double replay = replay_runs * payload_per_run / 1e6;
  // Device model: every run pays an average seek plus half a turn, every
  // byte the media rate; the array's disks work in parallel.
  const c56::sim::DiskParams dp;
  const double s_per_payload_byte =
      ((runs * (dp.avg_seek_ms + dp.avg_rotational_ms()) / 1e3) +
       bytes / (dp.transfer_mb_s * 1e6)) /
      p.payload_bytes / double(disks);
  out.set("disk_array.replay_mb_per_s", replay, "MB/s",
          "payload-equivalent, run length " + std::to_string(run_len) + " B");
  out.set("disk_array.model_mb_per_s", 1.0 / s_per_payload_byte / 1e6, "MB/s",
          "sim::DiskParams defaults, disks in parallel");
  return replay;
}

/// The workload's op stream on one fresh volume, issued either
/// straight to its ArrayController (`direct`) or through
/// Volume::execute in fixed slices. Reads are checked against a mirror
/// and the volume must scrub clean (or verify as RAID-5 contents) at
/// the end. Returns payload MB/s.
double replay_volume(double seconds, bool random_ops, bool migrator,
                     bool direct, bool tiny) {
  using c56::svc::OpKind;
  std::unique_ptr<c56::svc::Volume> vol;
  if (migrator) {
    vol = std::make_unique<c56::svc::Volume>(0, kP, tiny ? 16 : 2048, kBlock, 0);
  } else {
    c56::svc::Volume::Config vc;
    vc.code = c56::CodeId::kCode56;
    vc.p = kP;
    vc.stripes = tiny ? 16 : 2048;
    vc.block_bytes = kBlock;
    vol = std::make_unique<c56::svc::Volume>(0, vc);
    vol->controller()->set_cache_stripes(0);
  }
  const std::int64_t lb = vol->logical_blocks();
  Mirror m(0, lb, kBlock);
  {  // prefill version 0
    std::vector<std::uint8_t> blk(kBlock);
    for (std::int64_t l = 0; l < lb; ++l) {
      for (int s = 0; s < kSectorsPerBlock; ++s) {
        fill_sector(blk.data() + std::size_t(s) * kSector, 0, l, s, 0);
      }
      if (migrator) {
        if (!vol->migrator()->write_block(l, blk).ok()) {
          throw std::runtime_error("replay prefill failed");
        }
      } else {
        vol->controller()->write(l, 1, blk);
      }
    }
  }
  const int dc = migrator ? 1 : vol->controller()->code().data_cell_count();
  // Slice shape: 32 random single-block ops, or 4 whole-stripe extents.
  const int slice = random_ops ? 32 : 4;
  const std::int64_t ext = random_ops ? 1 : dc;
  std::vector<std::uint8_t> bufs(std::size_t(slice) * std::size_t(ext) * kBlock);
  std::vector<c56::svc::QueuedOp> ops(static_cast<std::size_t>(slice));
  std::vector<std::uint32_t> floors(std::size_t(slice) * kSectorsPerBlock);
  std::vector<Op> kinds(static_cast<std::size_t>(slice));
  c56::Rng rng(17);
  std::int64_t seq_stripe = 0;
  const std::int64_t stripes = lb / ext;
  bool seq_reading = false;

  const double rate = rate_for(seconds, [&] {
    double bytes = 0;
    for (int i = 0; i < slice; ++i) {
      auto& op = ops[std::size_t(i)];
      op = c56::svc::QueuedOp{};
      op.volume = vol.get();
      std::uint8_t* b = bufs.data() + std::size_t(i) * std::size_t(ext) * kBlock;
      Op k;
      std::int64_t l;
      int sector = 0;
      if (random_ops) {
        const double u = rng.next_double();
        k = u < 0.60 ? Op::kRead : (u < 0.85 ? Op::kWrite : Op::kWriteRange);
        l = std::int64_t(rng.next_below(std::uint64_t(lb)));
        sector = int(rng.next_below(kSectorsPerBlock));
      } else {
        k = seq_reading ? Op::kRead : Op::kWrite;
        l = ((seq_stripe + i) % stripes) * ext;
      }
      kinds[std::size_t(i)] = k;
      op.req.logical = l;
      op.req.count = ext;
      switch (k) {
        case Op::kRead:
          for (int s = 0; s < kSectorsPerBlock; ++s) {
            floors[std::size_t(i) * kSectorsPerBlock + std::size_t(s)] = m.at(l, s);
          }
          op.req.kind = OpKind::kRead;
          op.req.out = {b, std::size_t(ext) * kBlock};
          bytes += double(ext) * kBlock;
          break;
        case Op::kWrite:
          for (std::int64_t e = 0; e < ext; ++e) {
            m.write(l + e, 0, kSectorsPerBlock, b + std::size_t(e) * kBlock);
          }
          op.req.kind = OpKind::kWrite;
          op.req.in = {b, std::size_t(ext) * kBlock};
          bytes += double(ext) * kBlock;
          break;
        case Op::kWriteRange:
          m.write(l, sector, 1, b);
          op.req.kind = OpKind::kWriteRange;
          op.req.offset = std::int64_t(sector) * std::int64_t(kSector);
          op.req.in = {b, kSector};
          bytes += kSector;
          break;
      }
    }
    if (direct) {
      auto* c = vol->controller();
      for (auto& op : ops) {
        switch (op.req.kind) {
          case OpKind::kRead: c->read(op.req.logical, op.req.count, op.req.out); break;
          case OpKind::kWrite: c->write(op.req.logical, op.req.count, op.req.in); break;
          default: c->write_range(op.req.logical, op.req.offset, op.req.in); break;
        }
      }
    } else {
      vol->execute(ops);
    }
    for (int i = 0; i < slice; ++i) {
      const auto& op = ops[std::size_t(i)];
      if (op.result != c56::svc::Status::kOk) {
        throw std::runtime_error("replay op failed");
      }
      if (kinds[std::size_t(i)] != Op::kRead) continue;
      if (random_ops) {
        m.check(op.req.logical, 1, op.req.out.data(),
                floors.data() + std::size_t(i) * kSectorsPerBlock, false,
                "replay read");
      } else {
        m.check(op.req.logical, ext, op.req.out.data(), nullptr, false,
                "replay read");
      }
    }
    if (!random_ops) {
      if (seq_reading) seq_stripe = (seq_stripe + slice) % stripes;
      seq_reading = !seq_reading;
    }
    return bytes;
  });

  // Correctness of the replay target itself.
  std::vector<std::uint8_t> blk(kBlock);
  if (auto* c = vol->controller(); c && !c->scrub().empty()) {
    throw Mismatch("replay volume failed scrub");
  }
  for (std::int64_t l = 0; l < lb; ++l) {
    if (migrator) {
      if (!vol->migrator()->read_block(l, blk).ok()) {
        throw Mismatch("replay read-back I/O error");
      }
    } else {
      vol->controller()->read(l, 1, blk);
    }
    m.check(l, 1, blk.data(), nullptr, true, "replay read-back");
  }
  return rate / 1e6;
}

}  // namespace

void stage_metrics(const c56::obs::Snapshot& snap, Metrics& out) {
  auto hist = [&](const std::string& name) -> const c56::obs::HistogramSnapshot& {
    const c56::obs::Metric* m = snap.find(name);
    if (!m) throw std::runtime_error("metric " + name + " not exported");
    return m->hist;
  };
  // The six request stages come from the service's own log2-bucket
  // histograms (the benchmark cannot see per-request stage times), so
  // these quantiles are bucket-interpolated; the tail rule still holds.
  auto put = [&](const std::string& out_name, const char* stage, double q) {
    const auto& h = hist(std::string("service_stage_") + stage + "_us");
    const double beyond = double(h.count) * (1.0 - q);
    if (q > 0.5 && beyond < double(g_min_beyond)) {
      throw std::runtime_error(out_name + ": refusing a tail quantile with " +
                               std::to_string(beyond) + " samples beyond it");
    }
    out.set(out_name, h.quantile(q), "us",
            "n=" + std::to_string(h.count) + " log2-bucket histogram");
  };
  put("shard.queue_wait_us_p50", "queue_wait", 0.50);
  put("shard.queue_wait_us_p99", "queue_wait", 0.99);
  put("shard.sched_wait_us_p99", "sched_wait", 0.99);
  put("volume.batch_assembly_us_p99", "batch_assembly", 0.99);
  put("controller.planner_us_p50", "planner", 0.50);
  put("controller.planner_us_p99", "planner", 0.99);
  put("disk_array.device_us_p50", "device", 0.50);
  put("disk_array.device_us_p99", "device", 0.99);
  const auto& b = hist("service_batch_ops");
  out.set("shard.batch_ops_mean", ratio(double(b.sum), double(b.count)), "count",
          "n=" + std::to_string(b.count) + " batches");
}

void measure_layers(const Options& o, const TracedPass& pass, bool random_ops,
                    bool migrator_volume, double seconds, Metrics& out) {
  const auto code = c56::make_code(c56::CodeId::kCode56, kP);
  double inputs = 0;
  for (const auto& ch : code->chains()) inputs += double(ch.inputs.size());
  const int width = int(std::lround(inputs / double(code->chains().size())));
  xorblk_metrics(seconds * 0.1, width, out);
  codes_metrics(seconds * 0.1, *code, out);
  const double da = disk_array_metrics(seconds * 0.2, pass, o.tiny, out);
  const double ctrl =
      replay_volume(seconds * 0.3, random_ops, false, true, o.tiny);
  const double vol =
      replay_volume(seconds * 0.3, random_ops, migrator_volume, false, o.tiny);
  out.set("controller.replay_mb_per_s", ctrl, "MB/s");
  out.set("volume.replay_mb_per_s", vol, "MB/s",
          migrator_volume ? "RAID-5 migrator volume" : "controller volume");
  out.set("controller.ratio_to_disk_array", ratio(ctrl, da), "x");
  out.set("volume.ratio_to_controller", ratio(vol, ctrl), "x");
  out.set("volume_manager.ratio_to_volume", ratio(pass.e2e_mb_per_s, vol), "x",
          "service MB/s of the traced pass over volume replay");
}

}  // namespace pb
