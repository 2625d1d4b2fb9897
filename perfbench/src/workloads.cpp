// The three workloads, driven through the public VolumeManager SQ/CQ
// API from one generator thread (README.md says why each exists).
//
//  * seq-stream      closed loop: whole-stripe write, then read-back.
//  * rand-rw         open loop: Poisson arrivals over a rate ladder,
//                    60% reads / 25% block writes / 15% 512 B writes.
//  * online-migrate  open loop at a fixed rate while RAID-5 volumes
//                    convert to Code 5-6 (Algorithm 2).
//
// Open-loop latency is timed from each request's due time, so a stall
// anywhere — service or generator — is charged to the requests it
// delays. Every read is checked against the mirror as it retires.

#include <sys/resource.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "obs/metrics.hpp"
#include "obs/reqtrace.hpp"
#include "util/rng.hpp"
#include "xorblk/kernel.hpp"

extern char** environ;

namespace pb {

using c56::svc::OpKind;
using c56::svc::Status;

namespace {

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

Quantile q_of(std::vector<double>& v, double q, const std::string& what) {
  return quantile(v, q, what, g_min_beyond);
}

Op draw_op(c56::Rng& rng) {
  const double u = rng.next_double();
  return u < 0.60 ? Op::kRead : (u < 0.85 ? Op::kWrite : Op::kWriteRange);
}

double op_bytes(Op op) { return op == Op::kWriteRange ? kSector : kBlock; }

// Service shards of the controller workloads. With the generator that
// is three busy threads. The reference host (a 4-vCPU VM on a shared
// machine) grants about three CPUs of time: four spinning threads lose
// about a quarter of theirs in 20-100 ms stalls, so a fourth busy
// thread would mostly measure that.
constexpr int kShards = 2;

// Time slices (or repeated rounds) per run; see Slice.
constexpr int kSlices = 8;

}  // namespace

// ---------------------------------------------------------------------
// Fleets
// ---------------------------------------------------------------------

Fleet make_controller_fleet(const c56::svc::ServiceConfig& cfg, int nvol,
                            std::int64_t stripes, int tenants) {
  Fleet f;
  f.tenants = tenants;
  f.mgr = std::make_unique<c56::svc::VolumeManager>(cfg);
  std::vector<std::uint8_t> buf;
  for (int v = 0; v < nvol; ++v) {
    c56::svc::Volume::Config vc;
    vc.code = c56::CodeId::kCode56;
    vc.p = kP;
    vc.stripes = stripes;
    vc.block_bytes = kBlock;
    vc.cache_stripes = 0;
    vc.owner = f.tenant_of(v);
    c56::svc::Volume* vol = f.mgr->volume(f.mgr->create_volume(vc));
    vol->controller()->set_cache_stripes(0);  // pinned off, whatever the env
    f.vols.push_back(vol);
    f.mirrors.emplace_back(std::uint32_t(v), vol->logical_blocks(), kBlock);
    // Prefill with whole-stripe ranged writes of the version-0 pattern.
    auto* ctrl = vol->controller();
    const std::int64_t chunk = 8 * ctrl->code().data_cell_count();
    buf.resize(std::size_t(chunk) * kBlock);
    for (std::int64_t l = 0; l < vol->logical_blocks(); l += chunk) {
      const std::int64_t n = std::min(chunk, vol->logical_blocks() - l);
      for (std::int64_t b = 0; b < n; ++b) {
        for (int s = 0; s < kSectorsPerBlock; ++s) {
          fill_sector(buf.data() + (std::size_t(b) * kSectorsPerBlock + s) *
                                       kSector,
                      std::uint32_t(v), l + b, s, 0);
        }
      }
      ctrl->write(l, n, {buf.data(), std::size_t(n) * kBlock});
    }
  }
  return f;
}

Fleet make_raid5_fleet(const c56::svc::ServiceConfig& cfg, int nvol,
                       std::int64_t groups, int workers) {
  Fleet f;
  f.tenants = nvol;
  f.mgr = std::make_unique<c56::svc::VolumeManager>(cfg);
  std::uint8_t blk[kBlock];
  for (int v = 0; v < nvol; ++v) {
    c56::svc::Volume* vol = f.mgr->volume(
        f.mgr->create_raid5_volume(kP, groups, kBlock, f.tenant_of(v)));
    vol->migrator()->set_workers(workers);
    f.vols.push_back(vol);
    f.mirrors.emplace_back(std::uint32_t(v), vol->logical_blocks(), kBlock);
    for (std::int64_t l = 0; l < vol->logical_blocks(); ++l) {
      for (int s = 0; s < kSectorsPerBlock; ++s) {
        fill_sector(blk + std::size_t(s) * kSector, std::uint32_t(v), l, s, 0);
      }
      if (!vol->migrator()->write_block(l, blk).ok()) {
        throw std::runtime_error("prefill write failed");
      }
    }
  }
  return f;
}

void verify_fleet(Fleet& f) {
  f.mgr->drain();
  std::vector<std::uint8_t> buf;
  for (std::size_t v = 0; v < f.vols.size(); ++v) {
    c56::svc::Volume* vol = f.vols[v];
    Mirror& m = f.mirrors[v];
    const std::int64_t lb = vol->logical_blocks();
    if (auto* ctrl = vol->controller()) {
      const auto bad = ctrl->scrub();
      if (!bad.empty()) {
        throw Mismatch("scrub: " + std::to_string(bad.size()) +
                       " inconsistent stripes on volume " + std::to_string(v));
      }
      const std::int64_t chunk = 8 * ctrl->code().data_cell_count();
      buf.resize(std::size_t(chunk) * kBlock);
      for (std::int64_t l = 0; l < lb; l += chunk) {
        const std::int64_t n = std::min(chunk, lb - l);
        ctrl->read(l, n, {buf.data(), std::size_t(n) * kBlock});
        m.check(l, n, buf.data(), nullptr, true, "final read-back");
      }
    } else {
      auto* mig = vol->migrator();
      if (mig->state() == c56::mig::MigrationState::kDone &&
          !mig->verify_raid6()) {
        throw Mismatch("verify_raid6 failed on volume " + std::to_string(v));
      }
      buf.resize(kBlock);
      for (std::int64_t l = 0; l < lb; ++l) {
        if (!mig->read_block(l, {buf.data(), kBlock}).ok()) {
          throw Mismatch("final read-back I/O error on volume " +
                         std::to_string(v));
        }
        m.check(l, 1, buf.data(), nullptr, true, "final read-back");
      }
    }
  }
}

LayerCounters layer_counters(Fleet& f) {
  LayerCounters c;
  for (c56::svc::Volume* vol : f.vols) {
    auto& a = vol->array();
    c.read_bytes += double(a.total_read_bytes());
    c.write_bytes += double(a.total_write_bytes());
    c.runs += double(a.total_read_runs() + a.total_write_runs());
    c.coalesced_runs += double(vol->coalesced_runs());
    c.ops += double(vol->ops_completed());
    if (auto* ctrl = vol->controller()) {
      const auto p = ctrl->planner_counters();
      c.planner.full_stripe_writes += p.full_stripe_writes;
      c.planner.partial_stripe_writes += p.partial_stripe_writes;
      c.planner.direct_parities += p.direct_parities;
      c.planner.rmw_parities += p.rmw_parities;
      c.planner.subblock_writes += p.subblock_writes;
      c.planner.delta_parities += p.delta_parities;
      c.planner.subblock_promotions += p.subblock_promotions;
    }
  }
  return c;
}

namespace {

LayerCounters minus(const LayerCounters& a, const LayerCounters& b) {
  LayerCounters d;
  d.read_bytes = a.read_bytes - b.read_bytes;
  d.write_bytes = a.write_bytes - b.write_bytes;
  d.runs = a.runs - b.runs;
  d.coalesced_runs = a.coalesced_runs - b.coalesced_runs;
  d.ops = a.ops - b.ops;
  auto& p = d.planner;
  p.full_stripe_writes =
      a.planner.full_stripe_writes - b.planner.full_stripe_writes;
  p.partial_stripe_writes =
      a.planner.partial_stripe_writes - b.planner.partial_stripe_writes;
  p.direct_parities = a.planner.direct_parities - b.planner.direct_parities;
  p.rmw_parities = a.planner.rmw_parities - b.planner.rmw_parities;
  p.subblock_writes = a.planner.subblock_writes - b.planner.subblock_writes;
  p.delta_parities = a.planner.delta_parities - b.planner.delta_parities;
  p.subblock_promotions =
      a.planner.subblock_promotions - b.planner.subblock_promotions;
  return d;
}

double ratio(double a, double b) { return b > 0 ? a / b : 0.0; }

// ---------------------------------------------------------------------
// Request tracing for the traced pass
// ---------------------------------------------------------------------

/// Arms the program's own request tracing and metrics for one pass and
/// exposes the manager's histograms through a private registry.
class TraceArm {
 public:
  explicit TraceArm(c56::svc::VolumeManager& mgr) : mgr_(mgr) {
    mgr_.attach_metrics(reg_);
    c56::obs::set_metrics_enabled(true);
    c56::obs::set_req_trace_enabled(true);
  }
  ~TraceArm() {
    disarm();
    mgr_.detach_metrics();
  }
  TraceArm(const TraceArm&) = delete;
  TraceArm& operator=(const TraceArm&) = delete;

  void disarm() {
    c56::obs::set_req_trace_enabled(false);
    c56::obs::set_metrics_enabled(false);
  }
  c56::obs::Snapshot snapshot() const { return reg_.snapshot(); }

 private:
  c56::svc::VolumeManager& mgr_;
  c56::obs::Registry reg_;
};

// ---------------------------------------------------------------------
// Open-loop driver
// ---------------------------------------------------------------------

struct Slot {
  std::atomic<int> state{0};  // 0 free, 1 in flight, 2 completed
  Status status = Status::kOk;
  std::int64_t due = 0;   // latency origin: due time, or submit time
  std::int64_t done = 0;
  Op op = Op::kRead;
  bool record = false;
  int vol = 0;
  std::int64_t block = 0;
  int sector = 0;
  std::uint32_t floor[kSectorsPerBlock] = {};
  std::uint8_t* buf = nullptr;
};

struct RungStats {
  std::vector<double> read_us, write_us, late_us, submit_ns;
  std::uint64_t attempted = 0, failed = 0, queue_full = 0, submit_calls = 0;
  std::uint64_t whole_writes = 0, ops = 0;
  double bytes = 0;
  std::int64_t first_due = 0, last_done = 0;
  std::int64_t peak_backlog = 0;
  double backlog_sum[4] = {};
  double backlog_n[4] = {};

  /// Payload MB/s of the recorded ops, first due time to last done.
  double mb_per_s() const {
    return last_done > first_due ? bytes / 1e6 / (double(last_done - first_due) / 1e9)
                                 : 0.0;
  }
  double ops_per_s() const {
    return last_done > first_due ? double(ops) / (double(last_done - first_due) / 1e9)
                                 : 0.0;
  }
  /// Backlog grows across the rung: the mean in-flight count of its
  /// last quarter is over twice that of its second quarter (plus slack
  /// for light load).
  bool backlog_grew() const {
    const double q1 = backlog_n[1] > 0 ? backlog_sum[1] / backlog_n[1] : 0;
    const double q3 = backlog_n[3] > 0 ? backlog_sum[3] / backlog_n[3] : 0;
    return q3 > 2 * q1 + 32;
  }
};

/// Fill slot `s` for one op and return its request: a write bumps the
/// mirror and writes the new pattern; a read notes the versions it must
/// see at least.
c56::svc::Request prepare(Fleet& f, Slot& s, Op op, int vol,
                          std::int64_t block, int sector) {
  Mirror& m = f.mirrors[std::size_t(vol)];
  s.op = op;
  s.vol = vol;
  s.block = block;
  s.sector = sector;
  c56::svc::Request r;
  r.volume = vol;
  r.tenant = f.tenant_of(vol);
  r.logical = block;
  switch (op) {
    case Op::kRead:
      for (int i = 0; i < kSectorsPerBlock; ++i) s.floor[i] = m.at(block, i);
      r.kind = OpKind::kRead;
      r.out = {s.buf, kBlock};
      break;
    case Op::kWrite:
      m.write(block, 0, kSectorsPerBlock, s.buf);
      r.kind = OpKind::kWrite;
      r.in = {s.buf, kBlock};
      break;
    case Op::kWriteRange:
      m.write(block, sector, 1, s.buf);
      r.kind = OpKind::kWriteRange;
      r.offset = std::int64_t(sector) * std::int64_t(kSector);
      r.in = {s.buf, kSector};
      break;
  }
  Slot* sp = &s;
  r.on_complete = [sp](const c56::svc::Completion& c) {
    sp->status = c.status;
    sp->done = now_ns();
    sp->state.store(2, std::memory_order_release);
  };
  s.state.store(1, std::memory_order_relaxed);
  return r;
}

/// Submit `r`, resubmitting on kQueueFull (`idle` runs between tries).
/// Any other rejection queued nothing: the mirror bump is undone and
/// the op counts as failed. Returns whether the op was accepted.
bool submit_op(Fleet& f, Slot& s, const c56::svc::Request& r, RungStats& st,
               bool time_submits, const std::function<void()>& idle) {
  ++st.attempted;
  for (;;) {
    const std::int64_t a = time_submits ? now_ns() : 0;
    const Status rs = f.mgr->submit(r);
    if (time_submits) st.submit_ns.push_back(double(now_ns() - a));
    ++st.submit_calls;
    if (rs == Status::kOk) return true;
    if (rs != Status::kQueueFull) break;
    ++st.queue_full;
    idle();
  }
  ++st.failed;
  s.state.store(0, std::memory_order_relaxed);
  Mirror& m = f.mirrors[std::size_t(s.vol)];
  if (s.op == Op::kWrite) {
    for (int i = 0; i < kSectorsPerBlock; ++i) --m.at(s.block, i);
  } else if (s.op == Op::kWriteRange) {
    --m.at(s.block, s.sector);
  }
  return false;
}

/// Account a completed op: check a read against the mirror, and record
/// latency (from s.due) and payload when the op is in the sample.
void complete_op(Fleet& f, Slot& s, RungStats& st) {
  if (s.status != Status::kOk) {
    ++st.failed;
  } else if (s.op == Op::kRead) {
    f.mirrors[std::size_t(s.vol)].check(s.block, 1, s.buf, s.floor, false,
                                        "read");
  }
  if (s.record) {
    const double us = double(s.done - s.due) / 1e3;
    (s.op == Op::kRead ? st.read_us : st.write_us).push_back(us);
    st.whole_writes += s.op == Op::kWrite;
    ++st.ops;
    st.bytes += op_bytes(s.op);
    if (st.first_due == 0 || s.due < st.first_due) st.first_due = s.due;
    st.last_done = std::max(st.last_done, s.done);
  }
  s.state.store(0, std::memory_order_relaxed);
}

struct RandomOp {
  Op op;
  int vol;
  std::int64_t block;
  int sector;
};

RandomOp draw_random_op(c56::Rng& rng, const Fleet& f) {
  RandomOp o;
  o.op = draw_op(rng);
  o.vol = int(rng.next_below(std::uint64_t(f.vols.size())));
  o.block = std::int64_t(rng.next_below(
      std::uint64_t(f.vols[std::size_t(o.vol)]->logical_blocks())));
  o.sector = int(rng.next_below(kSectorsPerBlock));
  return o;
}

/// Open loop: Poisson arrivals of the 60/25/15 mix, each request timed
/// from its due time.
class OpenLoop {
 public:
  static constexpr std::size_t kSlots = 16384;

  OpenLoop(Fleet& f, bool time_submits)
      : f_(f), time_submits_(time_submits), slots_(kSlots),
        bufs_(kSlots * kBlock) {
    for (std::size_t i = 0; i < kSlots; ++i) slots_[i].buf = &bufs_[i * kBlock];
  }
  /// Requests still in flight (a run left by an exception) complete
  /// into slots_, so wait for them first.
  ~OpenLoop() { f_.mgr->drain(); }
  OpenLoop(const OpenLoop&) = delete;
  OpenLoop& operator=(const OpenLoop&) = delete;

  /// `rate` ops/s for `seconds`; ops due in the first `warm` seconds
  /// are not recorded. All ops have completed when this returns.
  RungStats run(std::uint64_t seed, double rate, double seconds, double warm) {
    RungStats st;
    c56::Rng rng(mix64(seed));
    const std::int64_t t0 = now_ns() + 1'000'000;
    const std::int64_t t_end = t0 + std::int64_t(seconds * 1e9);
    const std::int64_t t_rec = t0 + std::int64_t(warm * 1e9);
    std::int64_t due = t0;
    for (;;) {
      due += std::int64_t(-std::log(1.0 - rng.next_double()) / rate * 1e9);
      if (due >= t_end) break;
      const RandomOp o = draw_random_op(rng, f_);
      // Spin rather than sleep until the due time: timer wake-ups on a
      // VM like the reference host run milliseconds late at p99, which
      // would be charged to the service as lateness.
      while (now_ns() < due) {
        retire(st, false);
        cpu_relax();
      }
      // A full slot ring means kSlots requests are in flight: wait for
      // the oldest (the new request stays charged from its due time).
      while (submitted_ - retired_ >= kSlots) retire(st, false), cpu_relax();
      Slot& s = slot(submitted_);
      const c56::svc::Request r = prepare(f_, s, o.op, o.vol, o.block, o.sector);
      s.due = due;
      s.record = due >= t_rec;
      if (!submit_op(f_, s, r, st, time_submits_, [&] { retire(st, false); })) {
        continue;
      }
      ++submitted_;
      if (s.record) {
        st.late_us.push_back(double(now_ns() - due) / 1e3);
        const std::int64_t b = f_.mgr->inflight();
        st.peak_backlog = std::max(st.peak_backlog, b);
        const int q = int(std::clamp<std::int64_t>(
            (due - t0) * 4 / std::max<std::int64_t>(t_end - t0, 1), 0, 3));
        st.backlog_sum[q] += double(b);
        st.backlog_n[q] += 1;
      }
    }
    retire(st, true);
    return st;
  }

 private:
  Slot& slot(std::uint64_t seq) { return slots_[seq % kSlots]; }

  /// Complete finished slots in submission order (all of them, waiting,
  /// when `all`).
  void retire(RungStats& st, bool all) {
    while (retired_ < submitted_) {
      Slot& s = slot(retired_);
      if (s.state.load(std::memory_order_acquire) != 2) {
        if (!all) return;
        cpu_relax();
        continue;
      }
      complete_op(f_, s, st);
      ++retired_;
    }
  }

  Fleet& f_;
  bool time_submits_;
  std::vector<Slot> slots_;
  std::vector<std::uint8_t> bufs_;
  std::uint64_t submitted_ = 0;
  std::uint64_t retired_ = 0;
};

/// Closed loop: `clients` requesters of the 60/25/15 mix, each keeping
/// one request outstanding, each timed from submit(). A closed loop
/// keeps the shard busy, so its latency is the service's rather than
/// the host's wake-up latency for an idle shard thread.
class ClosedLoop {
 public:
  ClosedLoop(Fleet& f, int clients, bool time_submits)
      : f_(f), time_submits_(time_submits), slots_(std::size_t(clients)),
        bufs_(std::size_t(clients) * kBlock) {
    for (std::size_t i = 0; i < slots_.size(); ++i) slots_[i].buf = &bufs_[i * kBlock];
  }
  /// See ~OpenLoop.
  ~ClosedLoop() { f_.mgr->drain(); }
  ClosedLoop(const ClosedLoop&) = delete;
  ClosedLoop& operator=(const ClosedLoop&) = delete;

  /// Ops submitted inside [record_from, record_to) are recorded; the
  /// hook may move both.
  std::int64_t record_from = 0;
  std::int64_t record_to = INT64_MAX;

  /// Runs until `hook`, called about every 100 us on this thread,
  /// returns false. All ops have completed when this returns.
  RungStats run(std::uint64_t seed, const std::function<bool()>& hook) {
    RungStats st;
    std::vector<c56::Rng> rngs;
    for (std::size_t c = 0; c < slots_.size(); ++c) rngs.emplace_back(mix64(seed + c));
    std::vector<bool> busy(slots_.size(), false);
    bool going = true;
    auto issue = [&](std::size_t c) {
      const RandomOp o = draw_random_op(rngs[c], f_);
      Slot& s = slots_[c];
      const c56::svc::Request r = prepare(f_, s, o.op, o.vol, o.block, o.sector);
      s.due = now_ns();
      s.record = s.due >= record_from && s.due < record_to;
      busy[c] = submit_op(f_, s, r, st, time_submits_, [] { cpu_relax(); });
    };
    for (std::size_t c = 0; c < slots_.size(); ++c) issue(c);
    std::int64_t next_hook = now_ns();
    for (;;) {
      bool any = false;
      for (std::size_t c = 0; c < slots_.size(); ++c) {
        if (busy[c] && slots_[c].state.load(std::memory_order_acquire) == 2) {
          complete_op(f_, slots_[c], st);
          busy[c] = false;
          if (going) issue(c);
        }
        any = any || busy[c];
      }
      if (!any && !going) break;
      const std::int64_t now = now_ns();
      if (going && now >= next_hook) {
        next_hook = now + 100'000;
        going = hook();
      }
      cpu_relax();
    }
    st.peak_backlog = std::int64_t(slots_.size());
    return st;
  }

 private:
  Fleet& f_;
  bool time_submits_;
  std::vector<Slot> slots_;
  std::vector<std::uint8_t> bufs_;
};

// ---------------------------------------------------------------------
// Shared reporting
// ---------------------------------------------------------------------

/// Exact latency samples and delivered throughput of one time slice of
/// a run. The end-to-end figures are medians over a run's slices, so a
/// burst of host noise inside one slice does not move them.
struct Slice {
  std::vector<double> read_us, write_us;
  double mb_per_s = 0;
};

/// The end-to-end latency and throughput metrics of a run's slices:
/// p50 as the median over slices (or pooled, for one slice). The p90
/// and p99 are printed beside them but are not end-to-end metrics: on
/// the reference host the open-loop tails move with the host's own
/// scheduling stalls by more than any bound could allow. The traced
/// run reports them as e2e.*_p90_us / e2e.*_p99_us.
void slice_metrics(std::vector<Slice>& sl, Metrics& out) {
  struct Spec {
    const char* name;
    bool read;
    double q;
  };
  for (const Spec& sp : {Spec{"read_p50_us", true, 0.50},
                         Spec{"read_p90_us", true, 0.90},
                         Spec{"read_p99_us", true, 0.99},
                         Spec{"write_p50_us", false, 0.50},
                         Spec{"write_p90_us", false, 0.90},
                         Spec{"write_p99_us", false, 0.99}}) {
    std::vector<double> per;
    std::size_t n = 0, beyond = SIZE_MAX;
    for (Slice& x : sl) {
      const Quantile q = q_of(sp.read ? x.read_us : x.write_us, sp.q, sp.name);
      per.push_back(q.value);
      n += q.n;
      beyond = std::min(beyond, q.beyond);
    }
    const std::string note =
        (sl.size() > 1 ? "median of " + std::to_string(sl.size()) + " slices, "
                       : std::string("pooled, ")) +
        "n=" + std::to_string(n) + " min_beyond=" + std::to_string(beyond);
    if (sp.q > 0.5) {
      std::printf("%s %.4f us (%s; not gated)\n", sp.name, median_of(per),
                  note.c_str());
    } else {
      out.set(sp.name, median_of(per), "us", note);
    }
  }
  std::vector<double> mb;
  for (const Slice& x : sl) mb.push_back(x.mb_per_s);
  out.set("mb_per_s", median_of(mb), "MB/s");
}

/// Tail latency of an untraced pass, for the traced run's report.
void tail_metrics(std::vector<double> rd, std::vector<double> wr,
                  Metrics& out) {
  out.set_q("e2e.read_p90_us", q_of(rd, 0.90, "e2e.read_p90_us"), "us");
  out.set_q("e2e.read_p99_us", q_of(rd, 0.99, "e2e.read_p99_us"), "us");
  out.set_q("e2e.write_p90_us", q_of(wr, 0.90, "e2e.write_p90_us"), "us");
  out.set_q("e2e.write_p99_us", q_of(wr, 0.99, "e2e.write_p99_us"), "us");
}

void generator_metrics(RungStats& st, Metrics& out) {
  out.set_q("gen.late_us_p99", q_of(st.late_us, 0.99, "gen.late_us_p99"),
            "us");
  out.set("gen.peak_backlog", double(st.peak_backlog), "count");
}

/// A closed loop has no due times, so nothing is late, and its backlog
/// is its client count.
void closed_generator_metrics(int clients, Metrics& out) {
  out.set("gen.late_us_p99", 0.0, "us", "closed loop: nothing is late");
  out.set("gen.peak_backlog", double(clients), "count",
          "closed loop: one per client");
}

void submit_metrics(RungStats& st, Metrics& out) {
  out.set_q("volume_manager.submit_ns_p50",
            q_of(st.submit_ns, 0.50, "volume_manager.submit_ns_p50"), "ns");
  out.set_q("volume_manager.submit_ns_p99",
            q_of(st.submit_ns, 0.99, "volume_manager.submit_ns_p99"), "ns");
  out.set("volume_manager.queue_full_frac",
          ratio(double(st.queue_full), double(st.submit_calls)), "frac");
}

/// Planner and device-traffic ratios of a traced pass.
void counter_metrics(const TracedPass& p, Metrics& out) {
  const auto& d = p.delta;
  const auto& pc = d.planner;
  out.set("disk_array.read_bytes_per_byte", ratio(d.read_bytes, p.payload_bytes),
          "B/B");
  out.set("disk_array.write_bytes_per_byte",
          ratio(d.write_bytes, p.payload_bytes), "B/B");
  out.set("disk_array.runs_per_op", ratio(d.runs, p.ops), "count");
  out.set("controller.full_stripe_frac",
          ratio(double(pc.full_stripe_writes),
                double(pc.full_stripe_writes + pc.partial_stripe_writes)),
          "frac");
  out.set("controller.rmw_parities_per_write",
          ratio(double(pc.rmw_parities), p.whole_writes), "count");
  out.set("controller.direct_parities_per_write",
          ratio(double(pc.direct_parities), p.whole_writes), "count");
  out.set("controller.delta_parities_per_subwrite",
          ratio(double(pc.delta_parities), double(pc.subblock_writes)), "count");
  out.set("controller.promotions_per_subwrite",
          ratio(double(pc.subblock_promotions), double(pc.subblock_writes)),
          "count");
  out.set("volume.coalesced_runs_per_op", ratio(d.coalesced_runs, d.ops),
          "count");
}

/// The conversion metrics exist only on online-migrate; elsewhere the
/// layer is idle and they read zero.
void idle_online_metrics(Metrics& out) {
  const std::pair<const char*, const char*> idle[] = {
      {"online.convert_mb_per_s", "MB/s"},
      {"online.start_ms", "ms"},
      {"online.group_ms_p50", "ms"},
      {"online.group_ms_p99", "ms"},
      {"online.worker_rows_imbalance", "x"},
      {"online.conv_ios_per_group", "count"},
      {"online.interruptions_per_app_write", "count"},
      {"online.retries", "count"}};
  for (const auto& [name, unit] : idle) out.set(name, 0.0, unit, "no conversion");
}

std::vector<double> timed_setups(const std::function<Fleet()>& build,
                                 Fleet& keep, int repeats) {
  std::vector<double> s;
  for (int k = 0; k < repeats; ++k) {
    keep = Fleet{};  // free the previous fleet before building the next
    const std::int64_t t = now_ns();
    keep = build();
    s.push_back(double(now_ns() - t) / 1e9);
  }
  return s;
}

}  // namespace

// ---------------------------------------------------------------------
// seq-stream
// ---------------------------------------------------------------------

namespace {

struct SeqClient {
  int vol = 0;
  std::int64_t stripe = 0;   // current extent's stripe
  std::int64_t step = 1;     // stripe stride (clients per volume)
  bool reading = false;
  bool in_flight = false;
  std::int64_t t_submit = 0;
  std::atomic<int> done{0};
  Status status = Status::kOk;
  std::int64_t t_done = 0;
  std::vector<std::uint8_t> buf;
};

struct SeqResult {
  std::vector<Slice> slices;
  std::vector<double> submit_ns;
  std::uint64_t attempted = 0, failed = 0, queue_full = 0, submit_calls = 0;
  std::uint64_t ops = 0;
  double mb_per_s() const {
    std::vector<double> v;
    for (const Slice& s : slices) v.push_back(s.mb_per_s);
    return median_of(v);
  }
};

/// Closed loop: each client keeps exactly one request outstanding,
/// alternating a whole-stripe write and the read-back of that stripe.
/// Latency is timed from submit(); ops submitted after `warm` seconds
/// are recorded into one of `nslices` equal time slices, and the
/// payload of those completing before the end counts toward MB/s.
SeqResult seq_loop(Fleet& f, int clients_per_vol, std::uint64_t seed,
                   double seconds, double warm, int nslices,
                   bool time_submits) {
  SeqResult res;
  res.slices.resize(std::size_t(nslices));
  std::vector<double> slice_bytes(std::size_t(nslices), 0.0);
  const int dc = f.vols[0]->controller()->code().data_cell_count();
  const std::size_t extent = std::size_t(dc) * kBlock;
  const std::int64_t stripes = f.vols[0]->controller()->stripes();
  c56::Rng rng(mix64(seed ^ 0x5E9));
  std::vector<std::unique_ptr<SeqClient>> cl;
  for (std::size_t v = 0; v < f.vols.size(); ++v) {
    for (int c = 0; c < clients_per_vol; ++c) {
      auto k = std::make_unique<SeqClient>();
      k->vol = int(v);
      k->step = clients_per_vol;
      k->stripe = c + clients_per_vol *
                          std::int64_t(rng.next_below(
                              std::uint64_t(stripes / clients_per_vol)));
      k->buf.resize(extent);
      cl.push_back(std::move(k));
    }
  }
  const std::int64_t t0 = now_ns();
  const std::int64_t t_rec = t0 + std::int64_t(warm * 1e9);
  const std::int64_t t_end = t0 + std::int64_t(seconds * 1e9);

  auto issue = [&](SeqClient& k) {
    Mirror& m = f.mirrors[std::size_t(k.vol)];
    const std::int64_t l = k.stripe * dc;
    c56::svc::Request r;
    r.volume = k.vol;
    r.tenant = f.tenant_of(k.vol);
    r.logical = l;
    r.count = dc;
    if (k.reading) {
      r.kind = OpKind::kRead;
      r.out = {k.buf.data(), extent};
    } else {
      for (int b = 0; b < dc; ++b) {
        m.write(l + b, 0, kSectorsPerBlock, k.buf.data() + std::size_t(b) * kBlock);
      }
      r.kind = OpKind::kWrite;
      r.in = {k.buf.data(), extent};
    }
    SeqClient* kp = &k;
    r.on_complete = [kp](const c56::svc::Completion& c) {
      kp->status = c.status;
      kp->t_done = now_ns();
      kp->done.store(1, std::memory_order_release);
    };
    ++res.attempted;
    for (;;) {
      k.t_submit = now_ns();
      const Status s = f.mgr->submit(r);
      if (time_submits) res.submit_ns.push_back(double(now_ns() - k.t_submit));
      ++res.submit_calls;
      if (s == Status::kOk) break;
      if (s != Status::kQueueFull) {
        throw std::runtime_error(std::string("seq-stream submit rejected: ") +
                                 c56::svc::to_string(s));
      }
      ++res.queue_full;
      cpu_relax();
    }
    k.in_flight = true;
  };
  auto complete = [&](SeqClient& k) {
    k.done.store(0, std::memory_order_relaxed);
    k.in_flight = false;
    if (k.status != Status::kOk) ++res.failed;
    if (k.reading && k.status == Status::kOk) {
      f.mirrors[std::size_t(k.vol)].check(k.stripe * dc, dc, k.buf.data(),
                                          nullptr, false, "stream read-back");
    }
    if (k.t_submit >= t_rec && k.t_done <= t_end) {
      const auto i = std::size_t(std::min<std::int64_t>(
          nslices - 1, (k.t_submit - t_rec) * nslices / (t_end - t_rec)));
      Slice& sl = res.slices[i];
      (k.reading ? sl.read_us : sl.write_us)
          .push_back(double(k.t_done - k.t_submit) / 1e3);
      slice_bytes[i] += double(extent);
      ++res.ops;
    }
    if (k.reading) k.stripe = (k.stripe + k.step) % stripes;
    k.reading = !k.reading;
  };

  // In-flight requests complete into the clients' buffers: if a check
  // throws, wait for them before the clients go away.
  struct DrainOnExit {
    Fleet& f;
    ~DrainOnExit() { f.mgr->drain(); }
  } drain_on_exit{f};
  for (auto& k : cl) issue(*k);
  std::size_t live = cl.size();
  while (live > 0) {
    bool progressed = false;
    const bool more = now_ns() < t_end;
    for (auto& k : cl) {
      if (!k->in_flight || k->done.load(std::memory_order_acquire) == 0) continue;
      complete(*k);
      progressed = true;
      if (more) {
        issue(*k);
      } else {
        --live;
      }
    }
    if (!progressed) cpu_relax();
  }
  const double slice_s = double(t_end - t_rec) / 1e9 / nslices;
  for (int i = 0; i < nslices; ++i) {
    res.slices[std::size_t(i)].mb_per_s = slice_bytes[std::size_t(i)] / 1e6 / slice_s;
  }
  return res;
}

}  // namespace

Tally run_seq_stream(const Options& o, Metrics& out, std::string& config) {
  const int nvol = 8, clients = 4;
  const std::int64_t stripes = o.tiny ? 16 : 1024;
  c56::svc::ServiceConfig cfg;
  cfg.shards = kShards;
  Fleet f;
  auto build = [&] { return make_controller_fleet(cfg, nvol, stripes, nvol); };
  Tally t;
  if (!o.trace) {
    std::vector<double> setups = timed_setups(build, f, kSetupRepeats);
    config = config_json(o, *f.mgr, 0);
    const double warm = std::min(1.0, o.seconds * 0.1);
    SeqResult r = seq_loop(f, clients, o.seed, o.seconds, warm, kSlices, false);
    verify_fleet(f);
    t.attempted = r.attempted;
    t.failed = r.failed;
    out.set("setup_s", median_of(setups), "s",
            "median of " + std::to_string(setups.size()) + " setups");
    slice_metrics(r.slices, out);
    out.set("peak_rss_mb", peak_rss_mb(), "MB");
    return t;
  }
  timed_setups(build, f, 1);
  config = config_json(o, *f.mgr, 0);
  const double pass_s = o.seconds * 0.35;
  const double warm = std::min(0.5, pass_s * 0.1);
  SeqResult base = seq_loop(f, clients, o.seed, pass_s, warm, 1, false);
  tail_metrics(base.slices[0].read_us, base.slices[0].write_us, out);
  TracedPass tp;
  SeqResult r;
  c56::obs::Snapshot snap;
  {
    TraceArm arm(*f.mgr);
    const LayerCounters c0 = layer_counters(f);
    r = seq_loop(f, clients, o.seed + 1, pass_s, warm, 1, true);
    arm.disarm();
    f.mgr->drain();
    tp.delta = minus(layer_counters(f), c0);
    snap = arm.snapshot();
  }
  verify_fleet(f);
  t.attempted = base.attempted + r.attempted;
  t.failed = base.failed + r.failed;
  // Counter deltas cover the whole pass (warm-up included), so the
  // payload they are divided by does too.
  tp.payload_bytes =
      double(r.attempted) *
      double(f.vols[0]->controller()->code().data_cell_count()) * kBlock;
  tp.ops = double(r.attempted);
  tp.whole_writes = double(r.attempted) / 2;
  tp.e2e_mb_per_s = r.mb_per_s();
  tp.disks = f.vols[0]->array().disks();
  stage_metrics(snap, out);
  counter_metrics(tp, out);
  RungStats st;  // closed loop: no due times, so no lateness or backlog
  st.submit_ns = std::move(r.submit_ns);
  st.queue_full = r.queue_full;
  st.submit_calls = r.submit_calls;
  submit_metrics(st, out);
  closed_generator_metrics(int(f.vols.size()) * clients, out);
  idle_online_metrics(out);
  out.set("obs.trace_overhead_frac",
          (base.mb_per_s() - r.mb_per_s()) / base.mb_per_s(), "frac",
          "MB/s untraced vs traced");
  f = Fleet{};
  measure_layers(o, tp, false, false, o.seconds * 0.3, out);
  return t;
}

// ---------------------------------------------------------------------
// rand-rw
// ---------------------------------------------------------------------

namespace {

// Offered rates (ops/s) from light load to past saturation; the
// reference rung's latencies are the end-to-end latency metrics, and
// the last rung saturates the service so its delivered MB/s is the
// capacity. Every rung's p99 is judged against kSloP99Us.
constexpr double kLadder[] = {2000, 10000, 30000, 60000, 120000, 2000000};
constexpr int kRungs = int(sizeof(kLadder) / sizeof(kLadder[0]));
constexpr int kRefRung = 2;
constexpr double kSloP99Us = 5000;
// Requests outstanding in the closed-loop latency slices (8 per shard).
constexpr int kRandClients = 16;

struct RungVerdict {
  bool pass = false;
  double p99 = 0;
};

RungVerdict judge(RungStats& st) {
  std::vector<double> all = st.read_us;
  all.insert(all.end(), st.write_us.begin(), st.write_us.end());
  RungVerdict v;
  v.p99 = q_of(all, 0.99, "rung p99").value;
  v.pass = v.p99 <= kSloP99Us && st.failed == 0 && !st.backlog_grew();
  return v;
}

void print_rung(double rate, RungStats& st, const RungVerdict& v) {
  std::vector<double> all = st.read_us;
  all.insert(all.end(), st.write_us.begin(), st.write_us.end());
  std::printf("rung rate=%.0f ops/s delivered=%.0f ops/s p50=%.1f us "
              "p99=%.1f us late_p99=%.1f us peak_backlog=%lld grew=%d "
              "pass=%d\n",
              rate, st.ops_per_s(), q_of(all, 0.5, "rung p50").value, v.p99,
              q_of(st.late_us, 0.99, "late").value, (long long)st.peak_backlog,
              int(st.backlog_grew()), int(v.pass));
}

}  // namespace

Tally run_rand_rw(const Options& o, Metrics& out, std::string& config) {
  const int nvol = 64, tenants = 16;
  const std::int64_t stripes = o.tiny ? 4 : 128;
  c56::svc::ServiceConfig cfg;
  cfg.shards = kShards;
  Fleet f;
  auto build = [&] { return make_controller_fleet(cfg, nvol, stripes, tenants); };
  Tally t;
  const double rung_s = 0.8;
  const double warm = rung_s * 0.1;
  if (!o.trace) {
    std::vector<double> setups = timed_setups(build, f, kSetupRepeats);
    config = config_json(o, *f.mgr, 0);
    OpenLoop ol(f, false);
    auto tally = [&](const RungStats& st) {
      t.attempted += st.attempted;
      t.failed += st.failed;
    };
    // The SLO ladder, stopping at the first rung that misses.
    double slo_rate = 0;
    for (int i = 0; i < kRungs - 1; ++i) {
      RungStats st = ol.run(o.seed * 131 + std::uint64_t(i), kLadder[i],
                            rung_s, warm);
      tally(st);
      const RungVerdict v = judge(st);
      print_rung(kLadder[i], st, v);
      if (!v.pass) break;
      slo_rate = st.ops_per_s();
    }
    std::printf("slo_rate_ops %.1f ops/s (p99 <= %.0f us, no growing backlog)\n",
                slo_rate, kSloP99Us);
    // The gated latency comes from short closed-loop slices that keep
    // both shards busy: at the open-loop reference rate an idle shard
    // pays the host's thread wake-up on most requests, and that cost
    // flips between about 12 and 20 us at p50 from one run to the next
    // on the reference host. A saturating open-loop slice after every
    // fourth gives the capacity. Each metric is a median over slices
    // spread across the run.
    std::vector<Slice> slices;
    std::vector<double> sat_mb;
    const int nslices = std::max(8, int(o.seconds * 2.4));
    for (int k = 0; k < nslices; ++k) {
      ClosedLoop cl(f, kRandClients, false);
      const std::int64_t t_end = now_ns() + 250'000'000;
      RungStats st = cl.run(o.seed * 131 + 1000 + std::uint64_t(k) * 64,
                            [&] { return now_ns() < t_end; });
      tally(st);
      Slice sl;
      sl.read_us = std::move(st.read_us);
      sl.write_us = std::move(st.write_us);
      slices.push_back(std::move(sl));
      if (k % 4 != 3) continue;
      RungStats sat = ol.run(o.seed * 131 + 2000 + std::uint64_t(k),
                             kLadder[kRungs - 1], 0.5, warm);
      tally(sat);
      print_rung(kLadder[kRungs - 1], sat, judge(sat));
      sat_mb.push_back(sat.mb_per_s());  // delivered when saturated = capacity
    }
    for (Slice& sl : slices) sl.mb_per_s = median_of(sat_mb);
    verify_fleet(f);
    out.set("setup_s", median_of(setups), "s",
            "median of " + std::to_string(setups.size()) + " setups");
    slice_metrics(slices, out);
    out.set("peak_rss_mb", peak_rss_mb(), "MB");
    return t;
  }
  timed_setups(build, f, 1);
  config = config_json(o, *f.mgr, 0);
  // Untraced: the reference rate (tail latency, overhead baseline) and
  // one saturating slice (the ledger's service-level throughput).
  // Traced: the reference rate again, for the stages and counters.
  const double pass_s = o.seconds * 0.25;
  RungStats base, sat, ref;
  TracedPass tp;
  c56::obs::Snapshot snap;
  {
    OpenLoop ol(f, false);
    base = ol.run(o.seed * 131 + kRefRung, kLadder[kRefRung], pass_s, warm);
    sat = ol.run(o.seed * 131 + kRungs - 1, kLadder[kRungs - 1], 1.0, warm);
    tail_metrics(base.read_us, base.write_us, out);
  }
  {
    OpenLoop ol(f, true);
    TraceArm arm(*f.mgr);
    const LayerCounters c0 = layer_counters(f);
    ref = ol.run(o.seed * 131 + 3000, kLadder[kRefRung], pass_s, warm);
    arm.disarm();
    f.mgr->drain();
    tp.delta = minus(layer_counters(f), c0);
    snap = arm.snapshot();
  }
  verify_fleet(f);
  for (RungStats* s : {&base, &sat, &ref}) {
    t.attempted += s->attempted;
    t.failed += s->failed;
  }
  // The counter deltas span the whole traced pass, warm-up included:
  // scale the recorded ops' payload and mix up to every op issued.
  tp.ops = double(ref.attempted);
  const double scale = ref.ops > 0 ? tp.ops / double(ref.ops) : 0;
  tp.payload_bytes = ref.bytes * scale;
  tp.whole_writes = double(ref.whole_writes) * scale;
  tp.e2e_mb_per_s = sat.mb_per_s();
  tp.disks = f.vols[0]->array().disks();
  stage_metrics(snap, out);
  counter_metrics(tp, out);
  submit_metrics(ref, out);
  generator_metrics(ref, out);
  idle_online_metrics(out);
  std::vector<double> b_all = base.read_us, t_all = ref.read_us;
  b_all.insert(b_all.end(), base.write_us.begin(), base.write_us.end());
  t_all.insert(t_all.end(), ref.write_us.begin(), ref.write_us.end());
  const double b50 = q_of(b_all, 0.5, "untraced p50").value;
  const double t50 = q_of(t_all, 0.5, "traced p50").value;
  out.set("obs.trace_overhead_frac", (t50 - b50) / b50, "frac",
          "reference-rate p50 latency traced vs untraced");
  f = Fleet{};
  measure_layers(o, tp, true, false, o.seconds * 0.3, out);
  return t;
}

// ---------------------------------------------------------------------
// online-migrate
// ---------------------------------------------------------------------

namespace {

// Foreground requesters during a conversion, one request outstanding each.
constexpr int kMigrateClients = 4;

struct Round {
  RungStats fg;
  double start_ms = 0;  // wall time of the start() calls
  double convert_s = 0;
  double source_mb = 0;
  std::vector<double> group_ms;
};

/// One conversion under load: warm the foreground, start every
/// volume's migrator, keep the foreground running until all reach
/// kDone. start() adds the new disk under the migrator's exclusive ops
/// gate, which holds all application I/O; the sample takes the requests
/// submitted after start() returns, so it measures interference with
/// the running conversion. The stall itself is online.start_ms and is
/// inside convert_s.
Round migrate_round(Fleet& f, std::uint64_t seed, double warm,
                    bool time_submits) {
  Round rd;
  ClosedLoop fg(f, kMigrateClients, time_submits);
  fg.record_from = INT64_MAX;
  std::int64_t t_call = 0, t_done = 0, t_last = 0, g_last = 0;
  const std::int64_t t_begin = now_ns();
  auto hook = [&]() -> bool {
    const std::int64_t now = now_ns();
    if (t_call == 0) {
      if (now - t_begin < std::int64_t(warm * 1e9)) return true;
      t_call = now;
      for (auto* v : f.vols) v->migrator()->start();
      t_last = fg.record_from = now_ns();
      rd.start_ms = double(t_last - t_call) / 1e6;
      return true;
    }
    std::int64_t g = 0;
    bool all_done = true;
    for (auto* v : f.vols) {
      auto* m = v->migrator();
      g += m->groups_done();
      const auto s = m->state();
      if (s == c56::mig::MigrationState::kAborted) {
        throw Mismatch("migration aborted: " + m->abort_reason());
      }
      all_done = all_done && s == c56::mig::MigrationState::kDone;
    }
    if (g > g_last) {
      rd.group_ms.push_back(double(now - t_last) / 1e6 / double(g - g_last));
      g_last = g;
      t_last = now;
    }
    if (all_done) {
      t_done = fg.record_to = now;
      return false;
    }
    if (now - t_call > std::int64_t(120e9)) {
      throw std::runtime_error("conversion did not finish within 120 s");
    }
    return true;
  };
  rd.fg = fg.run(seed, hook);
  for (auto* v : f.vols) v->migrator()->finish();
  rd.convert_s = double(t_done - t_call) / 1e9;
  for (auto* v : f.vols) {
    // Source data converted: every data block of the RAID-5 volume.
    rd.source_mb += double(v->logical_blocks()) * double(kBlock) / 1e6;
  }
  return rd;
}

}  // namespace

Tally run_online_migrate(const Options& o, Metrics& out, std::string& config) {
  // One shard, one conversion worker and the generator: three busy
  // threads (see kShards). A second worker doubled the foreground p50
  // on the reference host, which mostly measured its CPU share.
  const int nvol = 1, workers = 1;
  // About 1 GB of source data per conversion (p = 7, 4 KiB blocks).
  const std::int64_t groups = o.tiny ? 64 : 8192;
  c56::svc::ServiceConfig cfg;
  cfg.shards = 1;
  auto build = [&] { return make_raid5_fleet(cfg, nvol, groups, workers); };
  Tally t;
  const double warm = o.tiny ? 0.05 : 0.3;
  Fleet f;
  if (!o.trace) {
    std::vector<double> setups, conv, mbps;
    // A conversion leaves only a few thousand requests to sample, so
    // the latency quantiles pool every round's samples; throughput is
    // the median over rounds.
    Slice pooled;
    // Conversions repeat until --seconds have passed (at least three):
    // each is one setup, one convert_s sample and one MB/s sample.
    const std::int64_t t_stop = now_ns() + std::int64_t(o.seconds * 1e9);
    for (int k = 0; k < kSetupRepeats || now_ns() < t_stop; ++k) {
      setups.push_back(timed_setups(build, f, 1)[0]);
      if (k == 0) config = config_json(o, *f.mgr, workers);
      Round rd = migrate_round(f, o.seed * 977 + std::uint64_t(k), warm, false);
      verify_fleet(f);
      t.attempted += rd.fg.attempted;
      t.failed += rd.fg.failed;
      conv.push_back(rd.convert_s);
      mbps.push_back(rd.source_mb / rd.convert_s);
      std::printf("round %d convert_s=%.4f start_ms=%.1f source_mb=%.1f "
                  "sampled_ops=%llu\n",
                  k, rd.convert_s, rd.start_ms, rd.source_mb,
                  (unsigned long long)rd.fg.ops);
      pooled.read_us.insert(pooled.read_us.end(), rd.fg.read_us.begin(),
                            rd.fg.read_us.end());
      pooled.write_us.insert(pooled.write_us.end(), rd.fg.write_us.begin(),
                             rd.fg.write_us.end());
    }
    pooled.mb_per_s = median_of(mbps);  // source data converted per second
    std::vector<Slice> slices{std::move(pooled)};
    std::printf("convert_s %.4f s (median of %zu conversions)\n",
                median_of(conv), conv.size());
    out.set("setup_s", median_of(setups), "s",
            "median of " + std::to_string(setups.size()) + " setups");
    slice_metrics(slices, out);
    out.set("peak_rss_mb", peak_rss_mb(), "MB");
    return t;
  }
  // Trace mode: three untraced conversions (their pooled tail latency
  // and median convert_s), one traced conversion, then the layers.
  std::vector<double> base_rd, base_wr, base_conv;
  for (int k = 0; k < kSetupRepeats; ++k) {
    timed_setups(build, f, 1);
    if (k == 0) config = config_json(o, *f.mgr, workers);
    Round base = migrate_round(f, o.seed * 977 + std::uint64_t(k), warm, false);
    verify_fleet(f);
    t.attempted += base.fg.attempted;
    t.failed += base.fg.failed;
    base_conv.push_back(base.convert_s);
    base_rd.insert(base_rd.end(), base.fg.read_us.begin(), base.fg.read_us.end());
    base_wr.insert(base_wr.end(), base.fg.write_us.begin(), base.fg.write_us.end());
  }
  tail_metrics(std::move(base_rd), std::move(base_wr), out);
  const double base_convert_s = median_of(base_conv);
  timed_setups(build, f, 1);
  Round rd;
  TracedPass tp;
  c56::obs::Snapshot snap;
  c56::mig::OnlineStats os;
  double rows_max = 0, rows_sum = 0;
  {
    TraceArm arm(*f.mgr);
    const LayerCounters c0 = layer_counters(f);
    rd = migrate_round(f, o.seed * 977 + kSetupRepeats, warm, true);
    arm.disarm();
    f.mgr->drain();
    tp.delta = minus(layer_counters(f), c0);
    snap = arm.snapshot();
    for (auto* v : f.vols) {
      const auto s = v->migrator()->stats();
      os.conv_reads += s.conv_reads;
      os.conv_writes += s.conv_writes;
      os.app_writes += s.app_writes;
      os.interruptions += s.interruptions;
      os.retries += s.retries;
      for (int w = 0; w < workers; ++w) {
        const double r = double(v->migrator()->worker_rows(w));
        rows_max = std::max(rows_max, r);
        rows_sum += r;
      }
    }
  }
  verify_fleet(f);
  t.attempted += rd.fg.attempted;
  t.failed += rd.fg.failed;
  // The device traffic of this workload is mostly the conversion's, so
  // its useful work counts too: the converted source bytes as payload
  // and each converted group as one op.
  const double scale =
      rd.fg.ops > 0 ? double(rd.fg.attempted) / double(rd.fg.ops) : 0;
  tp.ops = double(rd.fg.attempted) + double(groups * nvol);
  tp.payload_bytes = rd.fg.bytes * scale + rd.source_mb * 1e6;
  tp.whole_writes = double(rd.fg.whole_writes) * scale;
  tp.e2e_mb_per_s = rd.fg.mb_per_s();
  tp.disks = f.vols[0]->array().disks();
  stage_metrics(snap, out);
  counter_metrics(tp, out);
  submit_metrics(rd.fg, out);
  closed_generator_metrics(kMigrateClients, out);
  const double total_groups = double(groups * nvol);
  out.set("online.convert_mb_per_s", rd.source_mb / rd.convert_s, "MB/s");
  out.set("online.start_ms", rd.start_ms, "ms", "start(): adding the new disk");
  out.set_q("online.group_ms_p50", q_of(rd.group_ms, 0.5, "online.group_ms_p50"),
            "ms");
  out.set_q("online.group_ms_p99", q_of(rd.group_ms, 0.99, "online.group_ms_p99"),
            "ms");
  out.set("online.worker_rows_imbalance",
          ratio(rows_max, rows_sum / double(workers * nvol)), "x");
  out.set("online.conv_ios_per_group",
          double(os.conv_reads + os.conv_writes) / total_groups, "count");
  out.set("online.interruptions_per_app_write",
          ratio(double(os.interruptions), double(os.app_writes)), "count");
  out.set("online.retries", double(os.retries), "count");
  out.set("obs.trace_overhead_frac",
          (rd.convert_s - base_convert_s) / base_convert_s, "frac",
          "convert_s traced vs untraced");
  f = Fleet{};
  measure_layers(o, tp, true, true, o.seconds * 0.3, out);
  return t;
}

// ---------------------------------------------------------------------
// Reproducibility record
// ---------------------------------------------------------------------

namespace {
std::string jstr(const std::string& s) {
  std::string o = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      o += '\\';
      o += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char b[8];
      std::snprintf(b, sizeof b, "\\u%04x", c);
      o += b;
    } else {
      o += c;
    }
  }
  return o + "\"";
}
}  // namespace

std::string config_json(const Options& o, const c56::svc::VolumeManager& mgr,
                        int conversion_workers) {
  const auto& c = mgr.config();
  std::ostringstream js;
  js << "{\"workload\":" << jstr(o.workload) << ",\"seed\":" << o.seed
     << ",\"seconds\":" << o.seconds << ",\"trace\":" << (o.trace ? 1 : 0)
     << ",\"tiny\":" << (o.tiny ? 1 : 0)
     << ",\"nproc\":" << sysconf(_SC_NPROCESSORS_ONLN)
     << ",\"build_type\":" << jstr(PERFBENCH_BUILD_TYPE)
     << ",\"compiler\":" << jstr(std::string("gcc-compatible ") + __VERSION__)
     << ",\"xor_kernel\":" << jstr(c56::active_kernel().name)
     << ",\"code\":\"Code56\",\"p\":" << kP << ",\"block_bytes\":" << kBlock
     << ",\"stripe_cache\":0"
     << ",\"service\":{\"shards\":" << c.shards
     << ",\"max_batch\":" << c.max_batch
     << ",\"tenant_inflight\":" << c.tenant_inflight
     << ",\"shard_queue_cap\":" << c.shard_queue_cap
     << ",\"quantum_blocks\":" << c.quantum_blocks
     << ",\"idle_trim_bytes\":" << c.idle_trim_bytes
     << ",\"manual_pump\":" << (c.manual_pump ? 1 : 0) << "}"
     << ",\"shards\":" << c.shards
     << ",\"conversion_workers\":" << conversion_workers << ",\"env\":{";
  bool first = true;
  for (char** e = environ; e && *e; ++e) {
    const std::string kv = *e;
    if (kv.rfind("C56_", 0) != 0) continue;
    const auto eq = kv.find('=');
    js << (first ? "" : ",") << jstr(kv.substr(0, eq)) << ":"
       << jstr(eq == std::string::npos ? "" : kv.substr(eq + 1));
    first = false;
  }
  js << "}}";
  return js.str();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;
}

}  // namespace pb
