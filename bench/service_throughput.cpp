// Benchmark of the multi-tenant block service: 100k+ short sequential
// streams spread over 64+ volumes and 64 tenants, driven through the
// VolumeManager's SQ/CQ front end. Results print as a table and land
// in BENCH_service.json.
//
// The headline comparison is queue-depth-aware batching: the same
// stream load replayed deterministically (manual pump, so batch
// composition is exact) at max_batch = 1 versus deep batches. Batch
// size 1 pays the classic small-write penalty per block — every write
// reads its old data and both parities and writes all three back.
// Deep batches hand the volume executor planner-sized slices: adjacent
// stream extents fuse into ranged full-stripe writes (zero pre-reads)
// and scattered singles share one batched write_range per volume (at
// most one parity RMW per stripe per batch). The device-model figures
// price the counted DiskArray I/O through sim::DiskParams, so the gate
// is deterministic.
//
// The sweep runs twice: on Code 5-6 controller volumes and on
// pre-start migrator (RAID-5) volumes of the same geometry, whose
// requests reach the same batch executor through the migrator's gate.
//
// Four exit-code gates, run by CI as --smoke:
//   1. batching: deep-batch device throughput >= 2x max_batch=1, on
//      controller volumes and (1b) on migrator volumes.
//   2. fan-out latency: aggregate p99 across 64 volumes (threaded, 4
//      shards, admission-bounded) <= 3x the single-volume single-shard
//      baseline p99 (noise-tolerant: retried up to 3 times).
//   3. disabled overhead: with the full observability layer attached
//      (metrics collectors, volume collectors, SLO tracker) but every
//      switch off, in-memory throughput >= 0.98x a bare manager —
//      the request-tracing layer must cost one branch per hop when
//      disarmed (noise-tolerant: best-of-3 pairs, remeasured).
//
// Every run also leaves request-tracing artifacts next to the JSON:
// service_trace.json (Chrome trace span trees of a small armed load)
// and service_slow.json (its slowest-N exemplars), which CI uploads
// when a gate fails.

#include <algorithm>
#include <cstdio>
#include <ctime>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/reqtrace.hpp"
#include "obs/trace.hpp"
#include "service/loadgen.hpp"
#include "service/slo.hpp"
#include "service/volume_manager.hpp"
#include "util/table.hpp"

namespace {

using namespace c56;

struct ModeRow {
  std::string name;
  svc::LoadStats stats;
};

/// create_stream_volumes' geometry as pre-start migrator (RAID-5)
/// volumes: one stripe group per Code 5-6 stripe.
void create_raid5_stream_volumes(svc::VolumeManager& mgr,
                                 const svc::LoadParams& lp) {
  const std::int64_t blocks = (lp.streams + lp.volumes - 1) / lp.volumes *
                              lp.requests_per_stream;
  const std::int64_t per_group = std::int64_t{lp.p - 1} * (lp.p - 2);
  for (int v = 0; v < lp.volumes; ++v) {
    mgr.create_raid5_volume(
        lp.p, std::max<std::int64_t>((blocks + per_group - 1) / per_group, 1),
        lp.block_bytes);
  }
}

svc::LoadStats run_mode(const svc::LoadParams& lp, const svc::ServiceConfig& sc,
                        std::string* metrics_json = nullptr,
                        bool raid5 = false) {
  // The registry must outlive the manager: volume-level collectors
  // registered by attach_volume_metrics detach from their subsystems'
  // destructors.
  obs::Registry reg;
  svc::VolumeManager mgr(sc);
  if (raid5) {
    create_raid5_stream_volumes(mgr, lp);
  } else {
    svc::create_stream_volumes(mgr, lp);
  }
  if (metrics_json) {
    mgr.attach_metrics(reg);
    mgr.attach_volume_metrics(reg);
  }
  svc::LoadStats st = svc::run_stream_load(mgr, lp);
  if (metrics_json) {
    *metrics_json = reg.to_json();
    mgr.detach_metrics();
  }
  mgr.stop();
  return st;
}

/// One run with the whole service-plane observability stack wired in —
/// registry collectors, per-volume collectors, SLO tracker — the
/// "attached" arm of the disabled-overhead gate and the armed artifact
/// run. Whether any of it *observes* is up to the global switches.
svc::LoadStats run_mode_attached(const svc::LoadParams& lp,
                                 const svc::ServiceConfig& sc) {
  obs::Registry reg;
  svc::VolumeManager mgr(sc);
  svc::create_stream_volumes(mgr, lp);
  mgr.attach_metrics(reg);
  mgr.attach_volume_metrics(reg);
  svc::SloTracker slo(mgr);
  slo.attach_metrics(reg);
  svc::LoadStats st = svc::run_stream_load(mgr, lp);
  slo.update();
  slo.detach_metrics();
  mgr.detach_metrics();
  mgr.stop();
  return st;
}

void json_mode(std::ostringstream& json, const std::string& name,
               const svc::ServiceConfig& sc, const svc::LoadStats& s,
               bool last) {
  json << "    {\"mode\": \"" << name << "\", \"shards\": " << sc.shards
       << ", \"max_batch\": " << sc.max_batch
       << ", \"streams\": " << s.streams << ", \"requests\": " << s.requests
       << ", \"rejected\": " << s.rejected << ", \"errors\": " << s.errors
       << ", \"mbps\": " << s.mbps << ", \"device_mbps\": " << s.device_mbps
       << ", \"device_runs\": " << s.device_runs
       << ", \"device_bytes\": " << s.device_bytes
       << ", \"p50_us\": " << s.p50_us << ", \"p99_us\": " << s.p99_us
       << ", \"max_us\": " << s.max_us << "}" << (last ? "" : ",") << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::string(argv[1]) == "--smoke";
  obs::set_metrics_enabled(true);

  svc::LoadParams lp;
  lp.volumes = 64;
  lp.tenants = 64;
  lp.streams = 100000;  // rounded up to 100032 (64 x 1563)
  lp.requests_per_stream = 2;
  lp.block_bytes = 512;
  lp.p = 7;
  lp.seed = 0xC56'0801;

  std::printf(
      "Block service: %lld streams x %d requests over %d volumes, "
      "%d tenants, %zu B blocks, p=%d (Code 5-6)%s\n\n",
      static_cast<long long>(lp.streams), lp.requests_per_stream, lp.volumes,
      lp.tenants, lp.block_bytes, lp.p, smoke ? " [smoke]" : "");

  // --- Deterministic batching sweep (manual pump) -----------------
  svc::ServiceConfig base;
  base.shards = 8;
  base.manual_pump = true;
  base.shard_queue_cap = 1 << 18;  // hold the whole load; depth = batching
  base.tenant_inflight = 1 << 19;

  std::vector<ModeRow> rows;
  std::vector<svc::ServiceConfig> cfgs;
  auto add_mode = [&](const std::string& name, int max_batch,
                      std::string* metrics = nullptr, bool raid5 = false) {
    svc::ServiceConfig sc = base;
    sc.max_batch = max_batch;
    rows.push_back({name, run_mode(lp, sc, metrics, raid5)});
    cfgs.push_back(sc);
    return rows.size() - 1;
  };

  std::string metrics_json;
  const std::size_t b1 = add_mode("batch=1", 1);
  add_mode("batch=256", 256);
  if (!smoke) add_mode("batch=4096", 4096);
  const std::size_t sat = add_mode("saturated", 1 << 16, &metrics_json);
  const std::size_t r5_b1 = add_mode("raid5 batch=1", 1, nullptr, true);
  const std::size_t r5_sat =
      add_mode("raid5 saturated", 1 << 16, nullptr, true);

  TextTable t({"mode", "shards", "batch", "requests", "MB/s", "dev MB/s",
               "runs", "p99 us"});
  for (std::size_t i = 0; i < rows.size(); ++i) {
    t.add_row({rows[i].name, std::to_string(cfgs[i].shards),
               std::to_string(cfgs[i].max_batch),
               std::to_string(rows[i].stats.requests),
               TextTable::fmt(rows[i].stats.mbps, 1),
               TextTable::fmt(rows[i].stats.device_mbps, 3),
               std::to_string(rows[i].stats.device_runs),
               TextTable::fmt(rows[i].stats.p99_us, 0)});
  }

  const svc::LoadStats& batch1 = rows[b1].stats;
  const svc::LoadStats& deep = rows[sat].stats;
  const svc::LoadStats& r5_batch1 = rows[r5_b1].stats;
  const svc::LoadStats& r5_deep = rows[r5_sat].stats;

  // --- Threaded fan-out latency (admission-bounded queues) --------
  svc::ServiceConfig multi_cfg;
  multi_cfg.shards = 4;
  multi_cfg.tenant_inflight = 64;  // bounds queueing so p99 is meaningful
  svc::LoadParams single_lp = lp;
  single_lp.volumes = 1;
  // Same sustained per-shard submission load as the multi run (its
  // 200k requests split over 4 shards), so both runs measure the
  // steady-state tail under the same admission cap rather than one
  // short burst against one long one.
  single_lp.streams =
      lp.streams * lp.requests_per_stream / multi_cfg.shards /
      single_lp.requests_per_stream;
  svc::ServiceConfig single_cfg = multi_cfg;
  single_cfg.shards = 1;

  svc::LoadStats multi = run_mode(lp, multi_cfg);
  svc::LoadStats single = run_mode(single_lp, single_cfg);
  double p99_ratio = multi.p99_us / std::max(single.p99_us, 1.0);
  for (int attempt = 1; attempt < 3 && p99_ratio > 3.0; ++attempt) {
    std::printf("p99 ratio %.2f above gate; remeasuring (%d/2)\n", p99_ratio,
                attempt);
    multi = run_mode(lp, multi_cfg);
    single = run_mode(single_lp, single_cfg);
    p99_ratio = std::min(p99_ratio,
                         multi.p99_us / std::max(single.p99_us, 1.0));
  }

  t.add_row({"64-vol threaded", std::to_string(multi_cfg.shards),
             std::to_string(multi_cfg.max_batch),
             std::to_string(multi.requests), TextTable::fmt(multi.mbps, 1),
             TextTable::fmt(multi.device_mbps, 3),
             std::to_string(multi.device_runs),
             TextTable::fmt(multi.p99_us, 0)});
  t.add_row({"1-vol baseline", "1", std::to_string(single_cfg.max_batch),
             std::to_string(single.requests), TextTable::fmt(single.mbps, 1),
             TextTable::fmt(single.device_mbps, 3),
             std::to_string(single.device_runs),
             TextTable::fmt(single.p99_us, 0)});

  // --- Attached-but-disabled overhead (gate 3) --------------------
  // Every switch off: the load must run at bare-manager speed even
  // with the full tracing/metrics/SLO layer attached. The manual-pump
  // load is single-threaded, so the arms are rated by payload over
  // process CPU time — wall clock on a shared runner carries
  // preemption noise far above the 2% budget. Pairs alternate so
  // drift hits both arms; best-of per arm rejects residual noise.
  obs::set_metrics_enabled(false);
  svc::ServiceConfig overhead_cfg = base;
  overhead_cfg.max_batch = 256;
  svc::LoadParams overhead_lp = lp;
  overhead_lp.streams = smoke ? lp.streams / 2 : lp.streams;
  auto cpu_mbps = [&](bool attached) {
    const std::clock_t c0 = std::clock();
    svc::LoadStats st = attached ? run_mode_attached(overhead_lp, overhead_cfg)
                                 : run_mode(overhead_lp, overhead_cfg);
    const double cpu_s =
        static_cast<double>(std::clock() - c0) / CLOCKS_PER_SEC;
    return cpu_s > 0 ? static_cast<double>(st.payload_bytes) / cpu_s / 1e6
                     : st.mbps;
  };
  double plain_best = 0, attached_best = 0, overhead_ratio = 0;
  for (int attempt = 0; attempt < 3; ++attempt) {
    if (attempt > 0) {
      std::printf("overhead ratio %.4f below gate; remeasuring (%d/2)\n",
                  overhead_ratio, attempt);
    }
    for (int round = 0; round < 3; ++round) {
      plain_best = std::max(plain_best, cpu_mbps(false));
      attached_best = std::max(attached_best, cpu_mbps(true));
    }
    overhead_ratio = plain_best > 0 ? attached_best / plain_best : 0;
    if (overhead_ratio >= 0.98) break;
  }
  const bool overhead_pass = overhead_ratio >= 0.98;
  obs::set_metrics_enabled(true);

  // --- Armed artifact run -----------------------------------------
  // A small fully-armed load so every bench run leaves a Chrome trace
  // of request span trees and the slowest-N exemplar bundle on disk
  // for CI to upload when a gate fails.
  obs::set_trace_enabled(true);
  obs::set_req_trace_enabled(true);
  obs::TraceRecorder::global().clear();
  obs::SlowRequestRing::global().clear();
  {
    svc::LoadParams trace_lp = lp;
    trace_lp.volumes = 8;
    trace_lp.tenants = 8;
    trace_lp.streams = 2000;
    svc::ServiceConfig trace_cfg;
    trace_cfg.shards = 4;
    run_mode_attached(trace_lp, trace_cfg);
  }
  obs::set_req_trace_enabled(false);
  obs::set_trace_enabled(false);
  if (FILE* f = std::fopen("service_trace.json", "w")) {
    std::fputs(obs::TraceRecorder::global().to_json().c_str(), f);
    std::fclose(f);
  }
  if (FILE* f = std::fopen("service_slow.json", "w")) {
    std::fputs("{\"slow_requests\": ", f);
    std::fputs(obs::SlowRequestRing::global().to_json().c_str(), f);
    std::fputs("}\n", f);
    std::fclose(f);
  }

  std::ostringstream table_out;
  t.print(table_out);
  std::fputs(table_out.str().c_str(), stdout);

  // Gate 1 (deterministic): deep batches must at least halve the
  // device-model cost of the batch-size-1 replay.
  const double batch_speedup =
      batch1.device_mbps > 0 ? deep.device_mbps / batch1.device_mbps : 0;
  const bool batch_pass = batch_speedup >= 2.0 && deep.errors == 0 &&
                          batch1.errors == 0;
  // Gate 1b: the same on migrator volumes.
  const double r5_speedup = r5_batch1.device_mbps > 0
                                ? r5_deep.device_mbps / r5_batch1.device_mbps
                                : 0;
  const bool r5_pass = r5_speedup >= 2.0 && r5_deep.errors == 0 &&
                       r5_batch1.errors == 0;

  // Gate 2 (noise-tolerant): hosting 64 volumes must not blow up tail
  // latency versus serving one volume alone.
  const bool p99_pass = p99_ratio <= 3.0 && multi.errors == 0;

  std::ostringstream json;
  json << "{\n  \"smoke\": " << (smoke ? "true" : "false")
       << ",\n  \"streams\": " << deep.streams
       << ",\n  \"requests_per_stream\": " << lp.requests_per_stream
       << ",\n  \"volumes\": " << lp.volumes
       << ",\n  \"tenants\": " << lp.tenants
       << ",\n  \"block_bytes\": " << lp.block_bytes << ",\n  \"p\": " << lp.p
       << ",\n  \"modes\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    json_mode(json, rows[i].name, cfgs[i], rows[i].stats, false);
  }
  json_mode(json, "64-vol threaded", multi_cfg, multi, false);
  json_mode(json, "1-vol baseline", single_cfg, single, true);
  json << "  ],\n  \"gates\": {\n"
       << "    \"batch_speedup\": {\"batch1_device_mbps\": "
       << batch1.device_mbps << ", \"deep_device_mbps\": " << deep.device_mbps
       << ", \"device_speedup\": " << batch_speedup
       << ", \"criteria\": \"deep batches >= 2x max_batch=1 on the device "
          "model\", \"pass\": "
       << (batch_pass ? "true" : "false") << "},\n"
       << "    \"migrator_batch_speedup\": {\"batch1_device_mbps\": "
       << r5_batch1.device_mbps
       << ", \"deep_device_mbps\": " << r5_deep.device_mbps
       << ", \"device_speedup\": " << r5_speedup
       << ", \"criteria\": \"pre-start migrator volumes: deep batches >= 2x "
          "max_batch=1 on the device model\", \"pass\": "
       << (r5_pass ? "true" : "false") << "},\n"
       << "    \"p99_fanout\": {\"multi_p99_us\": " << multi.p99_us
       << ", \"single_p99_us\": " << single.p99_us
       << ", \"ratio\": " << p99_ratio
       << ", \"criteria\": \"64-volume aggregate p99 <= 3x single-volume "
          "baseline\", \"pass\": "
       << (p99_pass ? "true" : "false") << "},\n"
       << "    \"disabled_overhead\": {\"plain_cpu_mbps\": " << plain_best
       << ", \"attached_cpu_mbps\": " << attached_best
       << ", \"ratio\": " << overhead_ratio
       << ", \"criteria\": \"attached-but-disabled observability >= 0.98x "
          "bare manager (CPU-time rated)\", \"pass\": "
       << (overhead_pass ? "true" : "false") << "}\n  },\n"
       << "  \"metrics\": " << metrics_json << "\n}\n";

  std::printf(
      "\nbatching: device model %.3f -> %.3f MB/s (%.2fx, need >= 2.0) -> "
      "%s\n",
      batch1.device_mbps, deep.device_mbps, batch_speedup,
      batch_pass ? "PASS" : "FAIL");
  std::printf(
      "migrator batching: device model %.3f -> %.3f MB/s (%.2fx, need >= "
      "2.0) -> %s\n",
      r5_batch1.device_mbps, r5_deep.device_mbps, r5_speedup,
      r5_pass ? "PASS" : "FAIL");
  std::printf(
      "fan-out p99: %.0f us over %.0f us baseline (%.2fx, need <= 3.0) -> "
      "%s\n",
      multi.p99_us, single.p99_us, p99_ratio, p99_pass ? "PASS" : "FAIL");
  std::printf(
      "disabled overhead: attached %.1f / plain %.1f MB/s CPU (%.4fx, need "
      ">= 0.98) -> %s\n",
      attached_best, plain_best, overhead_ratio,
      overhead_pass ? "PASS" : "FAIL");

  if (FILE* f = std::fopen("BENCH_service.json", "w")) {
    std::fputs(json.str().c_str(), f);
    std::fclose(f);
    std::printf("wrote BENCH_service.json (+ service_trace.json, "
                "service_slow.json)\n");
  }
  return batch_pass && r5_pass && p99_pass && overhead_pass ? 0 : 1;
}
