#pragma once
// Interfaces between the benchmark's driver (main.cpp), its workloads
// (workloads.cpp) and its direct per-layer measurements (layers.cpp).

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "service/volume_manager.hpp"

namespace pb {

inline constexpr int kP = 7;                     // the paper's Code 5-6 prime
inline constexpr std::size_t kBlock = 4096;      // bytes per block
inline constexpr int kSectorsPerBlock = int(kBlock / kSector);
inline constexpr int kSetupRepeats = 3;          // setup_s is their median

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;  // self-check sizes
};

/// Operation kinds the generators issue (60/25/15 in the random mixes).
enum class Op : std::uint8_t { kRead, kWrite, kWriteRange };

/// Volumes hosted by one VolumeManager plus the benchmark's mirror of
/// their contents. Volume v is owned by tenant v % tenants, and every
/// request to v carries that tenant, so writes to one block always
/// apply in submission order (the service's ordering contract).
struct Fleet {
  std::unique_ptr<c56::svc::VolumeManager> mgr;
  std::vector<c56::svc::Volume*> vols;
  std::vector<Mirror> mirrors;
  int tenants = 1;

  c56::svc::TenantId tenant_of(int v) const { return v % tenants; }
};

/// Build `nvol` Code 5-6 controller volumes of `stripes` stripes each
/// and prefill every sector with its version-0 pattern.
Fleet make_controller_fleet(const c56::svc::ServiceConfig& cfg, int nvol,
                            std::int64_t stripes, int tenants);
/// Build `nvol` migrator-backed RAID-5 volumes of `groups` stripe
/// groups each (conversion workers per volume: `workers`), prefilled.
Fleet make_raid5_fleet(const c56::svc::ServiceConfig& cfg, int nvol,
                       std::int64_t groups, int workers);
/// End-of-run correctness: drain, then read back every block and
/// compare it exactly with the mirror; every controller volume must
/// scrub clean and every converted volume must pass verify_raid6().
void verify_fleet(Fleet& f);

/// Always-on counters of the layers below the service, summed over a
/// fleet; per-layer ratios are taken from deltas of two snapshots.
struct LayerCounters {
  double read_bytes = 0, write_bytes = 0, runs = 0, coalesced_runs = 0;
  double ops = 0;
  c56::mig::ArrayController::PlannerCounters planner;
};
LayerCounters layer_counters(Fleet& f);

/// What the traced pass of a workload hands to the per-layer ledger.
struct TracedPass {
  double payload_bytes = 0;      // client payload completed
  double ops = 0;                // client ops completed
  double whole_writes = 0;       // kWrite ops completed
  double e2e_mb_per_s = 0;       // service-level throughput of the pass
  LayerCounters delta;           // counters moved by the pass
  int disks = 0;                 // disks per volume
};

/// Per-layer measurements that do not need the service: direct calls
/// into xorblk, codes, DiskArray, ArrayController and Volume::execute,
/// plus the layer ledger ratios. `pass` describes the workload's
/// traced pass; `random_ops` selects the 60/25/15 single-block stream
/// (otherwise whole-stripe write + read-back); `migrator_volume`
/// replays Volume::execute on a RAID-5 migrator volume.
void measure_layers(const Options& o, const TracedPass& pass, bool random_ops,
                    bool migrator_volume, double seconds, Metrics& out);

/// Stage histograms recorded by the service while request tracing is
/// armed, turned into the per-layer stage metrics.
void stage_metrics(const c56::obs::Snapshot& snap, Metrics& out);

/// The three workloads. Each fills the end-to-end metrics, or in trace
/// mode the per-layer ones, and returns the request tallies.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};
Tally run_seq_stream(const Options& o, Metrics& out, std::string& config);
Tally run_rand_rw(const Options& o, Metrics& out, std::string& config);
Tally run_online_migrate(const Options& o, Metrics& out, std::string& config);

/// Reproducibility record of one manager: seed, host, build, the
/// resolved ServiceConfig and every C56_* variable in the environment.
std::string config_json(const Options& o, const c56::svc::VolumeManager& mgr,
                        int conversion_workers);

double peak_rss_mb();

}  // namespace pb
