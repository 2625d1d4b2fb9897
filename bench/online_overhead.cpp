// Algorithm 2 under load: wall-clock conversion time of the online
// migrator while an application thread issues writes at increasing
// rates, plus the converter's preemption count. Demonstrates the
// paper's claim that conversion and application I/O coexist because
// they touch disjoint disks except on writes.
//
// The conversion time is split by layer: start() (provisioning the new
// disk and launching the workers) and the group steps that follow it
// until the last worker exits. Exits 1 if any run ends without a
// byte-consistent RAID-6.
//
//   online_overhead [p] [groups]     (defaults: 5 4096)

#include <chrono>
#include <cstdio>
#include <sstream>
#include <thread>

#include "layout/raid.hpp"
#include "migration/online.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "xorblk/xor.hpp"

namespace {

constexpr std::size_t kBlock = 4096;

void fill_raid5(c56::mig::DiskArray& array, int m) {
  c56::Rng rng(1);
  std::vector<std::uint8_t> parity(kBlock);
  for (std::int64_t row = 0; row < array.blocks_per_disk(); ++row) {
    std::fill(parity.begin(), parity.end(), 0);
    const int pdisk = c56::raid5_parity_disk(
        c56::Raid5Flavor::kLeftAsymmetric, static_cast<int>(row % m), m);
    for (int d = 0; d < m; ++d) {
      if (d == pdisk) continue;
      auto blk = array.raw_block(d, row);
      rng.fill(blk.data(), kBlock);
      c56::xor_into(parity.data(), blk.data(), kBlock);
    }
    std::ranges::copy(parity, array.raw_block(pdisk, row).begin());
  }
}

struct Result {
  double start_ms;  // start(): new-disk provisioning + worker launch
  double steps_ms;  // start() returning -> every group step done
  std::uint64_t app_ops;
  std::uint64_t preemptions;
  bool verified;
};

Result run(int p, std::int64_t groups, int writer_threads) {
  const int m = p - 1;
  c56::mig::DiskArray array(m, groups * (p - 1), kBlock);
  fill_raid5(array, m);
  c56::mig::OnlineMigrator mig(array, p);
  std::atomic<std::uint64_t> ops{0};
  std::atomic<bool> stop{false};

  const auto t0 = std::chrono::steady_clock::now();
  mig.start();
  const auto t_started = std::chrono::steady_clock::now();
  std::vector<std::thread> writers;
  for (int w = 0; w < writer_threads; ++w) {
    writers.emplace_back([&, w] {
      c56::Rng rng(static_cast<std::uint64_t>(w) + 100);
      c56::Buffer buf(kBlock);
      const std::int64_t logical = mig.logical_blocks();
      while (!stop.load(std::memory_order_relaxed)) {
        const auto l = static_cast<std::int64_t>(
            rng.next_below(static_cast<std::uint64_t>(logical)));
        rng.fill(buf.data(), kBlock);
        mig.write_block(l, buf.span());
        ops.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  mig.finish();
  const auto t1 = std::chrono::steady_clock::now();
  stop.store(true);
  for (auto& t : writers) t.join();

  Result r;
  r.start_ms =
      std::chrono::duration<double, std::milli>(t_started - t0).count();
  r.steps_ms =
      std::chrono::duration<double, std::milli>(t1 - t_started).count();
  r.app_ops = ops.load();
  r.preemptions = mig.stats().interruptions;
  r.verified = mig.verify_raid6();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const int p = argc > 1 ? std::atoi(argv[1]) : 5;
  const std::int64_t groups = argc > 2 ? std::atoll(argv[2]) : 4096;

  std::printf(
      "Online migration under load (p=%d, %lld stripe groups, %zu B "
      "blocks, in-memory array)\n\n",
      p, static_cast<long long>(groups), kBlock);
  c56::TextTable t({"writer threads", "start() (ms)", "group steps (ms)",
                    "app writes", "preemptions", "RAID-6 valid"});
  bool all_valid = true;
  for (int writers : {0, 1, 2, 4}) {
    const Result r = run(p, groups, writers);
    all_valid = all_valid && r.verified;
    t.add_row({std::to_string(writers), c56::TextTable::fmt(r.start_ms, 1),
               c56::TextTable::fmt(r.steps_ms, 1),
               std::to_string(r.app_ops), std::to_string(r.preemptions),
               r.verified ? "yes" : "NO"});
  }
  std::ostringstream os;
  t.print(os);
  std::fputs(os.str().c_str(), stdout);
  std::printf(
      "\nEvery run must end with a byte-consistent RAID-6 regardless of "
      "write pressure\n(Algorithm 2's interrupt/resume protocol).\n");
  if (!all_valid) {
    std::fprintf(stderr, "FAIL: a run ended without a valid RAID-6\n");
    return 1;
  }
  return 0;
}
