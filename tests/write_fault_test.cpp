// Read-fault sweep over the controller's write entry points. For every
// stored block of the target stripe — a superset of the blocks any
// counted read of the write can touch — a fresh copy of a consistent
// array gets that block marked bad, so every read of it fails with a
// sector error, and the write is replayed. Exactly two outcomes are
// allowed:
//   * the write throws and the stripe's stored bytes are unchanged;
//   * the write succeeds, every stripe scrubs clean and every logical
//     block reads back the expected bytes.
// A write that succeeds over a parity it could not read, or that
// writes one parity before failing to read another, leaves the stripe
// silently inconsistent and fails the sweep.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "codes/registry.hpp"
#include "migration/controller.hpp"
#include "migration/disk_array.hpp"
#include "migration/fault.hpp"
#include "obs/events.hpp"
#include "util/rng.hpp"
#include "xorblk/buffer.hpp"

namespace c56::mig {
namespace {

constexpr std::size_t kBlock = 64;
constexpr std::int64_t kStripes = 2;

using Mirror = std::vector<std::uint8_t>;

struct EntryPoint {
  std::string name;
  // Issues the write on `ctrl` and patches `mirror` to match.
  std::function<void(ArrayController&, Mirror&)> write;
};

std::vector<EntryPoint> entry_points(std::int64_t per_stripe) {
  std::vector<EntryPoint> out;
  out.push_back({"per-block", [](ArrayController& c, Mirror& m) {
                   Buffer b(kBlock);
                   Rng(11).fill(b.data(), kBlock);
                   c.write(3, b.span());
                   std::ranges::copy(b.span(), m.begin() + 3 * kBlock);
                 }});
  out.push_back({"ranged partial-stripe", [per_stripe](ArrayController& c,
                                                       Mirror& m) {
                   const std::int64_t n = per_stripe / 2;
                   Buffer b(static_cast<std::size_t>(n) * kBlock);
                   Rng(12).fill(b.data(), b.size());
                   c.write(1, n, b.span());
                   std::ranges::copy(b.span(), m.begin() + 1 * kBlock);
                 }});
  out.push_back({"single sub-block", [](ArrayController& c, Mirror& m) {
                   Buffer b(20);
                   Rng(13).fill(b.data(), b.size());
                   c.write_range(4, 7, b.span());
                   std::ranges::copy(b.span(), m.begin() + 4 * kBlock + 7);
                 }});
  out.push_back({"sub-block batch", [per_stripe](ArrayController& c,
                                                 Mirror& m) {
                   // Three cells in different rows and columns: the
                   // batch feeds several horizontal and diagonal
                   // parities.
                   Buffer b(3 * kBlock);
                   Rng(14).fill(b.data(), b.size());
                   const std::int64_t ls[] = {0, per_stripe / 2 + 1,
                                              per_stripe - 1};
                   std::vector<ArrayController::SubWrite> batch;
                   for (std::size_t i = 0; i < 3; ++i) {
                     const std::size_t off = 5 * i;
                     batch.push_back({ls[i], static_cast<std::int64_t>(off),
                                      b.span().subspan(i * kBlock + off, 30)});
                   }
                   c.write_range(batch);
                   for (const auto& w : batch) {
                     std::ranges::copy(
                         w.data, m.begin() + w.logical * kBlock +
                                     static_cast<std::ptrdiff_t>(w.offset));
                   }
                 }});
  return out;
}

/// A fault-free copy of `src` with fresh counters.
std::unique_ptr<DiskArray> clone(const DiskArray& src) {
  auto a = std::make_unique<DiskArray>(src.disks(), src.blocks_per_disk(),
                                       src.block_bytes());
  for (int d = 0; d < src.disks(); ++d) {
    std::ranges::copy(src.raw_blocks(d, 0, src.blocks_per_disk()),
                      a->raw_blocks(d, 0, a->blocks_per_disk()).begin());
  }
  return a;
}

class WriteReadFaultSweep : public ::testing::TestWithParam<CodeId> {};

TEST_P(WriteReadFaultSweep, ThrowsCleanlyOrSucceedsConsistently) {
  const int p = 5;
  auto base_code = make_code(GetParam(), p);
  const int rows = base_code->rows();
  const int disks = base_code->cols();  // no virtual columns at p = 5
  DiskArray base(disks, kStripes * rows, kBlock);
  ArrayController base_ctrl(base, std::move(base_code));
  ASSERT_EQ(base.disks(), disks);
  const std::int64_t total = base_ctrl.logical_blocks();
  const std::int64_t per_stripe = total / kStripes;
  Mirror mirror(static_cast<std::size_t>(total) * kBlock);
  Rng(0xFA17).fill(mirror.data(), mirror.size());
  base_ctrl.write(0, total, mirror);
  ASSERT_TRUE(base_ctrl.scrub().empty());

  const auto stripe0 = [&](const DiskArray& a) {
    std::vector<std::uint8_t> s;
    for (int d = 0; d < disks; ++d) {
      const auto col = a.raw_blocks(d, 0, rows);
      s.insert(s.end(), col.begin(), col.end());
    }
    return s;
  };

  for (const EntryPoint& ep : entry_points(per_stripe)) {
    // Disks the fault-free write reads from; the sweep must trip a
    // sector error on each of them at least once.
    std::vector<char> read_disk(static_cast<std::size_t>(disks), 0);
    {
      const auto a = clone(base);
      ArrayController ctrl(*a, make_code(GetParam(), p));
      Mirror m = mirror;
      ep.write(ctrl, m);
      for (int d = 0; d < disks; ++d) {
        read_disk[static_cast<std::size_t>(d)] = a->reads(d) > 0;
      }
    }
    std::vector<char> tripped(static_cast<std::size_t>(disks), 0);
    for (int d = 0; d < disks; ++d) {
      for (int r = 0; r < rows; ++r) {
        SCOPED_TRACE(ep.name + ": bad block on disk " + std::to_string(d) +
                     " row " + std::to_string(r));
        const auto owned = clone(base);
        DiskArray& a = *owned;
        ArrayController ctrl(a, make_code(GetParam(), p));
        FaultPlan plan;
        plan.bad_blocks.push_back({d, r});
        a.set_fault_plan(plan);
        const std::vector<std::uint8_t> before = stripe0(a);
        Mirror m = mirror;
        bool threw = false;
        try {
          ep.write(ctrl, m);
        } catch (const std::runtime_error&) {
          threw = true;
        }
        if (a.sector_errors() > 0) tripped[static_cast<std::size_t>(d)] = 1;
        if (threw) {
          EXPECT_TRUE(stripe0(a) == before)
              << "failed write changed the stripe";
          continue;
        }
        a.set_fault_plan(FaultPlan{});  // lift the mark to verify
        EXPECT_TRUE(ctrl.scrub().empty()) << "write left parity inconsistent";
        Buffer got(static_cast<std::size_t>(total) * kBlock);
        ctrl.read(0, total, got.span());
        EXPECT_TRUE(std::ranges::equal(got.span(), m))
            << "write reported success but data does not read back";
      }
    }
    for (int d = 0; d < disks; ++d) {
      if (read_disk[static_cast<std::size_t>(d)]) {
        EXPECT_TRUE(tripped[static_cast<std::size_t>(d)])
            << ep.name << ": no injected fault hit disk " << d;
      }
    }
  }
}

// A disk that dies inside a write run: the blocks before the death
// land, the rest does not. The write still returns (parity keeps the
// lost block recoverable), counts one degraded write and records one
// warn event naming the disk and the block.
TEST(DegradedWrite, DiskDeathInsideAWriteRunIsCountedOnce) {
  auto code = make_code(CodeId::kCode56, 5);
  const int rows = code->rows();
  DiskArray a(code->cols(), rows, kBlock);
  ArrayController ctrl(a, std::move(code));
  obs::EventLog log;
  log.set_stderr_echo(false);
  ctrl.attach_events(log);
  const std::int64_t total = ctrl.logical_blocks();
  Buffer data(static_cast<std::size_t>(total) * kBlock);
  Rng(0xDEAD).fill(data.data(), data.size());
  // A full-stripe write issues no pre-reads and one run of `rows`
  // blocks per column; disk 1 survives rows - 1 I/Os, so it dies on
  // its run's last block.
  const int d = 1;
  FaultPlan plan;
  plan.disk_failures.push_back(
      {.disk = d, .after_ios = static_cast<std::uint64_t>(rows - 1)});
  a.set_fault_plan(plan);
  ctrl.write(0, total, data.span());
  EXPECT_TRUE(a.disk_failed(d));
  EXPECT_EQ(ctrl.io_tally().degraded_writes, 1u);
  int events = 0;
  for (const obs::Event& ev : log.snapshot()) {
    events += ev.message.find("degraded write") != std::string::npos;
    if (ev.message.find("degraded write") != std::string::npos) {
      EXPECT_EQ(ev.disk, d);
      EXPECT_EQ(ev.block, rows - 1);
    }
  }
  EXPECT_EQ(events, 1);
  // The lost block reads back through parity.
  Buffer got(data.size());
  ctrl.read(0, total, got.span());
  EXPECT_TRUE(got == data);
}

INSTANTIATE_TEST_SUITE_P(Zoo, WriteReadFaultSweep,
                         ::testing::Values(CodeId::kCode56, CodeId::kRdp),
                         [](const ::testing::TestParamInfo<CodeId>& info) {
                           std::string n = to_string(info.param);
                           for (char& c : n) {
                             if (c == ' ' || c == '-') c = '_';
                           }
                           return n;
                         });

}  // namespace
}  // namespace c56::mig
