// Integration tests for Algorithm 2: online RAID-5 -> RAID-6 migration
// over the in-memory disk array, with and without a concurrent
// application workload, followed by failure-recovery checks on the
// migrated array.

#include <gtest/gtest.h>

#include <array>
#include <cstdlib>
#include <functional>
#include <map>
#include <thread>

#include "layout/raid.hpp"
#include "migration/disk_array.hpp"
#include "migration/journal.hpp"
#include "migration/online.hpp"
#include "util/rng.hpp"
#include "xorblk/xor.hpp"

namespace c56::mig {
namespace {

constexpr std::size_t kBlock = 64;

/// Build a valid left-asymmetric RAID-5 with random data.
void fill_raid5(DiskArray& array, int m, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> block(kBlock), parity(kBlock);
  for (std::int64_t row = 0; row < array.blocks_per_disk(); ++row) {
    std::fill(parity.begin(), parity.end(), 0);
    const int pdisk = raid5_parity_disk(Raid5Flavor::kLeftAsymmetric,
                                        static_cast<int>(row % m), m);
    for (int d = 0; d < m; ++d) {
      if (d == pdisk) continue;
      rng.fill(block.data(), kBlock);
      std::ranges::copy(block, array.raw_block(d, row).begin());
      xor_into(parity.data(), block.data(), kBlock);
    }
    std::ranges::copy(parity, array.raw_block(pdisk, row).begin());
  }
}

TEST(DiskArray, CountersTrackAccesses) {
  DiskArray a(2, 4, kBlock);
  std::vector<std::uint8_t> buf(kBlock, 0x5A);
  a.write_block(1, 2, buf);
  a.read_block(1, 2, buf);
  a.read_block(0, 0, buf);
  EXPECT_EQ(a.writes(1), 1u);
  EXPECT_EQ(a.reads(1), 1u);
  EXPECT_EQ(a.reads(0), 1u);
  EXPECT_EQ(a.total_reads(), 2u);
  EXPECT_EQ(a.total_writes(), 1u);
  EXPECT_EQ(a.raw_block(1, 2)[0], 0x5A);
}

TEST(DiskArray, AddDiskZeroed) {
  DiskArray a(2, 4, kBlock);
  const int d = a.add_disk();
  EXPECT_EQ(d, 2);
  EXPECT_EQ(a.disks(), 3);
  EXPECT_TRUE(all_zero(a.raw_block(2, 3)));
}

TEST(DiskArray, AddDiskTakesPreparedStorage) {
  DiskArray a(2, 4, kBlock);
  Buffer image(4 * kBlock, 0x3C);
  const int d = a.add_disk(std::move(image));
  EXPECT_EQ(d, 2);
  EXPECT_EQ(a.raw_block(2, 3)[kBlock - 1], 0x3C);
  EXPECT_THROW(a.add_disk(Buffer(3 * kBlock)), std::invalid_argument);
  EXPECT_EQ(a.disks(), 3);
}

TEST(OnlineMigrator, WorkersKnobChecksItsInput) {
  // C56_CONVERT_WORKERS goes through the checked env parser: garbage
  // keeps the default, out-of-range clamps to [1, 64]. Pre-fix this was
  // a bare atoi, so "bananas" silently became 0 workers.
  DiskArray array(4, 8, kBlock);
  const auto workers_with = [&](const char* v) {
    ::setenv("C56_CONVERT_WORKERS", v, 1);
    OnlineMigrator mig(array, 5);
    ::unsetenv("C56_CONVERT_WORKERS");
    return mig.workers();
  };
  EXPECT_EQ(workers_with("3"), 3);
  EXPECT_EQ(workers_with("bananas"), 1);   // garbage -> default
  EXPECT_EQ(workers_with("0"), 1);         // below range -> clamp
  EXPECT_EQ(workers_with("-12"), 1);       // negative -> clamp
  EXPECT_EQ(workers_with("100000"), 64);   // huge -> clamp
  EXPECT_EQ(workers_with("99999999999999999999"), 64);  // overflow -> clamp
}

TEST(OnlineMigrator, RejectsBadGeometry) {
  DiskArray wrong_disks(3, 8, kBlock);
  EXPECT_THROW(OnlineMigrator(wrong_disks, 5), std::invalid_argument);
  DiskArray wrong_rows(4, 7, kBlock);
  EXPECT_THROW(OnlineMigrator(wrong_rows, 5), std::invalid_argument);
}

TEST(OnlineMigrator, QuiescentMigrationProducesValidRaid6) {
  for (int p : {5, 7}) {
    const int m = p - 1;
    DiskArray array(m, 8LL * (p - 1), kBlock);
    fill_raid5(array, m, 1);
    OnlineMigrator mig(array, p);
    mig.start();
    mig.finish();
    EXPECT_EQ(mig.groups_done(), 8);
    EXPECT_TRUE(mig.verify_raid6()) << "p=" << p;
    // Converter I/O matches the paper's per-stripe counts: (p-1)(p-2)
    // reads and p-1 writes per group.
    const OnlineStats st = mig.stats();
    EXPECT_EQ(st.conv_reads, static_cast<std::uint64_t>(8 * (p - 1) * (p - 2)));
    EXPECT_EQ(st.conv_writes, static_cast<std::uint64_t>(8 * (p - 1)));
    // Only the added disk was written.
    for (int d = 0; d < m; ++d) EXPECT_EQ(array.writes(d), 0u) << d;
    EXPECT_EQ(array.writes(m), st.conv_writes);
  }
}

TEST(OnlineMigrator, OneGroupStepIsTwoPMinusFourReadRunsAndOneWriteRun) {
  // Per full group: every source column is read around its horizontal
  // parity cell (one run above it, one below; the first and last column
  // have only one), and the diagonal column is one write run.
  for (int p : {5, 7, 11}) {
    const int m = p - 1;
    const std::int64_t groups = 3;
    DiskArray array(m, groups * (p - 1), kBlock);
    fill_raid5(array, m, 10 + static_cast<std::uint64_t>(p));
    OnlineMigrator mig(array, p);
    mig.start();
    mig.finish();
    ASSERT_EQ(mig.state(), MigrationState::kDone);
    std::uint64_t source_runs = 0;
    for (int d = 0; d < m; ++d) source_runs += array.read_runs(d);
    EXPECT_EQ(source_runs, static_cast<std::uint64_t>(groups * (2 * p - 4)))
        << "p=" << p;
    EXPECT_EQ(array.write_runs(m), static_cast<std::uint64_t>(groups))
        << "p=" << p;
    EXPECT_EQ(array.read_runs(m), 0u) << "p=" << p;
    const OnlineStats st = mig.stats();
    EXPECT_EQ(st.conv_reads,
              static_cast<std::uint64_t>(groups * (p - 1) * (p - 2)));
    EXPECT_EQ(st.conv_writes, static_cast<std::uint64_t>(groups * (p - 1)));
    EXPECT_TRUE(mig.verify_raid6()) << "p=" << p;
  }
}

TEST(OnlineMigrator, ReadsSeeRaid5Data) {
  const int p = 5, m = 4;
  DiskArray array(m, 4LL * (p - 1), kBlock);
  fill_raid5(array, m, 2);
  OnlineMigrator mig(array, p);
  std::vector<std::uint8_t> got(kBlock);
  // Logical block 0 lives on disk 0, block 0 (left-asymmetric row 0).
  mig.read_block(0, got);
  EXPECT_TRUE(std::ranges::equal(got, array.raw_block(0, 0)));
  // Logical block 3 is the first block of stripe row 1 (disk 0).
  mig.read_block(3, got);
  EXPECT_TRUE(std::ranges::equal(got, array.raw_block(0, 1)));
}

TEST(OnlineMigrator, WritesBeforeStartMaintainRaid5Parity) {
  const int p = 5, m = 4;
  DiskArray array(m, 2LL * (p - 1), kBlock);
  fill_raid5(array, m, 3);
  OnlineMigrator mig(array, p);
  Rng rng(4);
  std::vector<std::uint8_t> buf(kBlock);
  for (std::int64_t l = 0; l < mig.logical_blocks(); l += 2) {
    rng.fill(buf.data(), kBlock);
    mig.write_block(l, buf);
  }
  // Every row's horizontal parity must still close.
  Buffer acc(kBlock);
  for (std::int64_t row = 0; row < array.blocks_per_disk(); ++row) {
    acc.zero();
    for (int d = 0; d < m; ++d) xor_into(acc.span(), array.raw_block(d, row));
    EXPECT_TRUE(all_zero(acc.span())) << "row " << row;
  }
  // And a subsequent quiescent migration still yields a valid RAID-6.
  mig.start();
  mig.finish();
  EXPECT_TRUE(mig.verify_raid6());
}

TEST(OnlineMigrator, ConcurrentWorkloadKeepsConsistency) {
  const int p = 7, m = 6;
  const std::int64_t groups = 128;
  DiskArray array(m, groups * (p - 1), kBlock);
  fill_raid5(array, m, 5);

  OnlineMigrator mig(array, p);
  const std::int64_t logical = mig.logical_blocks();

  // Application model: remember what we wrote.
  std::map<std::int64_t, Buffer> model;
  mig.start();
  {
    // A fixed op count keeps the test meaningful whether or not the
    // converter finishes first: writes must stay consistent in either
    // regime (mid-conversion RMW vs post-conversion RMW).
    Rng rng(6);
    Buffer buf(kBlock);
    for (int i = 0; i < 6000; ++i) {
      const auto l = static_cast<std::int64_t>(
          rng.next_below(static_cast<std::uint64_t>(logical)));
      if (rng.next_below(2) == 0) {
        rng.fill(buf.data(), kBlock);
        mig.write_block(l, buf.span());
        model[l] = buf;
      } else {
        Buffer got(kBlock);
        mig.read_block(l, got.span());
        if (auto it = model.find(l); it != model.end()) {
          EXPECT_TRUE(got == it->second) << "stale read at " << l;
        }
      }
    }
  }
  mig.finish();
  EXPECT_TRUE(mig.verify_raid6());
  // All writes visible after migration.
  Buffer got(kBlock);
  for (const auto& [l, want] : model) {
    mig.read_block(l, got.span());
    EXPECT_TRUE(got == want) << "lost write at " << l;
  }
  const OnlineStats st = mig.stats();
  EXPECT_GT(st.app_writes, 0u);
}

TEST(OnlineMigrator, MigratedArraySurvivesDoubleFailure) {
  const int p = 5, m = 4;
  const std::int64_t groups = 6;
  DiskArray array(m, groups * (p - 1), kBlock);
  fill_raid5(array, m, 7);
  OnlineMigrator mig(array, p);
  mig.start();
  mig.finish();
  ASSERT_TRUE(mig.verify_raid6());

  const Code56& code = mig.code();
  for (auto [f1, f2] : {std::pair{0, 1}, std::pair{2, 4}, std::pair{1, 3}}) {
    for (std::int64_t g = 0; g < groups; ++g) {
      Buffer stripe(static_cast<std::size_t>(code.cell_count()) * kBlock);
      StripeView v = StripeView::over(stripe, p - 1, p, kBlock);
      for (int r = 0; r <= p - 2; ++r) {
        for (int c = 0; c <= p - 1; ++c) {
          std::ranges::copy(array.raw_block(c, g * (p - 1) + r),
                            v.block({r, c}).begin());
        }
      }
      const Buffer before = stripe;
      Rng junk(9);
      for (int c : {f1, f2}) {
        for (int r = 0; r <= p - 2; ++r) {
          junk.fill(v.block({r, c}).data(), kBlock);
        }
      }
      const std::vector<int> failed{f1, f2};
      ASSERT_TRUE(code.decode_columns(v, failed).has_value());
      EXPECT_TRUE(stripe == before) << "group " << g;
    }
  }
}

/// Counted I/O of `fn` on `a`: reads, writes, read runs, write runs,
/// read bytes, write bytes.
std::array<std::uint64_t, 6> io_cost(const DiskArray& a,
                                     const std::function<void()>& fn) {
  const auto now = [&a] {
    return std::array<std::uint64_t, 6>{
        a.total_reads(),     a.total_writes(),     a.total_read_runs(),
        a.total_write_runs(), a.total_read_bytes(), a.total_write_bytes()};
  };
  auto c = now();
  fn();
  const auto after = now();
  for (std::size_t i = 0; i < c.size(); ++i) c[i] = after[i] - c[i];
  return c;
}

/// Memory journal that calls `on_limit` at its `limit`-th record.
class StopAtSink final : public CheckpointSink {
 public:
  StopAtSink(std::size_t limit, std::function<void()> on_limit)
      : limit_(limit), on_limit_(std::move(on_limit)) {}
  void write_slot(int slot, std::span<const std::uint8_t> bytes) override {
    inner_.write_slot(slot, bytes);
    if (++count_ == limit_) on_limit_();
  }
  std::vector<std::uint8_t> read_slot(int slot) override {
    return inner_.read_slot(slot);
  }

 private:
  MemoryCheckpointSink inner_;
  std::size_t limit_;
  std::size_t count_ = 0;
  std::function<void()> on_limit_;
};

/// The application write price on the one I/O plane: an unconverted
/// group (before start(), or past the watermark) is a RAID-5 stripe,
/// 2 reads + 2 writes per block; a converted one pays Table III's 6.
/// write_range(l, 0, block) is I/O-identical to write_block.
TEST(MigratorWritePrice, RaidFivePriceUntilConvertedThenTableThree) {
  for (const int p : {5, 7}) {
    SCOPED_TRACE("p=" + std::to_string(p));
    const int m = p - 1;
    const std::int64_t groups = 3;
    DiskArray a(m, groups * (p - 1), kBlock);
    fill_raid5(a, m, 0x9A1CE + static_cast<std::uint64_t>(p));
    OnlineMigrator mig(a, p);
    mig.set_workers(1);
    const std::int64_t per_group = static_cast<std::int64_t>(p - 1) * (p - 2);
    Rng rng(static_cast<std::uint64_t>(p));
    Buffer buf(kBlock);
    const auto expect_price = [&](std::int64_t lo, std::int64_t hi,
                                  std::uint64_t ios) {
      for (std::int64_t l = lo; l < hi; l += 3) {
        rng.fill(buf.data(), kBlock);
        const auto block = io_cost(
            a, [&] { ASSERT_TRUE(mig.write_block(l, buf.span()).ok()); });
        EXPECT_EQ(block[0], ios) << "reads, logical " << l;
        EXPECT_EQ(block[1], ios) << "writes, logical " << l;
        rng.fill(buf.data(), kBlock);
        const auto range = io_cost(
            a, [&] { ASSERT_TRUE(mig.write_range(l, 0, buf.span()).ok()); });
        EXPECT_EQ(range, block) << "write_range I/O, logical " << l;
      }
    };
    expect_price(0, mig.logical_blocks(), 2);  // before start()
    // Stop after group 0's completion record (start() journals first).
    StopAtSink sink(2, [&mig] { mig.request_stop(); });
    mig.attach_journal(sink);
    mig.start();
    mig.finish();
    ASSERT_EQ(mig.state(), MigrationState::kStopped);
    ASSERT_EQ(mig.groups_done(), 1);
    expect_price(0, per_group, 3);
    expect_price(per_group, mig.logical_blocks(), 2);  // past the watermark
    mig.resume();
    mig.finish();
    ASSERT_EQ(mig.state(), MigrationState::kDone);
    expect_price(0, mig.logical_blocks(), 3);
    EXPECT_TRUE(mig.verify_raid6());
  }
}

TEST(OnlineMigrator, RevertToRaid5DropsDiagonalColumn) {
  const int p = 5, m = 4;
  DiskArray array(m, 1LL * (p - 1), kBlock);
  fill_raid5(array, m, 8);
  OnlineMigrator mig(array, p);
  mig.start();
  mig.finish();
  const int dropped = mig.revert_to_raid5();
  EXPECT_EQ(dropped, m);
  // The first m disks still close every horizontal parity chain.
  Buffer acc(kBlock);
  for (std::int64_t row = 0; row < array.blocks_per_disk(); ++row) {
    acc.zero();
    for (int d = 0; d < m; ++d) xor_into(acc.span(), array.raw_block(d, row));
    EXPECT_TRUE(all_zero(acc.span()));
  }
}

}  // namespace
}  // namespace c56::mig
