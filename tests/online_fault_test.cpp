// Fault-tolerant online migration: the conversion surviving a source
// disk lost mid-stream, transient-error retry, terminal aborts on
// double failures, crash-consistent resume through the journal, and the
// migrator's lifecycle orderings.

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "layout/raid.hpp"
#include "migration/disk_array.hpp"
#include "migration/journal.hpp"
#include "migration/online.hpp"
#include "obs/events.hpp"
#include "util/prime.hpp"
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

struct Addr {
  int disk;
  std::int64_t block;
};

/// Physical home of a logical data block (mirrors OnlineMigrator).
Addr logical_addr(std::int64_t logical, int m) {
  const std::int64_t stripe_row = logical / (m - 1);
  const int k = static_cast<int>(logical % (m - 1));
  return {raid5_data_disk(Raid5Flavor::kLeftAsymmetric,
                          static_cast<int>(stripe_row % m), k, m),
          stripe_row};
}

/// Uninjected copy of every logical data block, for later readback
/// comparison (raw_block leaves the I/O counters untouched, so fault
/// plans scripted in counted I/Os stay calibrated).
std::vector<std::vector<std::uint8_t>> snapshot_logical(const DiskArray& array,
                                                        int m,
                                                        std::int64_t logical) {
  std::vector<std::vector<std::uint8_t>> snap;
  snap.reserve(static_cast<std::size_t>(logical));
  for (std::int64_t l = 0; l < logical; ++l) {
    const Addr a = logical_addr(l, m);
    const auto src = array.raw_block(a.disk, a.block);
    snap.emplace_back(src.begin(), src.end());
  }
  return snap;
}

RetryPolicy fast_retry() {
  RetryPolicy p;
  p.max_attempts = 4;
  p.backoff_us = 0;
  return p;
}

/// Memory sink that fires a callback after a scripted number of
/// checkpoint writes — the crash trigger for the resume tests.
class StopAfterSink final : public CheckpointSink {
 public:
  explicit StopAfterSink(std::size_t limit) : limit_(limit) {}
  void arm(std::function<void()> cb) { on_limit_ = std::move(cb); }
  void disarm() { on_limit_ = nullptr; }

  void write_slot(int slot, std::span<const std::uint8_t> bytes) override {
    inner_.write_slot(slot, bytes);
    if (++count_ == limit_ && on_limit_) on_limit_();
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

TEST(DegradedConversion, SurvivesSingleSourceDiskFailure) {
  const int p = 5, m = 4;
  const std::int64_t groups = 6;
  DiskArray array(m, groups * (p - 1), kBlock);
  fill_raid5(array, m, 21);

  OnlineMigrator mig(array, p);
  const auto snap = snapshot_logical(array, m, mig.logical_blocks());

  // Disk 1 dies on its 11th counted I/O: mid-conversion (the converter
  // reads each source disk p-2 = 3 times per group).
  FaultPlan plan;
  plan.disk_failures.push_back({.disk = 1, .after_ios = 10});
  array.set_fault_plan(plan);
  mig.set_retry_policy(fast_retry());

  mig.start();
  mig.finish();
  EXPECT_EQ(mig.state(), MigrationState::kDone);
  EXPECT_TRUE(array.disk_failed(1));
  const OnlineStats st = mig.stats();
  EXPECT_GT(st.reconstructed_reads, 0u)
      << "remaining chains must read disk 1 through the row parity";

  // Rebuild the lost disk and check the full RAID-6 plus every logical
  // block against the pre-migration contents.
  EXPECT_GT(mig.rebuild_failed_disks(), 0);
  EXPECT_EQ(array.failed_disks(), 0);
  EXPECT_TRUE(mig.verify_raid6());
  std::vector<std::uint8_t> got(kBlock);
  for (std::int64_t l = 0; l < mig.logical_blocks(); ++l) {
    ASSERT_TRUE(mig.read_block(l, got).ok()) << "logical " << l;
    EXPECT_EQ(got, snap[static_cast<std::size_t>(l)]) << "logical " << l;
  }
}

TEST(DegradedConversion, SurvivesFailureUnderConcurrentWrites) {
  const int p = 5, m = 4;
  const std::int64_t groups = 48;
  DiskArray array(m, groups * (p - 1), kBlock);
  fill_raid5(array, m, 22);

  OnlineMigrator mig(array, p);
  mig.set_retry_policy(fast_retry());
  const std::int64_t logical = mig.logical_blocks();

  FaultPlan plan;
  plan.disk_failures.push_back({.disk = 2, .after_ios = 40});
  array.set_fault_plan(plan);

  std::map<std::int64_t, Buffer> model;
  mig.start();
  {
    Rng rng(23);
    Buffer buf(kBlock);
    for (int i = 0; i < 1200; ++i) {
      const auto l = static_cast<std::int64_t>(
          rng.next_below(static_cast<std::uint64_t>(logical)));
      if (rng.next_below(2) == 0) {
        rng.fill(buf.data(), kBlock);
        ASSERT_TRUE(mig.write_block(l, buf.span()).ok()) << "logical " << l;
        model[l] = buf;
      } else {
        Buffer got(kBlock);
        ASSERT_TRUE(mig.read_block(l, got.span()).ok()) << "logical " << l;
        if (auto it = model.find(l); it != model.end()) {
          EXPECT_TRUE(got == it->second) << "stale read at " << l;
        }
      }
    }
  }
  mig.finish();
  EXPECT_EQ(mig.state(), MigrationState::kDone);
  EXPECT_TRUE(array.disk_failed(2));

  EXPECT_GT(mig.rebuild_failed_disks(), 0);
  EXPECT_TRUE(mig.verify_raid6());
  Buffer got(kBlock);
  for (const auto& [l, want] : model) {
    ASSERT_TRUE(mig.read_block(l, got.span()).ok());
    EXPECT_TRUE(got == want) << "lost write at " << l;
  }
}

TEST(DegradedConversion, TransientSectorErrorsAreRetried) {
  const int p = 5, m = 4;
  DiskArray array(m, 8LL * (p - 1), kBlock);
  fill_raid5(array, m, 24);
  OnlineMigrator mig(array, p);
  mig.set_retry_policy(fast_retry());
  FaultPlan plan;
  plan.sector_error_rate = 0.05;
  plan.seed = 25;
  array.set_fault_plan(plan);
  mig.start();
  mig.finish();
  EXPECT_EQ(mig.state(), MigrationState::kDone);
  EXPECT_GT(mig.stats().retries, 0u);
  EXPECT_TRUE(mig.verify_raid6());
}

TEST(DegradedConversion, TornWritesAreRepaired) {
  const int p = 5, m = 4;
  DiskArray array(m, 8LL * (p - 1), kBlock);
  fill_raid5(array, m, 26);
  OnlineMigrator mig(array, p);
  // At a 20% tear rate, 4 attempts leave a ~0.2% chance per write of a
  // terminal failure; 8 attempts make one effectively impossible.
  RetryPolicy retry = fast_retry();
  retry.max_attempts = 8;
  mig.set_retry_policy(retry);
  FaultPlan plan;
  plan.torn_write_rate = 0.2;
  plan.seed = 27;
  array.set_fault_plan(plan);
  mig.start();
  mig.finish();
  EXPECT_EQ(mig.state(), MigrationState::kDone);
  EXPECT_GT(mig.stats().retries, 0u);
  EXPECT_TRUE(mig.verify_raid6());
}

TEST(DegradedConversion, HardBadBlockReconstructedThroughParity) {
  const int p = 5, m = 4;
  DiskArray array(m, 4LL * (p - 1), kBlock);
  fill_raid5(array, m, 28);
  OnlineMigrator mig(array, p);
  mig.set_retry_policy(fast_retry());
  // A persistent latent error under a conversion chain source: the
  // converter never rewrites source disks, so every read of this block
  // must go through reconstruction.
  FaultPlan plan;
  plan.bad_blocks.push_back({.disk = 0, .block = 2});
  array.set_fault_plan(plan);
  mig.start();
  mig.finish();
  EXPECT_EQ(mig.state(), MigrationState::kDone);
  EXPECT_GT(mig.stats().reconstructed_reads, 0u);
  EXPECT_TRUE(mig.verify_raid6());
}

/// Every block of every disk of `a` equals `b`'s.
void expect_byte_identical(const DiskArray& a, const DiskArray& b,
                           const std::string& what) {
  ASSERT_EQ(a.disks(), b.disks()) << what;
  for (int d = 0; d < a.disks(); ++d) {
    for (std::int64_t blk = 0; blk < a.blocks_per_disk(); ++blk) {
      ASSERT_TRUE(std::ranges::equal(a.raw_block(d, blk), b.raw_block(d, blk)))
          << what << ": disk " << d << " block " << blk;
    }
  }
}

/// The same RAID-5 migrated without faults or interruption.
std::unique_ptr<DiskArray> reference_raid6(int p, std::int64_t groups,
                                           std::uint64_t seed) {
  auto ref = std::make_unique<DiskArray>(p - 1, groups * (p - 1), kBlock);
  fill_raid5(*ref, p - 1, seed);
  OnlineMigrator mig(*ref, p);
  mig.start();
  mig.finish();
  EXPECT_EQ(mig.state(), MigrationState::kDone);
  return ref;
}

TEST(DegradedConversion, BadBlockMidSourceRunKeepsEarlierBlocks) {
  // p = 7, one group: source column 0 holds data rows [0, 5) above its
  // parity cell at row 5, so it is staged as one 5-block run. A hard
  // bad block at row 2 cuts that run: rows 0-1 are kept, row 2 is
  // retried and then rebuilt from its row mates, rows 3-4 are read one
  // by one.
  const int p = 7, m = 6;
  const auto ref = reference_raid6(p, 1, 41);
  DiskArray array(m, p - 1, kBlock);
  fill_raid5(array, m, 41);
  OnlineMigrator mig(array, p);
  const RetryPolicy retry = fast_retry();
  mig.set_retry_policy(retry);
  FaultPlan plan;
  plan.bad_blocks.push_back({.disk = 0, .block = 2});
  array.set_fault_plan(plan);
  mig.start();
  mig.finish();
  ASSERT_EQ(mig.state(), MigrationState::kDone);
  const OnlineStats st = mig.stats();
  EXPECT_EQ(st.reconstructed_reads, 1u);
  // One reissue after the run's failed attempt at row 2, then
  // max_attempts - 1 more inside the block-by-block retry.
  const auto attempts = static_cast<std::uint64_t>(retry.max_attempts);
  EXPECT_EQ(st.retries, attempts);
  EXPECT_EQ(array.reads(0), 5 + attempts + 2) << "rows 0-1 were re-read";
  EXPECT_EQ(array.read_runs(0), 1 + attempts + 2);
  EXPECT_TRUE(mig.verify_raid6());
  expect_byte_identical(array, *ref, "bad block mid-run");
}

TEST(DegradedConversion, FailedDiagonalRegenerationIsADegradedWrite) {
  // After conversion, a write whose stored diagonal parity is unreadable
  // regenerates that diagonal block. When the regeneration's rewrite
  // fails too (the new disk dies on it), the write must report the
  // stale diagonal as degraded instead of passing for a full update.
  const int p = 5, m = 4;
  DiskArray array(m, 2LL * (p - 1), kBlock);
  fill_raid5(array, m, 43);
  OnlineMigrator mig(array, p);
  const RetryPolicy retry = fast_retry();
  mig.set_retry_policy(retry);
  obs::EventLog log;
  mig.attach_events(log, "diag-regen");
  mig.start();
  mig.finish();
  ASSERT_EQ(mig.state(), MigrationState::kDone);

  const std::int64_t logical = 5;
  const Addr a = logical_addr(logical, m);
  const int row = static_cast<int>(a.block % (p - 1));
  const std::int64_t diag_block =
      a.block - row + pmod(row + a.disk + 1, p);  // same group, diagonal row
  const int nd = mig.new_disk();
  FaultPlan plan;
  plan.bad_blocks.push_back({.disk = nd, .block = diag_block});
  // Each attempt at the bad diagonal block is one counted I/O; the
  // regeneration's rewrite is the next one and trips fail_after.
  plan.disk_failures.push_back(
      {.disk = nd,
       .after_ios = array.reads(nd) + array.writes(nd) +
                    static_cast<std::uint64_t>(retry.max_attempts)});
  array.set_fault_plan(plan);
  const std::vector<std::uint8_t> data(kBlock, 0x5A);
  EXPECT_TRUE(mig.write_block(logical, data).ok());
  EXPECT_TRUE(array.disk_failed(nd));
  EXPECT_EQ(mig.stats().degraded_writes, 1u);
  int degraded_events = 0;
  for (const obs::Event& ev : log.snapshot()) {
    degraded_events +=
        ev.message.find("degraded write") != std::string::npos &&
        ev.disk == nd && ev.block == diag_block;
  }
  EXPECT_EQ(degraded_events, 1);
  // The data and horizontal parity did land: the write reads back.
  std::vector<std::uint8_t> back(kBlock);
  ASSERT_TRUE(mig.read_block(logical, back).ok());
  EXPECT_EQ(back, data);
}

TEST(DegradedConversion, DoubleFailureAbortsCleanly) {
  const int p = 5, m = 4;
  DiskArray array(m, 4LL * (p - 1), kBlock);
  fill_raid5(array, m, 29);
  OnlineMigrator mig(array, p);
  mig.set_retry_policy(fast_retry());
  array.fail_disk(0);
  array.fail_disk(1);
  mig.start();
  mig.finish();  // must return promptly, not hang
  EXPECT_EQ(mig.state(), MigrationState::kAborted);
  const std::string reason = mig.abort_reason();
  EXPECT_FALSE(reason.empty());
  EXPECT_NE(reason.find("diagonal"), std::string::npos) << reason;
  // The array is beyond the migration's fault tolerance: rebuild and
  // resume both refuse.
  EXPECT_THROW(mig.rebuild_failed_disks(), std::runtime_error);
  EXPECT_THROW(mig.resume(), std::logic_error);
  // Application I/O on a lost, unreconstructible block reports failure.
  std::vector<std::uint8_t> buf(kBlock, 0);
  bool any_failed = false;
  for (std::int64_t l = 0; l < mig.logical_blocks(); ++l) {
    any_failed |= !mig.read_block(l, buf).ok();
  }
  EXPECT_TRUE(any_failed);
}

TEST(CrashResume, ByteIdenticalToUninterruptedRun) {
  const int p = 5, m = 4;
  const std::int64_t groups = 8;
  const std::uint64_t seed = 31;

  // Reference: the same data migrated without interruption.
  DiskArray ref(m, groups * (p - 1), kBlock);
  fill_raid5(ref, m, seed);
  {
    OnlineMigrator mig(ref, p);
    mig.start();
    mig.finish();
    ASSERT_EQ(mig.state(), MigrationState::kDone);
  }

  // start() journals once up front, then once per diagonal block: small
  // limits stop inside the first group, larger ones several groups in.
  for (const std::size_t stop_after : {2UL, 5UL, 13UL, 27UL}) {
    DiskArray array(m, groups * (p - 1), kBlock);
    fill_raid5(array, m, seed);
    StopAfterSink sink(stop_after);
    {
      OnlineMigrator mig(array, p);
      mig.attach_journal(sink);
      sink.arm([&mig] { mig.request_stop(); });
      mig.start();
      mig.finish();
      ASSERT_NE(mig.state(), MigrationState::kAborted);
      // Migrator destroyed here: the "crash". Only the journal and the
      // array survive.
    }
    sink.disarm();
    OnlineMigrator mig2(array, p);  // re-attach: array now has p disks
    mig2.attach_journal(sink);
    mig2.resume();
    mig2.finish();
    EXPECT_EQ(mig2.state(), MigrationState::kDone) << "stop " << stop_after;
    EXPECT_TRUE(mig2.verify_raid6()) << "stop " << stop_after;
    for (int d = 0; d <= m; ++d) {
      for (std::int64_t b = 0; b < array.blocks_per_disk(); ++b) {
        ASSERT_TRUE(std::ranges::equal(array.raw_block(d, b),
                                       ref.raw_block(d, b)))
            << "stop " << stop_after << " disk " << d << " block " << b;
      }
    }
  }
}

TEST(CrashResume, FaultAtEveryOrdinalOfAGroupStepResumesByteIdentical) {
  // Cut the step of group 1 at each of its counted I/Os: a source-disk
  // failure at one block of one of its read runs (the rest of the run
  // is reconstructed through the row parity), or a new-disk failure
  // inside its diagonal write run (the step aborts with only the first
  // blocks of the column written: a torn run). The conversion stops
  // after the step, the migrator is destroyed, the failed new disk
  // comes back with whatever it held, and a fresh migrator resumes from
  // the journal.
  const int p = 5, m = 4;
  const std::int64_t groups = 4, step = 1;
  const std::uint64_t seed = 42;
  const auto ref = reference_raid6(p, groups, seed);
  for (int disk = 0; disk <= m; ++disk) {
    // Counted I/Os per group step on this disk: p-2 data cells of a
    // source column, or p-1 diagonal blocks. One worker converts the
    // groups in order, so group 1's I/Os carry ordinals [per, 2*per).
    const int per = disk < m ? p - 2 : p - 1;
    for (int k = 0; k < per; ++k) {
      const std::string what =
          "disk " + std::to_string(disk) + " ordinal " + std::to_string(k);
      DiskArray array(m, groups * (p - 1), kBlock);
      fill_raid5(array, m, seed);
      // The new disk exists up front so the plan can name it; start()
      // converts onto it from group 0.
      array.add_disk();
      FaultPlan plan;
      plan.disk_failures.push_back(
          {.disk = disk, .after_ios = static_cast<std::uint64_t>(per + k)});
      array.set_fault_plan(plan);
      StopAfterSink sink(4);  // start, then two records per group
      {
        OnlineMigrator mig(array, p);
        mig.set_workers(1);  // the ordinals assume groups in order
        mig.attach_journal(sink);
        mig.set_retry_policy(fast_retry());
        sink.arm([&mig] { mig.request_stop(); });
        mig.start();
        mig.finish();
        ASSERT_EQ(mig.groups_done(), disk < m ? step + 1 : step) << what;
        if (disk < m) {
          ASSERT_EQ(mig.state(), MigrationState::kStopped) << what;
          EXPECT_GT(mig.stats().reconstructed_reads, 0u) << what;
        } else {
          ASSERT_EQ(mig.state(), MigrationState::kAborted) << what;
          const std::int64_t b0 = step * (p - 1);
          for (int r = 0; r < p - 1; ++r) {
            EXPECT_EQ(std::ranges::equal(array.raw_block(m, b0 + r),
                                         ref->raw_block(m, b0 + r)),
                      r < k)
                << what << ": the run keeps exactly its first " << k
                << " blocks, row " << r;
          }
        }
      }
      sink.disarm();
      if (disk == m) array.repair_disk(m);  // back after the power cycle
      OnlineMigrator mig2(array, p);
      mig2.attach_journal(sink);
      mig2.set_retry_policy(fast_retry());
      mig2.resume();
      mig2.finish();
      ASSERT_EQ(mig2.state(), MigrationState::kDone) << what;
      EXPECT_TRUE(mig2.verify_raid6()) << what;
      expect_byte_identical(array, *ref, what);
    }
  }
}

TEST(CrashResume, LegacyRowJournalReverifiesAndCompletes) {
  // Builds that checkpointed per diagonal row left journals such as
  // (group 2, rows 3). Resume re-verifies those rows, rewinds past a
  // stale one, and continues the group's step from the first row it
  // cannot trust.
  const int p = 5, m = 4;
  const std::int64_t groups = 4, g = 2;
  const int rows = 3;
  const std::uint64_t seed = 43;
  const auto ref = reference_raid6(p, groups, seed);
  for (const int stale : {-1, 1}) {
    const std::string what = "stale row " + std::to_string(stale);
    DiskArray array(m, groups * (p - 1), kBlock);
    fill_raid5(array, m, seed);
    array.add_disk();
    // The crash image: groups [0, g) and rows [0, rows) of group g.
    for (std::int64_t b = 0; b < g * (p - 1) + rows; ++b) {
      std::ranges::copy(ref->raw_block(m, b), array.raw_block(m, b).begin());
    }
    if (stale >= 0) array.corrupt_block(m, g * (p - 1) + stale, 0, 0x5A);
    MemoryCheckpointSink sink;
    MigrationJournal(sink).record(g, rows);
    obs::EventLog log;
    log.set_stderr_echo(false);
    OnlineMigrator mig(array, p);
    mig.attach_journal(sink);
    mig.attach_events(log, "legacy");
    mig.resume();
    mig.finish();
    ASSERT_EQ(mig.state(), MigrationState::kDone) << what;
    EXPECT_TRUE(mig.verify_raid6()) << what;
    expect_byte_identical(array, *ref, what);
    bool rewound = false;
    for (const obs::Event& ev : log.snapshot()) {
      rewound |= ev.message.find("rewound watermark from group 2 row 3 to "
                                 "group 2 row 1") != std::string::npos;
    }
    EXPECT_EQ(rewound, stale == 1) << what;
  }
}

TEST(CrashResume, WatermarkGroupIsReverified) {
  const int p = 5, m = 4;
  const std::int64_t groups = 8;
  DiskArray array(m, groups * (p - 1), kBlock);
  fill_raid5(array, m, 32);
  StopAfterSink sink(14);
  std::int64_t watermark = 0;
  {
    OnlineMigrator mig(array, p);
    // The interrupted run has one worker, so the 14th journal record
    // (group 6's completion) stops it with group 7 left. A stop is
    // honoured between group steps, and several workers would claim
    // all 8 groups at once and finish them. The resume below runs with
    // the default worker count.
    mig.set_workers(1);
    mig.attach_journal(sink);
    sink.arm([&mig] { mig.request_stop(); });
    mig.start();
    mig.finish();
    ASSERT_EQ(mig.state(), MigrationState::kStopped);
    watermark = mig.groups_done();
    ASSERT_GT(watermark, 0);
  }
  sink.disarm();
  // Corrupt a diagonal block the journal claims is durable — the torn
  // new-disk write a crash can leave behind. resume() must detect the
  // stale parity and regenerate it rather than trust the watermark.
  auto diag = array.raw_block(m, (watermark - 1) * (p - 1) + 1);
  for (auto& b : diag) b ^= 0xFF;
  OnlineMigrator mig2(array, p);
  mig2.attach_journal(sink);
  mig2.resume();
  mig2.finish();
  EXPECT_EQ(mig2.state(), MigrationState::kDone);
  EXPECT_TRUE(mig2.verify_raid6());
}

TEST(CrashResume, ResumeWithoutJournalUsesInMemoryPosition) {
  const int p = 5, m = 4;
  DiskArray array(m, 16LL * (p - 1), kBlock);
  fill_raid5(array, m, 33);
  OnlineMigrator mig(array, p);
  mig.start();
  mig.request_stop();
  mig.finish();
  const MigrationState s = mig.state();
  ASSERT_TRUE(s == MigrationState::kStopped || s == MigrationState::kDone);
  mig.resume();
  mig.finish();
  EXPECT_EQ(mig.state(), MigrationState::kDone);
  EXPECT_TRUE(mig.verify_raid6());
  // Resuming a finished migration is a no-op.
  mig.resume();
  EXPECT_EQ(mig.state(), MigrationState::kDone);
}

TEST(CrashResume, FreshJournalResumesFromTheStart) {
  const int p = 5, m = 4;
  DiskArray array(m, 2LL * (p - 1), kBlock);
  fill_raid5(array, m, 34);
  MemoryCheckpointSink sink;  // never written: recover() finds nothing
  OnlineMigrator mig(array, p);
  mig.attach_journal(sink);
  mig.resume();  // resume from kIdle == start from group 0
  mig.finish();
  EXPECT_EQ(mig.state(), MigrationState::kDone);
  EXPECT_TRUE(mig.verify_raid6());
}

TEST(Lifecycle, ConstructDestroy) {
  DiskArray array(4, 8, kBlock);
  { OnlineMigrator mig(array, 5); }
  EXPECT_EQ(array.disks(), 4);  // never started: no disk added
}

TEST(Lifecycle, FinishWithoutStartIsNoOp) {
  DiskArray array(4, 8, kBlock);
  OnlineMigrator mig(array, 5);
  mig.finish();
  mig.finish();
  EXPECT_EQ(mig.state(), MigrationState::kIdle);
}

TEST(Lifecycle, StartDestroyLeavesCheckpoint) {
  const int p = 5, m = 4;
  DiskArray array(m, 64LL * (p - 1), kBlock);
  fill_raid5(array, m, 35);
  MemoryCheckpointSink sink;
  {
    OnlineMigrator mig(array, p);
    mig.attach_journal(sink);
    mig.start();
    // Destroyed while (possibly still) converting: the destructor stops
    // and joins; whatever was generated stays journalled.
  }
  // The journal decodes and the recorded watermark is within range.
  MigrationJournal j(sink);
  const auto rec = j.recover();
  ASSERT_TRUE(rec.has_value());
  EXPECT_GE(rec->groups_done, 0);
  EXPECT_LE(rec->groups_done, 64);
  // And a new migrator completes the job.
  OnlineMigrator mig2(array, p);
  mig2.attach_journal(sink);
  mig2.resume();
  mig2.finish();
  EXPECT_EQ(mig2.state(), MigrationState::kDone);
  EXPECT_TRUE(mig2.verify_raid6());
}

TEST(Lifecycle, StartFinishDestroyAndDoubleStart) {
  const int p = 5, m = 4;
  DiskArray array(m, 2LL * (p - 1), kBlock);
  fill_raid5(array, m, 36);
  OnlineMigrator mig(array, p);
  mig.start();
  mig.finish();
  EXPECT_EQ(mig.state(), MigrationState::kDone);
  EXPECT_THROW(mig.start(), std::logic_error);
  mig.finish();  // idempotent after completion
}

TEST(Lifecycle, StopBeforeStartDoesNotWedgeTheConverter) {
  const int p = 5, m = 4;
  DiskArray array(m, 2LL * (p - 1), kBlock);
  fill_raid5(array, m, 37);
  OnlineMigrator mig(array, p);
  mig.request_stop();  // stale stop request must not stop the next run
  mig.start();
  mig.finish();
  EXPECT_EQ(mig.state(), MigrationState::kDone);
  EXPECT_TRUE(mig.verify_raid6());
}

}  // namespace
}  // namespace c56::mig
