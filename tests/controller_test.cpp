// Block-level controller tests across the whole code zoo: healthy
// read/write round trips with parity maintenance, degraded reads and
// writes under one and two disk failures, rebuild, and scrubbing. Also
// pins the quantified "single write performance" of Table III.

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>

#include "codes/code56.hpp"
#include "codes/registry.hpp"
#include "migration/controller.hpp"
#include "service/volume.hpp"
#include "util/rng.hpp"

namespace c56::mig {
namespace {

constexpr std::size_t kBlock = 32;
constexpr std::int64_t kStripes = 3;

struct Param {
  CodeId id;
  int p;
};

std::string param_name(const ::testing::TestParamInfo<Param>& info) {
  std::string n = to_string(info.param.id);
  for (char& c : n) {
    if (c == ' ' || c == '-') c = '_';
  }
  return n + "_p" + std::to_string(info.param.p);
}

class ControllerTest : public ::testing::TestWithParam<Param> {
 protected:
  void SetUp() override {
    auto code = make_code(GetParam().id, GetParam().p);
    array_ = std::make_unique<DiskArray>(
        code->cols(), kStripes * code->rows(), kBlock);
    ctrl_ = std::make_unique<ArrayController>(*array_, std::move(code));
    // Write a known pattern through the controller; parities follow.
    Rng rng(17);
    Buffer buf(kBlock);
    for (std::int64_t l = 0; l < ctrl_->logical_blocks(); ++l) {
      rng.fill(buf.data(), kBlock);
      model_[l] = buf;
      ctrl_->write(l, buf.span());
    }
  }

  void expect_all_readable() {
    Buffer got(kBlock);
    for (const auto& [l, want] : model_) {
      ctrl_->read(l, got.span());
      EXPECT_TRUE(got == want) << "logical " << l;
    }
  }

  std::unique_ptr<DiskArray> array_;
  std::unique_ptr<ArrayController> ctrl_;
  std::map<std::int64_t, Buffer> model_;
};

TEST_P(ControllerTest, WritesKeepEveryStripeConsistent) {
  EXPECT_TRUE(ctrl_->scrub().empty());
  expect_all_readable();
}

TEST_P(ControllerTest, DegradedReadUnderSingleFailure) {
  ctrl_->fail_disk(1);
  expect_all_readable();
}

TEST_P(ControllerTest, DegradedReadUnderDoubleFailure) {
  ctrl_->fail_disk(0);
  ctrl_->fail_disk(2);
  expect_all_readable();
  EXPECT_THROW(ctrl_->fail_disk(3), std::runtime_error);
}

TEST_P(ControllerTest, DegradedWritesSurviveRebuild) {
  ctrl_->fail_disk(1);
  Rng rng(23);
  Buffer buf(kBlock);
  // Overwrite a quarter of the blocks while degraded (some of them live
  // on the failed disk).
  for (std::int64_t l = 0; l < ctrl_->logical_blocks(); l += 4) {
    rng.fill(buf.data(), kBlock);
    model_[l] = buf;
    ctrl_->write(l, buf.span());
  }
  expect_all_readable();  // degraded reads see the new data
  const std::int64_t rebuilt = ctrl_->rebuild_disk(1);
  EXPECT_GT(rebuilt, 0);
  EXPECT_FALSE(ctrl_->failed(1));
  EXPECT_TRUE(ctrl_->scrub().empty());
  expect_all_readable();
}

TEST_P(ControllerTest, DoubleFailureRebuildRestoresConsistency) {
  ctrl_->fail_disk(0);
  ctrl_->fail_disk(1);
  ctrl_->rebuild_disk(0);
  ctrl_->rebuild_disk(1);
  EXPECT_TRUE(ctrl_->scrub().empty());
  expect_all_readable();
}

TEST_P(ControllerTest, RecipesRefreshAcrossFailRebuildFailCycle) {
  // Regression: the recovery recipes are lazily solved for the current
  // failure set and must be re-solved after *every* change to it —
  // rebuild_disk included. A controller that kept the disk-1 recipes
  // across the rebuild would XOR the wrong chains here and serve
  // garbage for disk 2 (or crash on a recipe whose target no longer
  // matches the failure set).
  ctrl_->fail_disk(1);
  expect_all_readable();  // solves recipes for {1}
  ctrl_->rebuild_disk(1);
  EXPECT_TRUE(ctrl_->scrub().empty());
  ctrl_->fail_disk(2);    // different disk: recipes for {1} are useless
  expect_all_readable();
  ctrl_->rebuild_disk(2);
  EXPECT_TRUE(ctrl_->scrub().empty());
  expect_all_readable();
}

TEST_P(ControllerTest, ScrubFlagsInjectedCorruption) {
  // Flip a byte behind the controller's back.
  auto blk = array_->raw_block(0, 0);
  blk[0] ^= 0xFF;
  const auto bad = ctrl_->scrub();
  ASSERT_EQ(bad.size(), 1u);
  EXPECT_EQ(bad[0], 0);
  blk[0] ^= 0xFF;
  EXPECT_TRUE(ctrl_->scrub().empty());
}

TEST_P(ControllerTest, IdempotentWriteCostsNothing) {
  Buffer cur(kBlock);
  ctrl_->read(7, cur.span());
  const std::uint64_t w = array_->total_writes();
  ctrl_->write(7, cur.span());
  EXPECT_EQ(array_->total_writes(), w);
}

std::vector<Param> all_params() {
  std::vector<Param> out;
  for (CodeId id : all_code_ids()) out.push_back({id, 5});
  out.push_back({CodeId::kCode56, 7});
  out.push_back({CodeId::kHdp, 7});
  return out;
}

INSTANTIATE_TEST_SUITE_P(Zoo, ControllerTest,
                         ::testing::ValuesIn(all_params()), param_name);

/// Table III, "single write performance": disk I/Os per one-block
/// update. Optimal-update codes pay 6 (read+write data plus RMW of two
/// parities); EVENODD's adjuster couples its S-diagonal cells to every
/// diagonal parity, which is why the paper rates it "Low".
TEST(SingleWriteCost, MatchesTableIII) {
  auto avg_io_per_write = [](CodeId id, int p) {
    auto code = make_code(id, p);
    DiskArray array(code->cols(), 2LL * code->rows(), kBlock);
    ArrayController ctrl(array, std::move(code));
    Rng rng(3);
    Buffer buf(kBlock);
    for (std::int64_t l = 0; l < ctrl.logical_blocks(); ++l) {
      rng.fill(buf.data(), kBlock);
      ctrl.write(l, buf.span());
    }
    const std::uint64_t r0 = array.total_reads();
    const std::uint64_t w0 = array.total_writes();
    int writes = 0;
    for (std::int64_t l = 0; l < ctrl.logical_blocks(); ++l) {
      rng.fill(buf.data(), kBlock);
      ctrl.write(l, buf.span());
      ++writes;
    }
    return static_cast<double>(array.total_reads() - r0 +
                               array.total_writes() - w0) /
           writes;
  };
  // Optimal codes: read old data + 2 parities, write data + 2 parities.
  EXPECT_DOUBLE_EQ(avg_io_per_write(CodeId::kCode56, 5), 6.0);
  EXPECT_DOUBLE_EQ(avg_io_per_write(CodeId::kXCode, 5), 6.0);
  EXPECT_DOUBLE_EQ(avg_io_per_write(CodeId::kPCode, 7), 6.0);
  EXPECT_DOUBLE_EQ(avg_io_per_write(CodeId::kHCode, 5), 6.0);
  // RDP: data on the unprotected diagonal feeds the row parity only,
  // but through it every diagonal that includes the row-parity column.
  EXPECT_GT(avg_io_per_write(CodeId::kRdp, 5), 6.0);
  // EVENODD: S-diagonal cells feed all p-1 diagonal parities ("Low").
  EXPECT_GT(avg_io_per_write(CodeId::kEvenOdd, 5),
            avg_io_per_write(CodeId::kRdp, 5));
  // HDP pays one extra hop through the horizontal-diagonal coupling.
  EXPECT_GT(avg_io_per_write(CodeId::kHdp, 5), 6.0);
}

TEST(Controller, RejectsBadGeometry) {
  DiskArray wrong(3, 8, kBlock);
  EXPECT_THROW(ArrayController(wrong, make_code(CodeId::kCode56, 5)),
               std::invalid_argument);
  DiskArray misaligned(5, 7, kBlock);
  EXPECT_THROW(ArrayController(misaligned, make_code(CodeId::kCode56, 5)),
               std::invalid_argument);
}

TEST(ControllerCache, CacheStripesKnobChecksItsInput) {
  // The controller has no stripe cache; the two names perfbench still
  // calls accept only "off", and the retired environment knob turns
  // nothing on: re-reading a stripe costs the same counted reads.
  ASSERT_EQ(setenv("C56_CACHE_STRIPES", "4", 1), 0);
  auto code = make_code(CodeId::kCode56, 5);
  DiskArray array(code->cols(), kStripes * code->rows(), kBlock);
  ArrayController ctrl(array, std::move(code));
  unsetenv("C56_CACHE_STRIPES");
  EXPECT_NO_THROW(ctrl.set_cache_stripes(0));
  EXPECT_THROW(ctrl.set_cache_stripes(1), std::invalid_argument);
  EXPECT_THROW(svc::Volume(0, svc::Volume::Config{.cache_stripes = 1}),
               std::invalid_argument);

  const std::int64_t per_stripe = ctrl.logical_blocks() / kStripes;
  Buffer stripe(static_cast<std::size_t>(per_stripe) * kBlock);
  Rng(3).fill(stripe.data(), stripe.size());
  ctrl.write(0, per_stripe, stripe.span());
  const auto counted_read = [&] {
    const std::uint64_t r0 = array.total_reads();
    const std::uint64_t runs0 = array.total_read_runs();
    ctrl.read(0, per_stripe, stripe.span());
    return std::pair(array.total_reads() - r0,
                     array.total_read_runs() - runs0);
  };
  const auto first = counted_read();
  EXPECT_EQ(first.first, static_cast<std::uint64_t>(per_stripe));
  EXPECT_EQ(counted_read(), first);
}

TEST(Controller, VirtualDiskCode56) {
  // m=3 -> p=5, v=1: four physical disks serve a 5-column code.
  auto code = std::make_unique<Code56>(5, 1);
  DiskArray array(4, 2LL * 4, kBlock);
  ArrayController ctrl(array, std::move(code));
  EXPECT_EQ(ctrl.logical_blocks(), 2 * 6);  // 6 data cells per stripe
  Rng rng(9);
  Buffer buf(kBlock), got(kBlock);
  std::map<std::int64_t, Buffer> model;
  for (std::int64_t l = 0; l < ctrl.logical_blocks(); ++l) {
    rng.fill(buf.data(), kBlock);
    model[l] = buf;
    ctrl.write(l, buf.span());
  }
  EXPECT_TRUE(ctrl.scrub().empty());
  ctrl.fail_disk(0);
  ctrl.fail_disk(3);
  for (const auto& [l, want] : model) {
    ctrl.read(l, got.span());
    EXPECT_TRUE(got == want) << l;
  }
  ctrl.rebuild_disk(0);
  ctrl.rebuild_disk(3);
  EXPECT_TRUE(ctrl.scrub().empty());
}

}  // namespace
}  // namespace c56::mig
