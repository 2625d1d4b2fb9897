#pragma once
// Independent parity oracles for the differential write suites. The
// expected stored bytes come from the tests' own byte mirrors and the
// code's encode() (or, for the online migrator, from the RAID-5 row
// XOR and verify_raid6()), so a suite never trusts a write path of the
// system under test as its only reference.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>

#include "codes/erasure_code.hpp"
#include "layout/stripe.hpp"
#include "migration/disk_array.hpp"
#include "xorblk/buffer.hpp"
#include "xorblk/xor.hpp"

namespace c56::mig::oracle {

/// Expect every stripe of `array` to hold exactly encode() of `mirror`.
/// The layout is the block controller's: logical blocks fill the data
/// cells stripe by stripe in row-major order, and the leading columns
/// made only of virtual cells have no disk. Failed disks must have been
/// rebuilt first; virtual cells are not compared.
inline void expect_stripes_encode_mirror(const ErasureCode& code,
                                         const DiskArray& array,
                                         std::span<const std::uint8_t> mirror) {
  const int rows = code.rows();
  const int cols = code.cols();
  const std::size_t bs = array.block_bytes();
  int vcols = 0;
  while (vcols < cols && [&] {
    for (int r = 0; r < rows; ++r) {
      if (code.kind({r, vcols}) != CellKind::kVirtual) return false;
    }
    return true;
  }()) {
    ++vcols;
  }
  ASSERT_EQ(array.disks(), cols - vcols);
  const std::int64_t stripes = array.blocks_per_disk() / rows;
  const auto per_stripe = static_cast<std::size_t>(code.data_cell_count());
  ASSERT_EQ(mirror.size(), static_cast<std::size_t>(stripes) * per_stripe * bs);
  Buffer want(static_cast<std::size_t>(code.cell_count()) * bs);
  const StripeView v = StripeView::over(want, rows, cols, bs);
  for (std::int64_t s = 0; s < stripes; ++s) {
    want.zero();
    std::size_t next = static_cast<std::size_t>(s) * per_stripe * bs;
    for (int r = 0; r < rows; ++r) {
      for (int c = 0; c < cols; ++c) {
        if (code.kind({r, c}) != CellKind::kData) continue;
        std::copy_n(mirror.begin() + static_cast<std::ptrdiff_t>(next), bs,
                    v.block({r, c}).begin());
        next += bs;
      }
    }
    code.encode(v);
    for (int r = 0; r < rows; ++r) {
      for (int c = vcols; c < cols; ++c) {
        if (code.kind({r, c}) == CellKind::kVirtual) continue;
        const auto got = array.raw_block(c - vcols, s * rows + r);
        const auto exp = v.block({r, c});
        EXPECT_TRUE(std::equal(exp.begin(), exp.end(), got.begin()))
            << "stripe " << s << " cell (" << r << ", " << c
            << ") differs from encode() of the mirror";
      }
    }
  }
}

/// Expect every row of the first `m` disks (a RAID-5, data and
/// horizontal parity) to XOR to zero.
inline void expect_raid5_rows_consistent(const DiskArray& array, int m) {
  Buffer acc(array.block_bytes());
  for (std::int64_t row = 0; row < array.blocks_per_disk(); ++row) {
    acc.zero();
    for (int d = 0; d < m; ++d) xor_into(acc.span(), array.raw_block(d, row));
    EXPECT_TRUE(all_zero(acc.span())) << "RAID-5 row " << row
                                      << " does not XOR to zero";
  }
}

}  // namespace c56::mig::oracle
