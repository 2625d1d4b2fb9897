#pragma once
// Shared pieces of the end-to-end benchmark: clocks, exact-sample
// quantiles, the metric sink, and the self-describing data pattern the
// benchmark writes so every read-back can be checked against a mirror.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace pb {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// A correctness failure: the run stops, exits non-zero, and reports
/// no metric.
struct Mismatch : std::runtime_error {
  using std::runtime_error::runtime_error;
};

// ---------------------------------------------------------------------
// Exact-sample quantiles
// ---------------------------------------------------------------------

/// Samples a tail quantile needs beyond it before it is reported (the
/// tiny self-check sizes lower it to 0: they only check names/units).
inline std::size_t g_min_beyond = 10;

/// Nearest-rank quantile of exact samples. A tail quantile is refused
/// (throws) unless at least `min_beyond` samples lie beyond it.
struct Quantile {
  double value = 0;
  std::size_t n = 0;       // samples
  std::size_t beyond = 0;  // samples ranked above the quantile
};

inline Quantile quantile(std::vector<double>& v, double q,
                         const std::string& what,
                         std::size_t min_beyond = 10) {
  Quantile out;
  out.n = v.size();
  if (v.empty()) throw std::runtime_error(what + ": no samples");
  auto rank = static_cast<std::size_t>(std::ceil(q * double(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  std::nth_element(v.begin(), v.begin() + long(rank - 1), v.end());
  out.value = v[rank - 1];
  out.beyond = v.size() - rank;
  if (q > 0.5 && out.beyond < min_beyond) {
    throw std::runtime_error(what + ": refusing a tail quantile with " +
                             std::to_string(out.beyond) +
                             " samples beyond it (" + std::to_string(v.size()) +
                             " samples)");
  }
  return out;
}

inline double median_of(std::vector<double> v) {
  return quantile(v, 0.5, "median").value;
}

// ---------------------------------------------------------------------
// Metric sink
// ---------------------------------------------------------------------

struct Metric {
  double value = 0;
  std::string unit;
  std::string note;  // sample count or derivation, printed with it
};

/// Ordered name -> metric map. Every metric is also printed as a
/// human-readable line before the final JSON result.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit,
           const std::string& note = "") {
    if (!std::isfinite(value)) {
      throw std::runtime_error("metric " + name + " is not finite");
    }
    m_[name] = {value, unit, note};
  }
  void set_q(const std::string& name, const Quantile& q,
             const std::string& unit) {
    set(name, q.value, unit,
        "n=" + std::to_string(q.n) + " beyond=" + std::to_string(q.beyond));
  }
  const std::map<std::string, Metric>& all() const { return m_; }

 private:
  std::map<std::string, Metric> m_;
};

// ---------------------------------------------------------------------
// Data pattern
// ---------------------------------------------------------------------
//
// Every 512-byte sector the benchmark writes is a pure function of
// (volume, block, sector, version): word 0 names the location, word 1
// the version, and the remaining 62 words are derived from both. The
// mirror therefore only stores one version number per sector, and a
// read-back is checked by parsing the version out of each sector and
// regenerating it. A sector from the wrong place, a stale version, or
// a torn sector all fail the check.

inline constexpr std::size_t kSector = 512;
inline constexpr std::size_t kWords = kSector / 8;
inline constexpr std::uint64_t kMagic = 0xC56B000000000000ull;

inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

inline std::uint64_t sector_tag(std::uint32_t vol, std::int64_t block,
                                int sector) {
  return (std::uint64_t(vol) << 44) ^ (std::uint64_t(block) << 4) ^
         std::uint64_t(sector);
}

inline void fill_sector(std::uint8_t* dst, std::uint32_t vol,
                        std::int64_t block, int sector, std::uint32_t ver) {
  std::uint64_t w[kWords];
  w[0] = sector_tag(vol, block, sector);
  w[1] = kMagic | ver;
  const std::uint64_t h = mix64(w[0] ^ mix64(ver));
  for (std::size_t i = 2; i < kWords; ++i) w[i] = h + i * 0x9E3779B97F4A7C15ull;
  std::memcpy(dst, w, kSector);
}

/// Version stored in the sector, or -1 when the sector is not exactly
/// a pattern sector of this location. `full` regenerates and compares
/// every byte; otherwise the location, version and last word are
/// checked (the in-run check; the end-of-run sweep is always full).
inline std::int64_t sector_version(const std::uint8_t* src, std::uint32_t vol,
                                   std::int64_t block, int sector, bool full) {
  std::uint64_t w0, w1, wl;
  std::memcpy(&w0, src, 8);
  std::memcpy(&w1, src + 8, 8);
  if (w0 != sector_tag(vol, block, sector)) return -1;
  if ((w1 & 0xFFFFFFFF00000000ull) != kMagic) return -1;
  const auto ver = static_cast<std::uint32_t>(w1);
  if (full) {
    std::uint8_t want[kSector];
    fill_sector(want, vol, block, sector, ver);
    if (std::memcmp(want, src, kSector) != 0) return -1;
  } else {
    std::memcpy(&wl, src + kSector - 8, 8);
    const std::uint64_t h = mix64(w0 ^ mix64(ver));
    if (wl != h + (kWords - 1) * 0x9E3779B97F4A7C15ull) return -1;
  }
  return ver;
}

/// Per-volume mirror: the latest submitted version of every sector.
struct Mirror {
  std::uint32_t vol = 0;
  int sectors_per_block = 0;
  std::vector<std::uint32_t> ver;

  Mirror(std::uint32_t v, std::int64_t blocks, std::size_t block_bytes)
      : vol(v),
        sectors_per_block(int(block_bytes / kSector)),
        ver(std::size_t(blocks) * (block_bytes / kSector), 0) {}

  std::uint32_t& at(std::int64_t block, int sector) {
    return ver[std::size_t(block) * std::size_t(sectors_per_block) +
               std::size_t(sector)];
  }

  /// Bump the version of sectors [s0, s0 + ns) of `block` and write
  /// their new contents to `dst`.
  void write(std::int64_t block, int s0, int ns, std::uint8_t* dst) {
    for (int s = s0; s < s0 + ns; ++s) {
      const std::uint32_t v = ++at(block, s);
      fill_sector(dst + std::size_t(s - s0) * kSector, vol, block, s, v);
    }
  }

  /// Check a read of whole blocks [block, block + n): every sector
  /// must hold a version in [floor, current]. `floor` is null for an
  /// exact check against the current version.
  void check(std::int64_t block, std::int64_t n, const std::uint8_t* src,
             const std::uint32_t* floor, bool full, const char* what) {
    for (std::int64_t b = 0; b < n; ++b) {
      for (int s = 0; s < sectors_per_block; ++s) {
        const std::int64_t got = sector_version(
            src + (std::size_t(b) * std::size_t(sectors_per_block) +
                   std::size_t(s)) * kSector,
            vol, block + b, s, full);
        const std::uint32_t cur = at(block + b, s);
        const std::uint32_t lo =
            floor ? floor[std::size_t(b) * std::size_t(sectors_per_block) +
                          std::size_t(s)]
                  : cur;
        if (got < 0 || std::uint32_t(got) < lo || std::uint32_t(got) > cur) {
          throw Mismatch(std::string(what) + ": volume " +
                         std::to_string(vol) + " block " +
                         std::to_string(block + b) + " sector " +
                         std::to_string(s) + " read version " +
                         std::to_string(got) + ", expected [" +
                         std::to_string(lo) + ", " + std::to_string(cur) +
                         "]");
        }
      }
    }
  }
};

}  // namespace pb
