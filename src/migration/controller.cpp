#include "migration/controller.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>

#include "migration/degraded.hpp"
#include "xorblk/pool.hpp"
#include "xorblk/xor.hpp"

namespace c56::mig {

namespace {

[[noreturn]] void throw_io(const char* what, const IoResult& r) {
  throw std::runtime_error(std::string("ArrayController: ") + what + " (" +
                           to_string(r.status) + ") at disk " +
                           std::to_string(r.disk) + " block " +
                           std::to_string(r.block));
}

// Calls fn on each maximal stretch of `cells` (sorted by column, then
// row) that sits in one column on consecutive rows: one DiskArray run.
template <class T, class Fn>
void for_each_run(std::span<T> cells, Fn fn) {
  std::size_t i = 0;
  while (i < cells.size()) {
    std::size_t j = i + 1;
    while (j < cells.size() && cells[j].cell.col == cells[i].cell.col &&
           cells[j].cell.row == cells[j - 1].cell.row + 1) {
      ++j;
    }
    fn(cells.subspan(i, j - i));
    i = j;
  }
}

std::uint64_t elapsed_us(std::chrono::steady_clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

}  // namespace

ArrayController::ArrayController(DiskArray& array,
                                 std::unique_ptr<ErasureCode> code)
    : array_(array),
      code_(std::move(code)),
      rows_(code_->rows()),
      cols_(code_->cols()) {
  virtual_cols_ = 0;
  for (int c = 0; c < code_->cols(); ++c) {
    bool all_virtual = true;
    for (int r = 0; r < code_->rows(); ++r) {
      if (code_->kind({r, c}) != CellKind::kVirtual) {
        all_virtual = false;
        break;
      }
    }
    if (all_virtual) {
      ++virtual_cols_;
    } else {
      break;  // virtual columns are the leading ones (Fig. 8)
    }
  }
  if (array_.disks() != code_->cols() - virtual_cols_) {
    throw std::invalid_argument(
        "ArrayController: disk count must match physical columns");
  }
  if (array_.blocks_per_disk() % code_->rows() != 0) {
    throw std::invalid_argument(
        "ArrayController: blocks per disk must be a multiple of rows");
  }
  stripes_ = array_.blocks_per_disk() / code_->rows();

  const int rows = code_->rows();
  const int cols = code_->cols();
  kind_.resize(static_cast<std::size_t>(rows) * cols);
  data_index_.assign(static_cast<std::size_t>(rows) * cols, -1);
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      const auto f = static_cast<std::size_t>(r) * cols + c;
      kind_[f] = code_->kind({r, c});
      if (kind_[f] == CellKind::kData) {
        data_index_[f] = static_cast<int>(data_cells_.size());
        data_cells_.push_back({r, c});
      }
    }
  }

  // Per-data-cell parity lists and per-parity expanded input lists, laid
  // out as CSR so the write planner walks plain arrays.
  const std::vector<ParityChain>& expanded = code_->expanded_chains();
  std::vector<std::vector<Cell>> by_data(data_cells_.size());
  chain_begin_.assign(static_cast<std::size_t>(rows) * cols, -1);
  chain_offset_.push_back(0);
  for (const ParityChain& ch : expanded) {
    chain_begin_[static_cast<std::size_t>(flat_of(ch.parity))] =
        static_cast<int>(chain_offset_.size()) - 1;
    for (Cell in : ch.inputs) {
      const int idx = data_index_[static_cast<std::size_t>(flat_of(in))];
      assert(idx >= 0);
      by_data[static_cast<std::size_t>(idx)].push_back(ch.parity);
      chain_inputs_.push_back(idx);
    }
    chain_offset_.push_back(static_cast<int>(chain_inputs_.size()));
  }
  parities_offset_.push_back(0);
  for (const std::vector<Cell>& ps : by_data) {
    parities_cells_.insert(parities_cells_.end(), ps.begin(), ps.end());
    parities_offset_.push_back(static_cast<int>(parities_cells_.size()));
  }
}

std::int64_t ArrayController::logical_blocks() const {
  return stripes_ * static_cast<std::int64_t>(data_cells_.size());
}

ArrayController::Locus ArrayController::locate(std::int64_t logical) const {
  assert(logical >= 0 && logical < logical_blocks());
  const auto per_stripe = static_cast<std::int64_t>(data_cells_.size());
  return {data_cells_[static_cast<std::size_t>(logical % per_stripe)],
          logical / per_stripe};
}

bool ArrayController::cell_failed(Cell c) const {
  if (kind_[static_cast<std::size_t>(flat_of(c))] == CellKind::kVirtual) {
    return false;
  }
  return failed_.count(disk_of(c.col)) != 0;
}

std::span<const int> ArrayController::parity_inputs(int pflat) const {
  const int k = chain_begin_[static_cast<std::size_t>(pflat)];
  assert(k >= 0 && "cell is not a parity");
  return std::span<const int>(chain_inputs_)
      .subspan(static_cast<std::size_t>(chain_offset_[k]),
               static_cast<std::size_t>(chain_offset_[k + 1] -
                                        chain_offset_[k]));
}

std::span<const Cell> ArrayController::parities_of(int idx) const {
  return std::span<const Cell>(parities_cells_)
      .subspan(static_cast<std::size_t>(parities_offset_[idx]),
               static_cast<std::size_t>(parities_offset_[idx + 1] -
                                        parities_offset_[idx]));
}

const std::vector<RecoveryRecipe>& ArrayController::recipes() {
  if (!recipes_valid_) {
    std::vector<int> cols;
    for (int d : failed_) cols.push_back(col_of(d));
    auto solved = code_->solve_cells(code_->erased_cells_of_columns(cols));
    if (!solved) {
      throw std::runtime_error("failure pattern is not decodable");
    }
    recipes_ = std::move(*solved);
    recipes_valid_ = true;
  }
  return recipes_;
}

void ArrayController::reconstruct_cell(std::int64_t stripe, Cell c,
                                       std::span<std::uint8_t> out) {
  const int flat = flat_of(c);
  const RecoveryRecipe* recipe = nullptr;
  for (const RecoveryRecipe& r : recipes()) {
    if (r.target == flat) {
      recipe = &r;
      break;
    }
  }
  assert(recipe != nullptr && "cell is not part of the failure set");
  // One shared reconstruct-on-read path: the recipe's surviving chain
  // members feed the same XOR kernel the online migrator degrades
  // through (degraded.hpp).
  std::vector<BlockAddr> srcs;
  srcs.reserve(recipe->sources.size());
  for (int src : recipe->sources) {
    const Cell sc = cell_of_index(src, code_->cols());
    assert(!cell_failed(sc));
    srcs.push_back({disk_of(sc.col), block_of(stripe, sc.row)});
  }
  const IoResult r = xor_chain_read(array_, srcs, out, RetryPolicy{}, nullptr);
  if (!r.ok()) throw_io("reconstruction read failed", r);
}

// Per-thread planner scratch: the vectors keep their capacity between
// calls, so a steady-state request allocates nothing but pooled
// buffers. Front ends use `ops`, write_stripe the rest; neither
// re-enters the other.
struct ArrayController::Scratch {
  struct Touched {  // one data cell the stripe's updates touch
    int idx;
    std::size_t lo, hi;                 // hull of its updated byte ranges
    int updates = 0;
    bool covered = false;               // some update spans the block
    bool need_old = false;              // old bytes over the hull needed
    bool old_full = false;              // old bytes known for the block
    bool own = false;                   // new image assembled in scratch
    bool skip = false;                  // idempotent: new == old
    const std::uint8_t* src = nullptr;  // new image (one block)
  };
  struct Par {  // one surviving parity the touched cells feed
    int flat;
    std::size_t lo, hi;  // byte range to update
    bool direct;         // whole expanded chain covered: no pre-read
    bool live = false;   // some non-idempotent input
  };
  std::vector<SubWrite> ops;
  std::vector<int> slot_of;  // data idx -> index into cells, or -1
  std::vector<int> pslot;    // flat cell -> index into pars, -1, -2 failed
  std::vector<Touched> cells;
  std::vector<Par> pars;
  std::vector<CellFetch> fetch;
  std::vector<CellWrite> wr;
  std::vector<const std::uint8_t*> srcs;
  std::vector<const std::uint8_t*> run;  // one DiskArray run's blocks
};

ArrayController::Scratch& ArrayController::scratch() {
  thread_local Scratch s;
  return s;
}

void ArrayController::read(std::int64_t logical, std::span<std::uint8_t> out) {
  read(logical, 1, out);
}

void ArrayController::read(std::int64_t logical, std::int64_t count,
                           std::span<std::uint8_t> out) {
  const std::size_t bs = array_.block_bytes();
  // Overflow-safe range check: `logical + count` can wrap for huge
  // counts, so compare count against the remaining span instead. A
  // range ending exactly at logical_blocks() is valid.
  if (count < 0 || logical < 0 || logical > logical_blocks() ||
      count > logical_blocks() - logical) {
    throw std::out_of_range("ArrayController::read: bad logical range");
  }
  if (out.size() != static_cast<std::size_t>(count) * bs) {
    throw std::invalid_argument("ArrayController::read: bad buffer size");
  }
  if (count == 0) return;  // validated no-op, planner never invoked
  const bool obs_on = obs::metrics_enabled();
  std::chrono::steady_clock::time_point t0;
  if (obs_on) t0 = std::chrono::steady_clock::now();
  const auto per = static_cast<std::int64_t>(data_cells_.size());
  std::vector<CellFetch>& want = scratch().fetch;
  std::int64_t done = 0;
  while (done < count) {
    const std::int64_t l = logical + done;
    const auto i0 = static_cast<int>(l % per);
    const auto n =
        static_cast<int>(std::min<std::int64_t>(per - i0, count - done));
    want.clear();
    for (int k = 0; k < n; ++k) {
      want.push_back({data_cells_[static_cast<std::size_t>(i0 + k)], k});
    }
    std::lock_guard sl(stripe_lock(l / per));
    fetch_cells(l / per, want,
                out.data() + static_cast<std::size_t>(done) * bs);
    done += n;
  }
  if (obs_on) {
    ranged_reads_.inc();
    read_latency_us_.observe(elapsed_us(t0));
  }
}

void ArrayController::fetch_cells(std::int64_t stripe,
                                  std::span<CellFetch> want,
                                  std::uint8_t* dst_blocks) {
  const std::size_t bs = array_.block_bytes();
  const auto dst_of = [&](const CellFetch& cf) {
    return std::span<std::uint8_t>{
        dst_blocks + static_cast<std::size_t>(cf.dst) * bs, bs};
  };
  // Failed cells are reconstructed here; the disk reads left over are
  // compacted to the front of `want`.
  std::size_t n = 0;
  for (const CellFetch& cf : want) {
    if (cell_failed(cf.cell)) {
      reconstruct_cell(stripe, cf.cell, dst_of(cf));
      continue;
    }
    want[n++] = cf;
  }
  const std::span<CellFetch> rest = want.first(n);
  std::ranges::sort(rest, {}, [](const CellFetch& f) {
    return std::pair(f.cell.col, f.cell.row);
  });
  std::vector<const std::uint8_t*>& view = scratch().run;
  for_each_run(rest, [&](std::span<const CellFetch> run) {
    const int d = disk_of(run[0].cell.col);
    const std::int64_t b0 = block_of(stripe, run[0].cell.row);
    view.resize(run.size());
    const IoResult r = array_.view_blocks(d, b0, view);
    // A fault keeps the borrowed prefix and retries from its block on.
    const std::size_t ok = r.ok() ? run.size()
                                  : static_cast<std::size_t>(r.block - b0);
    for (std::size_t k = 0; k < run.size(); ++k) {
      const auto dst = dst_of(run[k]);
      if (k < ok) {
        std::memcpy(dst.data(), view[k], bs);
      } else {
        const IoResult rk = read_block_retry(
            array_, d, b0 + static_cast<std::int64_t>(k), dst, RetryPolicy{},
            nullptr);
        if (!rk.ok()) throw_io("read failed", rk);
      }
    }
  });
}

void ArrayController::write_cells(std::int64_t stripe,
                                  std::span<CellWrite> w) {
  const std::size_t bs = array_.block_bytes();
  std::ranges::sort(w, {}, [](const CellWrite& cw) {
    return std::pair(cw.cell.col, cw.cell.row);
  });
  std::vector<const std::uint8_t*>& srcs = scratch().run;
  for_each_run(w, [&](std::span<const CellWrite> run) {
    const int d = disk_of(run[0].cell.col);
    const std::int64_t b0 = block_of(stripe, run[0].cell.row);
    srcs.clear();
    for (const CellWrite& cw : run) srcs.push_back(cw.src);
    const IoResult r = array_.write_blocks(d, b0, srcs);
    // A dead disk's blocks are dropped for fail_disk/rebuild. A torn
    // block is repaired by a full rewrite: keep the persisted prefix
    // and rewrite from the torn block on, each with retries.
    if (r.status != IoStatus::kTornWrite) return;
    for (auto b = r.block; b < b0 + static_cast<std::int64_t>(run.size());
         ++b) {
      const IoResult rb = write_block_retry(
          array_, d, b, {srcs[static_cast<std::size_t>(b - b0)], bs},
          RetryPolicy{}, nullptr);
      if (rb.status == IoStatus::kDiskFailed) return;
    }
  });
}

void ArrayController::write(std::int64_t logical,
                            std::span<const std::uint8_t> in) {
  write(logical, 1, in);
}

void ArrayController::write(std::int64_t logical, std::int64_t count,
                            std::span<const std::uint8_t> in) {
  const std::size_t bs = array_.block_bytes();
  // Same overflow-safe range semantics as ranged read (see above).
  if (count < 0 || logical < 0 || logical > logical_blocks() ||
      count > logical_blocks() - logical) {
    throw std::out_of_range("ArrayController::write: bad logical range");
  }
  if (in.size() != static_cast<std::size_t>(count) * bs) {
    throw std::invalid_argument("ArrayController::write: bad buffer size");
  }
  if (count == 0) return;  // validated no-op, planner never invoked
  // Priced by the perf-smoke overhead gate: with a log attached but
  // events disabled this is the layer's whole hot-path cost.
  if (events_ && obs::events_enabled()) {
    emit_event(obs::EventLevel::kDebug,
               "ranged write: " + std::to_string(count) +
                   " blocks at logical " + std::to_string(logical),
               -1, "ranged_write");
  }
  std::vector<SubWrite>& ops = scratch().ops;
  ops.clear();
  for (std::int64_t k = 0; k < count; ++k) {
    ops.push_back(
        {logical + k, 0, in.subspan(static_cast<std::size_t>(k) * bs, bs)});
  }
  write_ops(ops, /*ranged=*/true);
}

void ArrayController::read_range(std::int64_t logical, std::int64_t offset,
                                 std::span<std::uint8_t> out) {
  const std::size_t bs = array_.block_bytes();
  if (logical < 0 || logical >= logical_blocks() || offset < 0 ||
      offset > static_cast<std::int64_t>(bs) ||
      out.size() > bs - static_cast<std::size_t>(offset)) {
    throw std::out_of_range("ArrayController::read_range: bad range");
  }
  if (out.empty()) return;  // validated no-op
  if (offset == 0 && out.size() == bs) {
    read(logical, 1, out);
    return;
  }
  const Locus l = locate(logical);
  const auto off = static_cast<std::size_t>(offset);
  std::lock_guard sl(stripe_lock(l.stripe));
  if (cell_failed(l.cell)) {
    // Reconstruction is whole-block by nature (the XOR chains cover
    // full blocks); slice the range.
    PooledBuffer tmp(bs);
    reconstruct_cell(l.stripe, l.cell, tmp.span());
    std::memcpy(out.data(), tmp.data() + off, out.size());
    return;
  }
  const IoResult r =
      read_range_retry(array_, disk_of(l.cell.col),
                       block_of(l.stripe, l.cell.row), off, out,
                       RetryPolicy{}, nullptr);
  if (!r.ok()) throw_io("range read failed", r);
}

void ArrayController::write_range(std::int64_t logical, std::int64_t offset,
                                  std::span<const std::uint8_t> in) {
  const SubWrite w{logical, offset, in};
  write_range(std::span<const SubWrite>(&w, 1));
}

void ArrayController::write_range(std::span<const SubWrite> batch) {
  const std::size_t bs = array_.block_bytes();
  for (const SubWrite& w : batch) {
    if (w.logical < 0 || w.logical >= logical_blocks() || w.offset < 0 ||
        w.offset > static_cast<std::int64_t>(bs) ||
        w.data.size() > bs - static_cast<std::size_t>(w.offset)) {
      throw std::out_of_range("ArrayController::write_range: bad range");
    }
  }
  // Validated zero-length entries are no-ops.
  std::vector<SubWrite>& ops = scratch().ops;
  ops.clear();
  for (const SubWrite& w : batch) {
    if (!w.data.empty()) ops.push_back(w);
  }
  if (ops.empty()) return;
  if (events_ && obs::events_enabled()) {
    emit_event(obs::EventLevel::kDebug,
               "subblock write: " + std::to_string(ops.size()) + " ops",
               -1, "subblock_write");
  }
  write_ops(ops, /*ranged=*/false);
}

void ArrayController::write_ops(std::span<SubWrite> ops, bool ranged) {
  const bool obs_on = obs::metrics_enabled();
  std::chrono::steady_clock::time_point t0;
  if (obs_on) t0 = std::chrono::steady_clock::now();
  const auto per = static_cast<std::int64_t>(data_cells_.size());
  const auto stripe_of = [per](const SubWrite& w) { return w.logical / per; };
  // Group by stripe, keeping batch order within a stripe (overlapping
  // updates apply in order).
  if (!std::ranges::is_sorted(ops, {}, stripe_of)) {
    std::ranges::stable_sort(ops, {}, stripe_of);
  }
  std::size_t i = 0;
  while (i < ops.size()) {
    const std::int64_t stripe = stripe_of(ops[i]);
    std::size_t j = i + 1;
    while (j < ops.size() && stripe_of(ops[j]) == stripe) ++j;
    const std::span<const SubWrite> ups = ops.subspan(i, j - i);
    i = j;
    PlanStats st;
    {
      std::lock_guard sl(stripe_lock(stripe));
      st = write_stripe(stripe, ups);
    }
    if (obs_on) {
      direct_parities_.inc(st.direct);
      if (ranged) {
        (st.full_stripe ? full_stripe_writes_ : partial_stripe_writes_).inc();
        rmw_parities_.inc(st.rmw);
      } else {
        subblock_writes_.inc(ups.size());
        delta_parities_.inc(st.rmw);
        subblock_promotions_.inc(st.promoted);
      }
    }
  }
  if (obs_on) {
    ranged_writes_.inc();
    write_latency_us_.observe(elapsed_us(t0));
  }
}

ArrayController::PlanStats ArrayController::write_stripe(
    std::int64_t stripe, std::span<const SubWrite> ups) {
  const std::size_t bs = array_.block_bytes();
  const int cols = code_->cols();
  const auto per = static_cast<std::int64_t>(data_cells_.size());
  Scratch& s = scratch();
  PlanStats st;

  // Touched cells in first-touch order: the hull of each one's byte
  // ranges, and whether one update covers it whole.
  s.slot_of.assign(data_cells_.size(), -1);
  s.cells.clear();
  for (const SubWrite& u : ups) {
    const auto idx = static_cast<int>(u.logical % per);
    int& k = s.slot_of[static_cast<std::size_t>(idx)];
    if (k < 0) {
      k = static_cast<int>(s.cells.size());
      s.cells.push_back({idx, bs, 0});
    }
    Scratch::Touched& t = s.cells[static_cast<std::size_t>(k)];
    const auto off = static_cast<std::size_t>(u.offset);
    ++t.updates;
    t.lo = std::min(t.lo, off);
    t.hi = std::max(t.hi, off + u.data.size());
    if (u.data.size() == bs) {
      t.covered = true;
      t.src = u.data.data();
    }
  }
  st.full_stripe = s.cells.size() == data_cells_.size() &&
                   std::ranges::all_of(s.cells, &Scratch::Touched::covered);
  // With the delta plane off every partial hull widens to the whole
  // block (the whole-block read-modify-write fallback).
  if (!subblock_delta_) {
    for (Scratch::Touched& t : s.cells) {
      if (t.lo == 0 && t.hi == bs) continue;
      t.lo = 0;
      t.hi = bs;
      ++st.promoted;
    }
  }
  const auto slot = [&](int idx) {  // touched-cell index, or -1
    return s.slot_of[static_cast<std::size_t>(idx)];
  };

  // Surviving parities the touched cells feed, each listed once. A
  // parity whose expanded chain is all covered cells is computed
  // directly from the new values; every other one is read-modify-
  // written and needs the old values of its touched inputs.
  s.pslot.assign(kind_.size(), -1);
  s.pars.clear();
  for (const Scratch::Touched& t : s.cells) {
    for (Cell pc : parities_of(t.idx)) {
      const int pf = flat_of(pc);
      int& k = s.pslot[static_cast<std::size_t>(pf)];
      if (k != -1) continue;
      if (cell_failed(pc)) {  // regenerated at rebuild time
        k = -2;
        continue;
      }
      k = static_cast<int>(s.pars.size());
      bool direct = true;
      for (int idx : parity_inputs(pf)) {
        const int j = slot(idx);
        if (j < 0 || !s.cells[static_cast<std::size_t>(j)].covered) {
          direct = false;
          break;
        }
      }
      s.pars.push_back({pf, bs, 0, direct});
    }
  }
  for (const Scratch::Par& pr : s.pars) {
    if (pr.direct) continue;
    for (int idx : parity_inputs(pr.flat)) {
      const int j = slot(idx);
      if (j >= 0) s.cells[static_cast<std::size_t>(j)].need_old = true;
    }
  }

  // Pre-reads, all issued before the first write so a failed read
  // leaves the stripe untouched. Old data first: a partial cell always
  // needs its old bytes (they fill the gaps of its new image); a cell
  // read over the whole block or reconstructed is known whole.
  const auto read_range_or_throw = [&](Cell c, std::size_t lo, std::size_t hi,
                                       std::uint8_t* blk) {
    const IoResult r =
        read_range_retry(array_, disk_of(c.col), block_of(stripe, c.row), lo,
                         {blk + lo, hi - lo}, RetryPolicy{}, nullptr);
    if (!r.ok()) throw_io("range read failed", r);
  };
  // One pooled arena: old images, new images, parity images.
  const std::size_t T = s.cells.size();
  PooledBuffer arena((2 * T + s.pars.size()) * bs);
  std::uint8_t* const olds = arena.data();
  std::uint8_t* const news = olds + T * bs;
  std::uint8_t* const pbuf = news + T * bs;
  s.fetch.clear();
  for (std::size_t k = 0; k < T; ++k) {
    Scratch::Touched& t = s.cells[k];
    t.need_old = t.need_old || !t.covered;
    if (!t.need_old) continue;
    const Cell c = data_cells_[static_cast<std::size_t>(t.idx)];
    const std::span<std::uint8_t> oldb{olds + k * bs, bs};
    t.old_full = true;
    if (t.lo == 0 && t.hi == bs) {
      s.fetch.push_back({c, static_cast<int>(k)});
    } else if (cell_failed(c)) {
      reconstruct_cell(stripe, c, oldb);
    } else {
      t.old_full = false;
      read_range_or_throw(c, t.lo, t.hi, oldb.data());
    }
  }
  fetch_cells(stripe, s.fetch, olds);

  // New images: a cell written by one whole update is used in place;
  // any other is assembled from its old bytes and its updates in batch
  // order. A cell whose new bytes equal the old ones is idempotent and
  // dropped from every parity and write.
  for (std::size_t k = 0; k < T; ++k) {
    Scratch::Touched& t = s.cells[k];
    if (t.covered && t.updates == 1) continue;
    t.own = true;
    t.src = news + k * bs;
    if (t.covered) continue;
    const std::size_t lo = t.old_full ? 0 : t.lo;
    const std::size_t hi = t.old_full ? bs : t.hi;
    std::memcpy(news + k * bs + lo, olds + k * bs + lo, hi - lo);
  }
  for (const SubWrite& u : ups) {
    const auto k = static_cast<std::size_t>(
        s.slot_of[static_cast<std::size_t>(u.logical % per)]);
    if (s.cells[k].own) {
      std::memcpy(news + k * bs + static_cast<std::size_t>(u.offset),
                  u.data.data(), u.data.size());
    }
  }
  for (std::size_t k = 0; k < T; ++k) {
    Scratch::Touched& t = s.cells[k];
    t.skip = t.need_old && std::memcmp(olds + k * bs + t.lo,
                                       t.src + t.lo, t.hi - t.lo) == 0;
  }

  // Each live parity updates the union of its live inputs' ranges (a
  // direct one the whole block). Old parity values for the read-
  // modify-written ones — the last pre-reads.
  s.fetch.clear();
  for (std::size_t k = 0; k < s.pars.size(); ++k) {
    Scratch::Par& pr = s.pars[k];
    for (int idx : parity_inputs(pr.flat)) {
      const int j = slot(idx);
      if (j < 0 || s.cells[static_cast<std::size_t>(j)].skip) continue;
      pr.live = true;
      pr.lo = std::min(pr.lo, s.cells[static_cast<std::size_t>(j)].lo);
      pr.hi = std::max(pr.hi, s.cells[static_cast<std::size_t>(j)].hi);
    }
    if (!pr.live) continue;
    if (pr.direct) {
      pr.lo = 0;
      pr.hi = bs;
      ++st.direct;
      continue;
    }
    ++st.rmw;
    const Cell pc = cell_of_index(pr.flat, cols);
    if (pr.lo == 0 && pr.hi == bs) {
      s.fetch.push_back({pc, static_cast<int>(k)});
    } else {
      read_range_or_throw(pc, pr.lo, pr.hi, pbuf + k * bs);
    }
  }
  fetch_cells(stripe, s.fetch, pbuf);

  // New parity values: a direct one accumulates its inputs' new images
  // in one pass; a read-modify-written one folds in parity ^= new ^ old
  // over each live input's range.
  for (std::size_t k = 0; k < s.pars.size(); ++k) {
    const Scratch::Par& pr = s.pars[k];
    if (!pr.live) continue;
    std::uint8_t* par = pbuf + k * bs;
    if (pr.direct) {
      s.srcs.clear();
      for (int idx : parity_inputs(pr.flat)) {
        s.srcs.push_back(s.cells[static_cast<std::size_t>(slot(idx))].src);
      }
      xor_accumulate(par, reinterpret_cast<const void* const*>(s.srcs.data()),
                     s.srcs.size(), bs);
      continue;
    }
    for (int idx : parity_inputs(pr.flat)) {
      const int j = slot(idx);
      if (j < 0 || s.cells[static_cast<std::size_t>(j)].skip) continue;
      const Scratch::Touched& t = s.cells[static_cast<std::size_t>(j)];
      xor_delta_into(par + t.lo,
                     olds + static_cast<std::size_t>(j) * bs + t.lo,
                     t.src + t.lo, t.hi - t.lo);
    }
  }

  // Writes: whole blocks batched into per-column runs, partial ranges
  // one range write each. Write failures are not reported here: a torn
  // write is repaired by its retry's rewrite, and a disk that died
  // mid-request is left to the failure machinery (fail_disk/rebuild).
  s.wr.clear();
  const auto put = [&](Cell c, const std::uint8_t* img, std::size_t lo,
                       std::size_t hi) {
    if (lo == 0 && hi == bs) {
      s.wr.push_back({c, img});
    } else {
      write_range_retry(array_, disk_of(c.col), block_of(stripe, c.row), lo,
                        {img + lo, hi - lo}, RetryPolicy{}, nullptr);
    }
  };
  for (std::size_t k = 0; k < s.pars.size(); ++k) {
    const Scratch::Par& pr = s.pars[k];
    if (pr.live) {
      put(cell_of_index(pr.flat, cols), pbuf + k * bs, pr.lo, pr.hi);
    }
  }
  for (const Scratch::Touched& t : s.cells) {
    const Cell c = data_cells_[static_cast<std::size_t>(t.idx)];
    if (!t.skip && !cell_failed(c)) put(c, t.src, t.lo, t.hi);
  }
  write_cells(stripe, s.wr);
  return st;
}

void ArrayController::set_cache_stripes(std::size_t n) {
  if (n != 0) {
    throw std::invalid_argument(
        "set_cache_stripes: the controller has no stripe cache; only 0 is "
        "accepted");
  }
}

ArrayController::PlannerCounters ArrayController::planner_counters() const {
  return {ranged_reads_.value(),        ranged_writes_.value(),
          full_stripe_writes_.value(),  partial_stripe_writes_.value(),
          direct_parities_.value(),     rmw_parities_.value(),
          subblock_writes_.value(),     delta_parities_.value(),
          subblock_promotions_.value()};
}

void ArrayController::attach_metrics(obs::Registry& registry,
                                     const std::string& prefix,
                                     const std::string& labels) {
  // `lb` goes on every counter/gauge so many controllers can share one
  // registry (e.g. volume="3"); histograms are emitted only unlabeled
  // (label-free names are a histogram contract, see metrics.hpp).
  const std::string lb = labels.empty() ? "" : "{" + labels + "}";
  metrics_handle_ =
      registry.add_collector([this, prefix, lb](obs::Collection& c) {
    c.counter(prefix + "_ranged_reads" + lb, ranged_reads_.value());
    c.counter(prefix + "_ranged_writes" + lb, ranged_writes_.value());
    c.counter(prefix + "_full_stripe_writes" + lb,
              full_stripe_writes_.value());
    c.counter(prefix + "_partial_stripe_writes" + lb,
              partial_stripe_writes_.value());
    c.counter(prefix + "_direct_parities" + lb, direct_parities_.value());
    c.counter(prefix + "_rmw_parities" + lb, rmw_parities_.value());
    c.counter(prefix + "_subblock_writes" + lb, subblock_writes_.value());
    c.counter(prefix + "_delta_parities" + lb, delta_parities_.value());
    c.counter(prefix + "_subblock_promotions" + lb,
              subblock_promotions_.value());
    if (lb.empty()) {
      c.histogram(prefix + "_read_latency_us", read_latency_us_.snapshot());
      c.histogram(prefix + "_write_latency_us", write_latency_us_.snapshot());
    }
  });
}

void ArrayController::emit_event(obs::EventLevel level, std::string message,
                                 int disk, const char* rate_key) const {
  obs::EventLog* log = events_;
  if (!log) return;
  obs::Event ev;
  ev.level = level;
  ev.category = "controller";
  ev.message = std::move(message);
  ev.disk = disk;
  if (rate_key) {
    log->emit(std::move(ev), rate_key);
  } else {
    log->emit(std::move(ev));
  }
}

void ArrayController::fail_disk(int disk) {
  if (disk < 0 || disk >= array_.disks()) {
    throw std::out_of_range("fail_disk: no such disk");
  }
  if (failed_.count(disk)) return;
  if (failed_count() >= 2) {
    throw std::runtime_error("fail_disk: fault tolerance exceeded");
  }
  failed_.insert(disk);
  recipes_valid_ = false;
  emit_event(obs::EventLevel::kWarn,
             "disk " + std::to_string(disk) +
                 " failed; recovery recipes invalidated (" +
                 std::to_string(failed_.size()) + " concurrent)",
             disk);
}

bool ArrayController::failed(int disk) const {
  return failed_.count(disk) != 0;
}

std::int64_t ArrayController::rebuild_disk(int disk) {
  if (!failed_.count(disk)) {
    throw std::invalid_argument("rebuild_disk: disk is not failed");
  }
  const int col = col_of(disk);
  const int rows = code_->rows();
  const std::size_t bs = array_.block_bytes();
  std::int64_t rebuilt = 0;
  PooledBuffer colbuf(static_cast<std::size_t>(rows) * bs);
  std::vector<CellWrite> wr;
  for (std::int64_t s = 0; s < stripes_; ++s) {
    std::lock_guard sl(stripe_lock(s));
    wr.clear();
    for (int r = 0; r < rows; ++r) {
      const Cell c{r, col};
      if (kind_[static_cast<std::size_t>(flat_of(c))] == CellKind::kVirtual) {
        continue;
      }
      const auto dst = colbuf.block(static_cast<std::size_t>(r), bs);
      reconstruct_cell(s, c, dst);
      wr.push_back({c, dst.data()});
      ++rebuilt;
    }
    write_cells(s, wr);
  }
  failed_.erase(disk);
  // The recovery recipes were solved for the old failure set.
  recipes_valid_ = false;
  emit_event(obs::EventLevel::kInfo,
             "disk " + std::to_string(disk) + " rebuilt: " +
                 std::to_string(rebuilt) + " blocks reconstructed",
             disk);
  return rebuilt;
}

Buffer ArrayController::read_stripe(std::int64_t stripe) const {
  Buffer buf(static_cast<std::size_t>(code_->cell_count()) *
             array_.block_bytes());
  read_stripe_into(stripe, buf.span());
  return buf;
}

void ArrayController::read_stripe_into(std::int64_t stripe,
                                       std::span<std::uint8_t> out) const {
  const std::size_t bs = array_.block_bytes();
  if (out.size() != static_cast<std::size_t>(code_->cell_count()) * bs) {
    throw std::invalid_argument("read_stripe_into: bad buffer size");
  }
  load_raw_stripe(array_, *code_, virtual_cols_, block_of(stripe, 0),
                  StripeView(out, rows_, cols_, bs));
}

std::vector<std::int64_t> ArrayController::scrub() {
  std::vector<std::int64_t> bad;
  const std::size_t bs = array_.block_bytes();
  PooledBuffer buf(static_cast<std::size_t>(code_->cell_count()) * bs);
  for (std::int64_t s = 0; s < stripes_; ++s) {
    std::lock_guard sl(stripe_lock(s));
    read_stripe_into(s, buf.span());
    StripeView v(buf.span(), code_->rows(), code_->cols(), bs);
    if (!code_->verify(v)) bad.push_back(s);
  }
  return bad;
}

void ArrayController::with_stripe_lock(std::int64_t stripe,
                                       const std::function<void()>& fn) const {
  std::lock_guard sl(stripe_lock(stripe));
  fn();
}

}  // namespace c56::mig
