#include "service/volume.hpp"

#include <algorithm>
#include <cstring>
#include <map>
#include <stdexcept>
#include <vector>

#include "xorblk/pool.hpp"

namespace c56::svc {

namespace {

const char* status_names[] = {"ok",          "queue_full", "no_such_volume",
                              "invalid_arg", "io_error",   "shutdown"};

/// Physical disks a code occupies: its columns minus the leading
/// all-virtual ones (same rule ArrayController enforces).
int physical_disks(const ErasureCode& code) {
  int virt = 0;
  for (int c = 0; c < code.cols(); ++c) {
    bool all_virtual = true;
    for (int r = 0; r < code.rows(); ++r) {
      if (code.kind({r, c}) != CellKind::kVirtual) {
        all_virtual = false;
        break;
      }
    }
    if (!all_virtual) break;
    ++virt;
  }
  return code.cols() - virt;
}

bool is_write(const QueuedOp& op) {
  return op.req.kind == OpKind::kWrite || op.req.kind == OpKind::kWriteRange;
}

/// True when [lo, hi) intersects any interval in `m` (start -> end).
bool intersects(const std::map<std::int64_t, std::int64_t>& m,
                std::int64_t lo, std::int64_t hi) {
  auto it = m.upper_bound(lo);  // first interval starting after lo
  if (it != m.begin() && std::prev(it)->second > lo) return true;
  return it != m.end() && it->first < hi;
}

void cover(std::map<std::int64_t, std::int64_t>& m, std::int64_t lo,
           std::int64_t hi) {
  auto [it, inserted] = m.try_emplace(lo, hi);
  if (!inserted) it->second = std::max(it->second, hi);
}

/// Per-thread executor scratch (a volume executes on its shard's
/// thread): the vectors keep their capacity between batches.
struct Scratch {
  std::vector<QueuedOp*> writes, reads, gen, sub_ops;
  std::vector<mig::ArrayController::SubWrite> subs;
};

Scratch& scratch() {
  thread_local Scratch s;
  return s;
}

/// Stable sort by logical block (same-block ops keep submission
/// order); a batch often arrives sorted already.
void sort_by_block(std::span<QueuedOp*> ops) {
  const auto key = [](const QueuedOp* o) { return o->req.logical; };
  if (!std::ranges::is_sorted(ops, {}, key)) {
    std::ranges::stable_sort(ops, {}, key);
  }
}

}  // namespace

const char* to_string(Status s) noexcept {
  const auto i = static_cast<std::size_t>(s);
  return i < std::size(status_names) ? status_names[i] : "unknown";
}

Volume::Volume(VolumeId id, const Config& cfg) : id_(id), owner_(cfg.owner) {
  auto code = make_code(cfg.code, cfg.p);
  if (cfg.stripes < 1) {
    throw std::invalid_argument("Volume: stripes must be >= 1");
  }
  if (cfg.cache_stripes != 0) {
    throw std::invalid_argument("Volume: there is no stripe cache; "
                                "cache_stripes must be 0");
  }
  array_ = std::make_unique<mig::DiskArray>(
      physical_disks(*code), cfg.stripes * code->rows(), cfg.block_bytes);
  ctrl_ = std::make_unique<mig::ArrayController>(*array_, std::move(code));
  logical_blocks_ = ctrl_->logical_blocks();
}

Volume::Volume(VolumeId id, int p, std::int64_t groups,
               std::size_t block_bytes, TenantId owner)
    : id_(id), owner_(owner) {
  if (groups < 1) throw std::invalid_argument("Volume: groups must be >= 1");
  array_ = std::make_unique<mig::DiskArray>(
      p - 1, groups * static_cast<std::int64_t>(p - 1), block_bytes);
  mig_ = std::make_unique<mig::OnlineMigrator>(*array_, p);
  logical_blocks_ = mig_->logical_blocks();
}

Status Volume::validate(const Request& r) const noexcept {
  const std::int64_t lb = logical_blocks_;
  const auto bs = static_cast<std::int64_t>(block_bytes());
  switch (r.kind) {
    case OpKind::kRead:
    case OpKind::kWrite: {
      if (r.logical < 0 || r.count < 1 || r.count > lb ||
          r.logical > lb - r.count) {
        return Status::kInvalidArgument;
      }
      const auto need = static_cast<std::uint64_t>(r.count) *
                        static_cast<std::uint64_t>(bs);
      const std::size_t have =
          r.kind == OpKind::kRead ? r.out.size() : r.in.size();
      if (have != need) return Status::kInvalidArgument;
      return Status::kOk;
    }
    case OpKind::kReadRange:
    case OpKind::kWriteRange: {
      if (r.logical < 0 || r.logical >= lb || r.offset < 0) {
        return Status::kInvalidArgument;
      }
      const auto len = static_cast<std::int64_t>(
          r.kind == OpKind::kReadRange ? r.out.size() : r.in.size());
      if (len < 1 || len > bs - r.offset) return Status::kInvalidArgument;
      return Status::kOk;
    }
  }
  return Status::kInvalidArgument;
}

template <class Fn>
Status Volume::run(bool write, Fn&& fn) {
  try {
    if (mig_) {
      return mig_->serve(write, [&fn](mig::ArrayController& c) { fn(c); })
                     .ok()
                 ? Status::kOk
                 : Status::kIoError;
    }
    fn(*ctrl_);
    return Status::kOk;
  } catch (const std::exception&) {
    return Status::kIoError;
  }
}

void Volume::execute(std::span<QueuedOp> ops) {
  Scratch& s = scratch();
  std::vector<QueuedOp*>& writes = s.writes;
  std::vector<QueuedOp*>& reads = s.reads;
  writes.clear();
  reads.clear();
  for (QueuedOp& op : ops) {
    (is_write(op) ? writes : reads).push_back(&op);
  }

  // Overlap-generation split (header comment): coalescing sorts by
  // address, so two same-block writes must never share a generation —
  // except sub-block/sub-block pairs, which the batched write_range
  // already applies in batch (= submission) order.
  std::map<std::int64_t, std::int64_t> any;    // every write interval
  std::map<std::int64_t, std::int64_t> whole;  // whole-block intervals
  std::vector<QueuedOp*>& gen = s.gen;
  gen.clear();
  for (QueuedOp* op : writes) {
    const bool whole_block = op->req.kind == OpKind::kWrite;
    const std::int64_t lo = op->req.logical;
    const std::int64_t hi = lo + (whole_block ? op->req.count : 1);
    if (whole_block ? intersects(any, lo, hi) : intersects(whole, lo, hi)) {
      run_write_generation(gen);
      gen.clear();
      any.clear();
      whole.clear();
    }
    gen.push_back(op);
    cover(any, lo, hi);
    if (whole_block) cover(whole, lo, hi);
  }
  run_write_generation(gen);
  run_reads(reads);
  for (const QueuedOp& op : ops) {
    ops_.inc();
    blocks_.inc(static_cast<std::uint64_t>(
        (op.req.kind == OpKind::kRead || op.req.kind == OpKind::kWrite)
            ? op.req.count
            : 1));
    if (op.result != Status::kOk) errors_.inc();
  }
}

void Volume::run_write_generation(std::span<QueuedOp*> gen) {
  if (gen.empty()) return;
  sort_by_block(gen);

  // Scattered singles and sub-block writes pool into one batched
  // write_range: the controller coalesces their parity RMWs per
  // stripe, so even non-adjacent blocks amortize under load.
  std::vector<mig::ArrayController::SubWrite>& subs = scratch().subs;
  std::vector<QueuedOp*>& sub_ops = scratch().sub_ops;
  const auto flush_subs = [&] {
    if (subs.empty()) return;
    const Status st = run(true, [&](mig::ArrayController& c) {
      c.write_range(std::span<const mig::ArrayController::SubWrite>(
          subs.data(), subs.size()));
    });
    for (QueuedOp* o : sub_ops) o->result = st;
    subs.clear();
    sub_ops.clear();
  };

  const std::size_t bs = block_bytes();
  std::size_t i = 0;
  while (i < gen.size()) {
    QueuedOp* op = gen[i];
    if (op->req.kind == OpKind::kWriteRange) {
      subs.push_back({op->req.logical, op->req.offset, op->req.in});
      sub_ops.push_back(op);
      ++i;
      continue;
    }
    // Whole-block write: absorb ops covering consecutive blocks into
    // one ranged planner call.
    std::size_t j = i;
    std::int64_t end = op->req.logical + op->req.count;
    std::int64_t total = op->req.count;
    while (j + 1 < gen.size() && gen[j + 1]->req.kind == OpKind::kWrite &&
           gen[j + 1]->req.logical == end) {
      ++j;
      end += gen[j]->req.count;
      total += gen[j]->req.count;
    }
    if (j == i && total == 1) {
      subs.push_back({op->req.logical, 0, op->req.in});
      sub_ops.push_back(op);
      ++i;
      continue;
    }
    Status st = Status::kOk;
    if (j == i) {
      st = run(true, [&](mig::ArrayController& c) {
        c.write(op->req.logical, total, op->req.in);
      });
    } else {
      PooledBuffer staging(static_cast<std::size_t>(total) * bs);
      std::size_t off = 0;
      for (std::size_t k = i; k <= j; ++k) {
        const auto& in = gen[k]->req.in;
        std::memcpy(staging.data() + off, in.data(), in.size());
        off += in.size();
      }
      st = run(true, [&](mig::ArrayController& c) {
        c.write(op->req.logical, total, staging.span());
        coalesced_runs_.inc();
      });
    }
    for (std::size_t k = i; k <= j; ++k) gen[k]->result = st;
    i = j + 1;
  }
  flush_subs();
}

void Volume::run_reads(std::span<QueuedOp*> reads) {
  if (reads.empty()) return;
  sort_by_block(reads);
  const std::size_t bs = block_bytes();
  std::size_t i = 0;
  while (i < reads.size()) {
    QueuedOp* op = reads[i];
    if (op->req.kind == OpKind::kReadRange) {
      op->result = run(false, [&](mig::ArrayController& c) {
        c.read_range(op->req.logical, op->req.offset, op->req.out);
      });
      ++i;
      continue;
    }
    std::size_t j = i;
    std::int64_t end = op->req.logical + op->req.count;
    std::int64_t total = op->req.count;
    while (j + 1 < reads.size() && reads[j + 1]->req.kind == OpKind::kRead &&
           reads[j + 1]->req.logical == end) {
      ++j;
      end += reads[j]->req.count;
      total += reads[j]->req.count;
    }
    Status st = Status::kOk;
    if (j == i) {
      st = run(false, [&](mig::ArrayController& c) {
        c.read(op->req.logical, total, op->req.out);
      });
    } else {
      PooledBuffer staging(static_cast<std::size_t>(total) * bs);
      st = run(false, [&](mig::ArrayController& c) {
        c.read(op->req.logical, total, staging.span());
        coalesced_runs_.inc();
      });
      std::size_t off = 0;
      for (std::size_t k = i; k <= j && st == Status::kOk; ++k) {
        auto out = reads[k]->req.out;
        std::memcpy(out.data(), staging.data() + off, out.size());
        off += out.size();
      }
    }
    for (std::size_t k = i; k <= j; ++k) reads[k]->result = st;
    i = j + 1;
  }
}

}  // namespace c56::svc
