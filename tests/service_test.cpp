// Tests of the multi-tenant block service (src/service/): submit-path
// validation and admission control, the SQ/CQ ordering contract under
// coalescing, DRR fairness, migrator-backed volumes converting
// mid-traffic, labeled metrics export, and a sharded stress run that
// mixes concurrent clients, an online conversion, and paced scrubbing
// (the TSan target: every cross-thread edge of the service in one
// test).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <deque>
#include <map>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/reqtrace.hpp"
#include "obs/trace.hpp"
#include "scrub/scrubber.hpp"
#include "service/slo.hpp"
#include "service/volume_manager.hpp"
#include "util/rng.hpp"

namespace {

using namespace c56;
using svc::OpKind;
using svc::Request;
using svc::Status;

std::vector<std::uint8_t> pattern(std::size_t n, std::uint64_t seed) {
  std::vector<std::uint8_t> v(n);
  Rng rng(seed);
  rng.fill(v.data(), n);
  return v;
}

svc::ServiceConfig manual_config(int shards, int max_batch = 256) {
  svc::ServiceConfig sc;
  sc.shards = shards;
  sc.max_batch = max_batch;
  sc.manual_pump = true;
  return sc;
}

svc::Volume::Config small_volume(std::size_t block_bytes = 512,
                                 std::int64_t stripes = 4) {
  svc::Volume::Config vc;
  vc.p = 5;
  vc.stripes = stripes;
  vc.block_bytes = block_bytes;
  return vc;
}

TEST(ServiceValidate, SynchronousRejections) {
  svc::VolumeManager mgr(manual_config(2));
  const svc::VolumeId id = mgr.create_volume(small_volume());
  const std::int64_t lb = mgr.volume(id)->logical_blocks();
  std::vector<std::uint8_t> buf(512);

  Request r;
  r.kind = OpKind::kWrite;
  r.volume = id + 7;
  r.in = {buf.data(), buf.size()};
  EXPECT_EQ(mgr.submit(r), Status::kNoSuchVolume);

  r.volume = id;
  r.tenant = -1;
  EXPECT_EQ(mgr.submit(r), Status::kInvalidArgument);
  r.tenant = svc::kMaxTenants;
  EXPECT_EQ(mgr.submit(r), Status::kInvalidArgument);
  r.tenant = 0;

  r.logical = lb;  // one past the end
  EXPECT_EQ(mgr.submit(r), Status::kInvalidArgument);
  r.logical = lb - 1;
  r.count = 2;  // runs off the end
  EXPECT_EQ(mgr.submit(r), Status::kInvalidArgument);
  r.logical = 0;
  r.count = 1;
  r.in = {buf.data(), 256};  // buffer != count * block_bytes
  EXPECT_EQ(mgr.submit(r), Status::kInvalidArgument);

  r.kind = OpKind::kWriteRange;
  r.offset = -1;
  r.in = {buf.data(), 16};
  EXPECT_EQ(mgr.submit(r), Status::kInvalidArgument);
  r.offset = 500;  // 16 bytes would cross the block end
  EXPECT_EQ(mgr.submit(r), Status::kInvalidArgument);
  r.offset = 0;
  r.in = {buf.data(), std::size_t{0}};  // empty range
  EXPECT_EQ(mgr.submit(r), Status::kInvalidArgument);

  r.kind = OpKind::kRead;
  r.out = {buf.data(), 256};  // short read buffer
  EXPECT_EQ(mgr.submit(r), Status::kInvalidArgument);

  EXPECT_EQ(mgr.inflight(), 0);  // nothing was ever queued
  mgr.stop();
  r.out = {buf.data(), buf.size()};
  EXPECT_EQ(mgr.submit(r), Status::kShutdown);
}

// Single-volume ordering + identity: whole-block writes, multi-block
// writes, sub-block writes and same-block overwrites submitted in one
// batch must land exactly as if applied synchronously in submission
// order, and read back identically through the service and through the
// controller underneath.
TEST(Service, SingleVolumeByteIdentityAcrossOpKinds) {
  svc::VolumeManager mgr(manual_config(1, 4096));
  const std::size_t bs = 1024;
  const svc::VolumeId id = mgr.create_volume(small_volume(bs, 4));
  svc::Volume* vol = mgr.volume(id);
  const std::int64_t lb = vol->logical_blocks();
  ASSERT_GE(lb, 12);

  std::vector<std::vector<std::uint8_t>> mirror(
      static_cast<std::size_t>(lb), std::vector<std::uint8_t>(bs, 0));
  std::deque<std::vector<std::uint8_t>> payloads;  // stable addresses
  std::atomic<int> completed{0};
  auto on_done = [&completed](const svc::Completion& c) {
    EXPECT_EQ(c.status, Status::kOk);
    completed.fetch_add(1);
  };

  auto submit_write = [&](std::int64_t l, std::int64_t count,
                          std::uint64_t seed) {
    payloads.push_back(pattern(static_cast<std::size_t>(count) * bs, seed));
    Request r;
    r.kind = OpKind::kWrite;
    r.volume = id;
    r.logical = l;
    r.count = count;
    r.in = {payloads.back().data(), payloads.back().size()};
    r.on_complete = on_done;
    ASSERT_EQ(mgr.submit(r), Status::kOk);
    for (std::int64_t b = 0; b < count; ++b) {
      std::memcpy(mirror[static_cast<std::size_t>(l + b)].data(),
                  payloads.back().data() + static_cast<std::size_t>(b) * bs,
                  bs);
    }
  };
  auto submit_range = [&](std::int64_t l, std::int64_t off, std::size_t len,
                          std::uint64_t seed) {
    payloads.push_back(pattern(len, seed));
    Request r;
    r.kind = OpKind::kWriteRange;
    r.volume = id;
    r.logical = l;
    r.offset = off;
    r.in = {payloads.back().data(), len};
    r.on_complete = on_done;
    ASSERT_EQ(mgr.submit(r), Status::kOk);
    std::memcpy(mirror[static_cast<std::size_t>(l)].data() + off,
                payloads.back().data(), len);
  };

  // One queued batch exercising every coalescing corner: adjacent
  // singles, a multi-block run, same-block overwrites (whole/whole,
  // whole/sub, sub/sub), and a scattered tail.
  submit_write(0, 1, 1);
  submit_write(1, 1, 2);            // adjacent: fuses with block 0
  submit_write(2, 4, 3);            // multi-block run [2,6)
  submit_write(3, 1, 4);            // overwrites inside the run
  submit_range(3, 100, 64, 5);      // then a sub-block on top
  submit_range(3, 132, 64, 6);      // overlapping sub-block (later wins)
  submit_write(8, 1, 7);
  submit_write(10, 2, 8);           // scattered tail [10,12)
  submit_write(10, 1, 9);           // overwrite head of the tail
  mgr.drain();
  EXPECT_EQ(completed.load(), 9);

  // Read back through the service (single + ranged + sub-block reads).
  std::vector<std::uint8_t> got(bs);
  for (std::int64_t l = 0; l < lb; ++l) {
    Request r;
    r.kind = OpKind::kRead;
    r.volume = id;
    r.logical = l;
    r.out = {got.data(), bs};
    ASSERT_EQ(mgr.submit(r), Status::kOk);
    mgr.drain();
    EXPECT_EQ(got, mirror[static_cast<std::size_t>(l)]) << "block " << l;
  }
  std::vector<std::uint8_t> part(64);
  Request r;
  r.kind = OpKind::kReadRange;
  r.volume = id;
  r.logical = 3;
  r.offset = 100;
  r.out = {part.data(), part.size()};
  ASSERT_EQ(mgr.submit(r), Status::kOk);
  mgr.drain();
  EXPECT_TRUE(std::memcmp(part.data(), mirror[3].data() + 100, 64) == 0);

  // And the controller underneath agrees byte for byte.
  for (std::int64_t l = 0; l < lb; ++l) {
    vol->controller()->read(l, {got.data(), bs});
    EXPECT_EQ(got, mirror[static_cast<std::size_t>(l)]) << "block " << l;
  }
}

// The same sequential write load replayed at max_batch=1 and at a deep
// batch must produce identical bytes but strictly fewer device write
// runs when batched (the queue-depth-aware coalescing win).
TEST(Service, DeepBatchesCoalesceWrites) {
  auto run = [&](int max_batch) {
    svc::VolumeManager mgr(manual_config(1, max_batch));
    const svc::VolumeId id = mgr.create_volume(small_volume(512, 8));
    svc::Volume* vol = mgr.volume(id);
    const std::int64_t lb = vol->logical_blocks();
    std::deque<std::vector<std::uint8_t>> payloads;
    for (std::int64_t l = 0; l < lb; ++l) {
      payloads.push_back(pattern(512, 0x5000 + static_cast<std::uint64_t>(l)));
      Request r;
      r.kind = OpKind::kWrite;
      r.volume = id;
      r.logical = l;
      r.in = {payloads.back().data(), payloads.back().size()};
      EXPECT_EQ(mgr.submit(r), Status::kOk);
    }
    mgr.drain();
    const std::uint64_t runs = vol->array().total_write_runs() +
                               vol->array().total_read_runs();
    std::vector<std::uint8_t> got(512);
    for (std::int64_t l = 0; l < lb; ++l) {
      vol->controller()->read(l, {got.data(), got.size()});
      EXPECT_EQ(got, payloads[static_cast<std::size_t>(l)]) << "block " << l;
    }
    return runs;
  };
  const std::uint64_t runs_unbatched = run(1);
  const std::uint64_t runs_batched = run(4096);
  EXPECT_LE(runs_batched * 2, runs_unbatched)
      << "deep batches should at least halve device runs";
}

// DRR: a tenant flooding the shard cannot starve a trickling tenant —
// the trickle's single op completes within the first drained batch.
TEST(Service, DrrServesTrickleTenantUnderFlood) {
  svc::ServiceConfig sc = manual_config(1, 8);
  sc.quantum_blocks = 4;
  svc::VolumeManager mgr(sc);
  const svc::VolumeId id = mgr.create_volume(small_volume());
  std::vector<std::uint8_t> buf(512, 0xAB);

  std::vector<svc::TenantId> completion_order;  // pump runs on this thread
  auto submit = [&](svc::TenantId tenant, std::int64_t l) {
    Request r;
    r.kind = OpKind::kWrite;
    r.volume = id;
    r.tenant = tenant;
    r.logical = l;
    r.in = {buf.data(), buf.size()};
    r.on_complete = [&completion_order, tenant](const svc::Completion& c) {
      EXPECT_EQ(c.status, Status::kOk);
      completion_order.push_back(tenant);
    };
    ASSERT_EQ(mgr.submit(r), Status::kOk);
  };
  for (std::int64_t i = 0; i < 32; ++i) submit(0, i % 8);  // the flood
  submit(1, 9);                                            // the trickle

  ASSERT_GT(mgr.pump_all(), 0u);  // one drained batch (max_batch = 8)
  ASSERT_LE(completion_order.size(), 8u);
  EXPECT_TRUE(std::find(completion_order.begin(), completion_order.end(),
                        svc::TenantId{1}) != completion_order.end())
      << "trickle tenant not served in the first DRR round";
  mgr.drain();
  EXPECT_EQ(completion_order.size(), 33u);
}

TEST(Service, TenantBudgetBackpressure) {
  svc::ServiceConfig sc = manual_config(1);
  sc.tenant_inflight = 4;
  svc::VolumeManager mgr(sc);
  const svc::VolumeId id = mgr.create_volume(small_volume());
  std::vector<std::uint8_t> buf(512, 1);
  Request r;
  r.kind = OpKind::kWrite;
  r.volume = id;
  r.in = {buf.data(), buf.size()};
  for (int i = 0; i < 4; ++i) {
    r.logical = i;
    EXPECT_EQ(mgr.submit(r), Status::kOk);
  }
  r.logical = 4;
  EXPECT_EQ(mgr.submit(r), Status::kQueueFull);  // budget exhausted
  r.tenant = 1;  // another tenant is unaffected
  EXPECT_EQ(mgr.submit(r), Status::kOk);
  mgr.drain();
  r.tenant = 0;  // completions restored the budget
  EXPECT_EQ(mgr.submit(r), Status::kOk);
  mgr.drain();
}

TEST(Service, ShardQueueCapBackpressure) {
  svc::ServiceConfig sc = manual_config(1);
  sc.shard_queue_cap = 2;
  svc::VolumeManager mgr(sc);
  const svc::VolumeId id = mgr.create_volume(small_volume());
  std::vector<std::uint8_t> buf(512, 2);
  Request r;
  r.kind = OpKind::kWrite;
  r.volume = id;
  r.in = {buf.data(), buf.size()};
  r.logical = 0;
  EXPECT_EQ(mgr.submit(r), Status::kOk);
  r.tenant = 1;  // SQ cap spans tenants
  EXPECT_EQ(mgr.submit(r), Status::kOk);
  r.tenant = 2;
  EXPECT_EQ(mgr.submit(r), Status::kQueueFull);
  mgr.drain();
  EXPECT_EQ(mgr.submit(r), Status::kOk);
  mgr.drain();
  EXPECT_EQ(mgr.inflight(), 0);
}

// Threaded end-to-end: tight budgets force kQueueFull rejections; the
// resubmit loop still lands every write, in order, per tenant.
TEST(Service, ThreadedBackpressureRetriesComplete) {
  svc::ServiceConfig sc;
  sc.shards = 2;
  sc.tenant_inflight = 8;
  sc.shard_queue_cap = 16;
  svc::VolumeManager mgr(sc);
  const svc::VolumeId id = mgr.create_volume(small_volume(512, 8));
  svc::Volume* vol = mgr.volume(id);
  const std::int64_t lb = vol->logical_blocks();

  constexpr int kTenants = 4;
  constexpr int kWrites = 500;
  std::deque<std::vector<std::uint8_t>> payloads;
  std::map<std::int64_t, const std::vector<std::uint8_t>*> expect;
  std::atomic<int> completed{0};
  for (int i = 0; i < kWrites; ++i) {
    // Block ownership follows the tenant, so same-block overwrites
    // share a tenant and the FIFO contract fixes their order.
    const auto tenant = static_cast<svc::TenantId>(i % kTenants);
    const std::int64_t l = (i * kTenants + tenant) % lb;
    payloads.push_back(pattern(512, 0x7000 + static_cast<std::uint64_t>(i)));
    expect[l] = &payloads.back();
    Request r;
    r.kind = OpKind::kWrite;
    r.volume = id;
    r.tenant = tenant;
    r.logical = l;
    r.in = {payloads.back().data(), payloads.back().size()};
    r.on_complete = [&completed](const svc::Completion& c) {
      EXPECT_EQ(c.status, Status::kOk);
      completed.fetch_add(1);
    };
    for (;;) {
      const Status s = mgr.submit(r);
      if (s == Status::kOk) break;
      ASSERT_EQ(s, Status::kQueueFull);
      std::this_thread::yield();
    }
  }
  mgr.drain();
  EXPECT_EQ(completed.load(), kWrites);
  std::vector<std::uint8_t> got(512);
  for (const auto& [l, want] : expect) {
    vol->controller()->read(l, {got.data(), got.size()});
    EXPECT_EQ(got, *want) << "block " << l;
  }
}

// A migrator-backed volume serves service I/O while its RAID-5 ->
// Code 5-6 conversion starts mid-traffic and runs to completion.
TEST(Service, MigratorVolumeConvertsMidTraffic) {
  svc::ServiceConfig sc;
  sc.shards = 2;
  svc::VolumeManager mgr(sc);
  const svc::VolumeId id = mgr.create_raid5_volume(5, 6, 512);
  svc::Volume* vol = mgr.volume(id);
  mig::OnlineMigrator* mig = vol->migrator();
  ASSERT_NE(mig, nullptr);
  const std::int64_t lb = vol->logical_blocks();

  std::deque<std::vector<std::uint8_t>> payloads;
  std::vector<std::vector<std::uint8_t>> mirror(
      static_cast<std::size_t>(lb), std::vector<std::uint8_t>(512, 0));
  std::atomic<int> completed{0};
  auto write_block = [&](std::int64_t l, std::uint64_t seed) {
    payloads.push_back(pattern(512, seed));
    std::memcpy(mirror[static_cast<std::size_t>(l)].data(),
                payloads.back().data(), 512);
    Request r;
    r.kind = OpKind::kWrite;
    r.volume = id;
    r.logical = l;
    r.in = {payloads.back().data(), payloads.back().size()};
    r.on_complete = [&completed](const svc::Completion& c) {
      EXPECT_EQ(c.status, Status::kOk);
      completed.fetch_add(1);
    };
    for (;;) {
      const Status s = mgr.submit(r);
      if (s == Status::kOk) break;
      ASSERT_EQ(s, Status::kQueueFull);
      std::this_thread::yield();
    }
  };

  int ops = 0;
  for (std::int64_t l = 0; l < lb; ++l) {
    write_block(l, 0x9000 + static_cast<std::uint64_t>(l));
    ++ops;
    if (l == lb / 2) {  // start the conversion with writes in flight
      mig->set_workers(2);
      mig->start();
    }
  }
  // A second overwrite wave rides the running conversion.
  for (std::int64_t l = 0; l < lb; l += 3) {
    write_block(l, 0xA000 + static_cast<std::uint64_t>(l));
    ++ops;
  }
  mgr.drain();
  EXPECT_EQ(completed.load(), ops);
  mig->finish();
  EXPECT_EQ(mig->state(), mig::MigrationState::kDone);
  EXPECT_TRUE(mig->verify_raid6());

  // Post-conversion reads through the service match the mirror.
  std::vector<std::uint8_t> got(512);
  for (std::int64_t l = 0; l < lb; ++l) {
    Request r;
    r.kind = OpKind::kRead;
    r.volume = id;
    r.logical = l;
    r.out = {got.data(), got.size()};
    ASSERT_EQ(mgr.submit(r), Status::kOk);
    mgr.drain();
    EXPECT_EQ(got, mirror[static_cast<std::size_t>(l)]) << "block " << l;
  }
}

// One batch covering a whole stripe group of a pre-start migrator
// volume runs as one ranged write on the migrator's controller: a
// full-stripe write whose diagonal column is absent, so it pre-reads
// nothing and writes each data and horizontal-parity block once.
TEST(Service, MigratorVolumeBatchWritesAGroupWithoutPreReads) {
  for (const int p : {5, 7}) {
    SCOPED_TRACE("p=" + std::to_string(p));
    svc::VolumeManager mgr(manual_config(1, 4096));
    const svc::VolumeId id = mgr.create_raid5_volume(p, 2, 512);
    svc::Volume* vol = mgr.volume(id);
    const std::int64_t per_group = static_cast<std::int64_t>(p - 1) * (p - 2);
    std::deque<std::vector<std::uint8_t>> payloads;
    for (std::int64_t l = 0; l < per_group; ++l) {
      payloads.push_back(pattern(512, 0x7000 + static_cast<std::uint64_t>(l)));
      Request r;
      r.kind = OpKind::kWrite;
      r.volume = id;
      r.logical = l;
      r.in = {payloads.back().data(), payloads.back().size()};
      ASSERT_EQ(mgr.submit(r), Status::kOk);
    }
    const std::uint64_t r0 = vol->array().total_reads();
    const std::uint64_t w0 = vol->array().total_writes();
    mgr.drain();
    EXPECT_EQ(vol->array().total_reads() - r0, 0u);
    EXPECT_EQ(vol->array().total_writes() - w0,
              static_cast<std::uint64_t>((p - 1) * (p - 1)));
    EXPECT_EQ(vol->coalesced_runs(), 1u);
    std::vector<std::uint8_t> got(512);
    for (std::int64_t l = 0; l < per_group; ++l) {
      ASSERT_TRUE(vol->migrator()->read_block(l, got).ok());
      EXPECT_EQ(got, payloads[static_cast<std::size_t>(l)]) << "block " << l;
    }
  }
}

TEST(Service, MetricsExportCarriesVolumeTenantShardLabels) {
  obs::Registry reg;  // outlives the manager: volume collectors detach
                      // from the subsystems' destructors
  svc::VolumeManager mgr(manual_config(2));
  const svc::VolumeId v0 = mgr.create_volume(small_volume());
  const svc::VolumeId v1 = mgr.create_volume(small_volume());
  mgr.attach_metrics(reg);
  mgr.attach_volume_metrics(reg);

  std::vector<std::uint8_t> buf(512, 3);
  Request r;
  r.kind = OpKind::kWrite;
  r.tenant = 3;
  r.in = {buf.data(), buf.size()};
  r.volume = v0;
  ASSERT_EQ(mgr.submit(r), Status::kOk);
  r.volume = v1;
  ASSERT_EQ(mgr.submit(r), Status::kOk);
  mgr.drain();

  const obs::Snapshot snap = reg.snapshot();
  const auto* submitted = snap.find("service_submitted");
  ASSERT_NE(submitted, nullptr);
  EXPECT_EQ(submitted->counter, 2u);
  const auto* completed = snap.find("service_completed");
  ASSERT_NE(completed, nullptr);
  EXPECT_EQ(completed->counter, 2u);
  for (const char* name :
       {"service_ops{volume=\"0\"}", "service_ops{volume=\"1\"}",
        "service_tenant_completed{tenant=\"3\"}",
        "service_queued{shard=\"0\"}", "service_queued{shard=\"1\"}",
        "disk_array_writes_total{volume=\"0\"}",
        "disk_array_writes{disk=\"0\",volume=\"1\"}",
        "controller_rmw_parities{volume=\"0\"}"}) {
    EXPECT_NE(snap.find(name), nullptr) << name;
  }
  const auto* ops0 = snap.find("service_ops{volume=\"0\"}");
  EXPECT_EQ(ops0->counter, 1u);
  const auto* t3 = snap.find("service_tenant_completed{tenant=\"3\"}");
  EXPECT_EQ(t3->counter, 2u);
  EXPECT_EQ(snap.find("service_tenant_completed{tenant=\"2\"}"), nullptr)
      << "never-seen tenants must stay out of the export";
  mgr.detach_metrics();
}

// The TSan stress: 8 shards x 16 volumes (one migrator-backed),
// concurrent clients with disjoint block ownership, a conversion
// starting mid-flight, and paced scrub passes riding both coordination
// gates — then byte identity against each client's flat mirror at
// quiesce.
TEST(ServiceStress, ShardsVolumesMigrationScrubQuiesceIdentical) {
  constexpr int kClients = 4;
  constexpr int kVolumes = 16;
  constexpr int kOpsPerClient = 300;
  constexpr std::size_t kBlock = 256;

  svc::ServiceConfig sc;
  sc.shards = 8;
  sc.max_batch = 64;
  sc.tenant_inflight = 64;
  sc.shard_queue_cap = 1 << 12;
  svc::VolumeManager mgr(sc);
  for (int v = 0; v < kVolumes - 1; ++v) {
    mgr.create_volume(small_volume(kBlock, 2));
  }
  const svc::VolumeId mig_id = mgr.create_raid5_volume(5, 4, kBlock);
  mig::OnlineMigrator* mig = mgr.volume(mig_id)->migrator();

  std::vector<std::int64_t> volume_blocks(kVolumes);
  for (int v = 0; v < kVolumes; ++v) {
    volume_blocks[v] = mgr.volume(v)->logical_blocks();
  }

  // Client c owns blocks with block % kClients == c on every volume, so
  // every same-block write pair shares a tenant and the FIFO contract
  // pins its order. Mirrors are per-client and only merged after join.
  struct Client {
    std::map<std::pair<int, std::int64_t>, std::vector<std::uint8_t>> mirror;
    std::deque<std::vector<std::uint8_t>> buffers;
    std::atomic<std::uint64_t> failures{0};
  };
  std::vector<Client> clients(kClients);

  auto client_body = [&](int c) {
    Client& me = clients[static_cast<std::size_t>(c)];
    Rng rng(0xC56'57E55 + static_cast<std::uint64_t>(c));
    for (int i = 0; i < kOpsPerClient; ++i) {
      const int v = static_cast<int>(rng.next_below(kVolumes));
      const std::int64_t owned = volume_blocks[v] / kClients;
      if (owned == 0) continue;
      const std::int64_t l =
          static_cast<std::int64_t>(rng.next_below(
              static_cast<std::uint64_t>(owned))) *
              kClients +
          c;
      Request r;
      r.volume = v;
      r.tenant = static_cast<svc::TenantId>(c);
      r.logical = l;
      auto& image = me.mirror.try_emplace({v, l},
                                          std::vector<std::uint8_t>(kBlock, 0))
                        .first->second;
      const double dice = rng.next_double();
      if (dice < 0.6) {  // whole-block write
        me.buffers.push_back(pattern(
            kBlock, (static_cast<std::uint64_t>(c) << 32) ^
                        static_cast<std::uint64_t>(i)));
        r.kind = OpKind::kWrite;
        r.in = {me.buffers.back().data(), kBlock};
        image = me.buffers.back();
      } else if (dice < 0.85) {  // sub-block write
        const std::size_t len = 32 + rng.next_below(64);
        const std::int64_t off = static_cast<std::int64_t>(
            rng.next_below(kBlock - len + 1));
        me.buffers.push_back(pattern(
            len, (static_cast<std::uint64_t>(c) << 40) ^
                     static_cast<std::uint64_t>(i)));
        r.kind = OpKind::kWriteRange;
        r.offset = off;
        r.in = {me.buffers.back().data(), len};
        std::memcpy(image.data() + off, me.buffers.back().data(), len);
      } else {  // read (content checked only at quiesce)
        me.buffers.emplace_back(kBlock);
        r.kind = OpKind::kRead;
        r.out = {me.buffers.back().data(), kBlock};
      }
      r.on_complete = [&me](const svc::Completion& done) {
        if (done.status != Status::kOk) me.failures.fetch_add(1);
      };
      for (;;) {
        const Status s = mgr.submit(r);
        if (s == Status::kOk) break;
        if (s != Status::kQueueFull) {
          me.failures.fetch_add(1);
          break;
        }
        std::this_thread::yield();
      }
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c) threads.emplace_back(client_body, c);

  // Mid-flight: start the conversion, then ride both scrub gates while
  // the clients keep submitting.
  mig->set_workers(2);
  mig->start();
  {
    svc::Volume* v0 = mgr.volume(0);
    scrub::Scrubber ctrl_scrub(v0->array(), *v0->controller());
    ctrl_scrub.set_rate(5000);
    scrub::Scrubber mig_scrub(mgr.volume(mig_id)->array(), *mig);
    mig_scrub.set_rate(5000);
    for (int pass = 0; pass < 2; ++pass) {
      const scrub::PassReport cr = ctrl_scrub.run_pass();
      EXPECT_EQ(cr.located, 0) << "no corruption was planted";
      const scrub::PassReport mr = mig_scrub.run_pass();
      EXPECT_EQ(mr.located, 0);
    }
  }

  for (auto& t : threads) t.join();
  mgr.drain();
  mig->finish();
  EXPECT_EQ(mig->state(), mig::MigrationState::kDone);
  EXPECT_TRUE(mig->verify_raid6());
  mgr.stop();

  // Quiesced byte identity: every client's flat mirror against direct
  // reads underneath the service.
  std::vector<std::uint8_t> got(kBlock);
  for (const Client& me : clients) {
    EXPECT_EQ(me.failures.load(), 0u);
    for (const auto& [key, want] : me.mirror) {
      const auto& [v, l] = key;
      svc::Volume* vol = mgr.volume(v);
      if (vol->controller()) {
        vol->controller()->read(l, {got.data(), kBlock});
      } else {
        ASSERT_TRUE(vol->migrator()->read_block(l, {got.data(), kBlock}).ok());
      }
      EXPECT_EQ(got, want) << "volume " << v << " block " << l;
    }
  }
}

/// Arms metrics + request tracing (optionally span recording) for one
/// test and restores the disarmed default on exit, clearing the global
/// exemplar ring and trace recorder both ways.
class ReqTraceArmed {
 public:
  explicit ReqTraceArmed(bool spans = false) {
    obs::SlowRequestRing::global().clear();
    obs::TraceRecorder::global().clear();
    obs::set_metrics_enabled(true);
    obs::set_req_trace_enabled(true);
    if (spans) obs::set_trace_enabled(true);
  }
  ~ReqTraceArmed() {
    obs::set_trace_enabled(false);
    obs::set_req_trace_enabled(false);
    obs::set_metrics_enabled(false);
    obs::SlowRequestRing::global().clear();
    obs::TraceRecorder::global().clear();
  }
};

// The tracing acceptance test: under an 8-shard mixed read/write load
// from concurrent clients, the six per-stage latency histograms must
// decompose the end-to-end latency — their sums reconcile against the
// per-tenant end-to-end sums within 5% (they telescope exactly by
// construction; the slack absorbs clock truncation).
TEST(ServiceTrace, StageDecompositionSumsMatchEndToEnd) {
  constexpr int kClients = 4;
  constexpr int kVolumes = 16;
  constexpr int kOpsPerClient = 300;
  constexpr std::size_t kBlock = 256;

  ReqTraceArmed armed;
  obs::Registry reg;
  svc::ServiceConfig sc;
  sc.shards = 8;
  sc.max_batch = 64;
  sc.tenant_inflight = 64;
  svc::VolumeManager mgr(sc);
  for (int v = 0; v < kVolumes; ++v) mgr.create_volume(small_volume(kBlock, 2));
  mgr.attach_metrics(reg);

  std::atomic<std::uint64_t> failures{0};
  auto client_body = [&](int c) {
    Rng rng(0x5106E5 + static_cast<std::uint64_t>(c));
    // Buffers back in-flight requests, so they may only die after every
    // completion of this client has run.
    std::deque<std::vector<std::uint8_t>> buffers;
    std::atomic<int> pending{0};
    for (int i = 0; i < kOpsPerClient; ++i) {
      Request r;
      r.volume = static_cast<svc::VolumeId>(rng.next_below(kVolumes));
      r.tenant = static_cast<svc::TenantId>(c);
      r.logical = static_cast<std::int64_t>(rng.next_below(4));
      if (rng.next_double() < 0.5) {
        buffers.push_back(pattern(kBlock, rng.next_u64()));
        r.kind = OpKind::kWrite;
        r.in = {buffers.back().data(), kBlock};
      } else {
        buffers.emplace_back(kBlock);
        r.kind = OpKind::kRead;
        r.out = {buffers.back().data(), kBlock};
      }
      pending.fetch_add(1);
      r.on_complete = [&](const svc::Completion& done) {
        if (done.status != Status::kOk) failures.fetch_add(1);
        pending.fetch_sub(1);
      };
      for (;;) {
        const Status s = mgr.submit(r);
        if (s == Status::kOk) break;  // pending drops in the callback
        if (s != Status::kQueueFull) {
          failures.fetch_add(1);
          pending.fetch_sub(1);
          break;
        }
        std::this_thread::yield();  // rejected: nothing queued, retry
      }
    }
    while (pending.load() != 0) std::this_thread::yield();
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) threads.emplace_back(client_body, c);
  for (auto& t : threads) t.join();
  mgr.drain();
  EXPECT_EQ(failures.load(), 0u);

  const obs::Snapshot snap = reg.snapshot();
  std::uint64_t stage_sum = 0;
  std::uint64_t stage_count = 0;
  for (int s = 0; s < obs::kStageCount; ++s) {
    const std::string name =
        std::string("service_stage_") + obs::stage_name(s) + "_us";
    const auto* m = snap.find(name);
    ASSERT_NE(m, nullptr) << name;
    stage_sum += m->hist.sum;
    if (s == 0) stage_count = m->hist.count;
    EXPECT_EQ(m->hist.count, stage_count) << name;
  }
  std::uint64_t e2e_sum = 0;
  std::uint64_t e2e_count = 0;
  for (int c = 0; c < kClients; ++c) {
    const std::string name =
        "service_latency_us{tenant=\"" + std::to_string(c) + "\"}";
    const auto* m = snap.find(name);
    ASSERT_NE(m, nullptr) << name;
    e2e_sum += m->hist.sum;
    e2e_count += m->hist.count;
  }
  EXPECT_EQ(e2e_count, static_cast<std::uint64_t>(kClients) * kOpsPerClient);
  EXPECT_EQ(stage_count, e2e_count);
  ASSERT_GT(e2e_sum, 0u);
  EXPECT_NEAR(static_cast<double>(stage_sum), static_cast<double>(e2e_sum),
              0.05 * static_cast<double>(e2e_sum));

  // The same decomposition also reaches each tenant's labeled stage
  // histograms and the tail-exemplar ring.
  const auto* t0 = snap.find("service_stage_device_us{tenant=\"0\"}");
  ASSERT_NE(t0, nullptr);
  EXPECT_EQ(t0->hist.count, static_cast<std::uint64_t>(kOpsPerClient));
  EXPECT_EQ(obs::SlowRequestRing::global().considered(), e2e_count);
}

// The completion path must feed the tail ring and, when span recording
// is armed too, emit a full request span tree whose stage children
// reconcile against the exemplar's stage breakdown.
TEST(ServiceTrace, SlowRingAndRequestSpanTreesCaptured) {
  ReqTraceArmed armed(/*spans=*/true);
  svc::VolumeManager mgr(manual_config(2));
  const svc::VolumeId v0 = mgr.create_volume(small_volume());
  std::vector<std::uint8_t> buf(512, 7);
  for (int i = 0; i < 8; ++i) {
    Request r;
    r.kind = OpKind::kWrite;
    r.volume = v0;
    r.tenant = 5;
    r.logical = i % 4;
    r.in = {buf.data(), buf.size()};
    ASSERT_EQ(mgr.submit(r), Status::kOk);
  }
  mgr.drain();

  const auto slow = obs::SlowRequestRing::global().snapshot();
  ASSERT_FALSE(slow.empty());
  EXPECT_LE(slow.size(), obs::SlowRequestRing::global().capacity());
  for (const obs::SlowRequest& r : slow) {
    EXPECT_NE(r.trace_id, 0u);
    EXPECT_EQ(r.tenant, 5);
    EXPECT_EQ(r.volume, v0);
    EXPECT_EQ(r.op, 1);  // write
    std::uint64_t sum = 0;
    for (int s = 0; s < obs::kStageCount; ++s) sum += r.stage_us[s];
    EXPECT_EQ(sum, r.latency_us);  // exact telescoping
  }

  const std::vector<obs::TraceSpan> spans =
      obs::TraceRecorder::global().snapshot();
  std::size_t roots = 0, children = 0;
  for (const obs::TraceSpan& s : spans) {
    if (s.name == "request") {
      ++roots;
      EXPECT_EQ(s.parent_id, 0u);
      EXPECT_EQ(s.tenant, 5);
      EXPECT_EQ(s.bytes, 512);
    } else if (s.parent_id != 0) {
      ++children;
      const auto parent = std::find_if(
          spans.begin(), spans.end(), [&](const obs::TraceSpan& p) {
            return p.span_id == s.parent_id;
          });
      ASSERT_NE(parent, spans.end()) << "child " << s.name << " orphaned";
      EXPECT_EQ(parent->trace_id, s.trace_id);
      EXPECT_EQ(parent->name, "request");
    }
  }
  EXPECT_EQ(roots, 8u);
  EXPECT_EQ(children, roots * obs::kStageCount);
}

// SLO tracker: an unreachable 1us target flags (almost) every request
// as a violation and burns budget at ~100x with the default 0.99
// objective; a 60s target burns nothing. Quiet intervals burn nothing.
TEST(ServiceSlo, BurnRateSeparatesTightAndLooseTargets) {
  constexpr int kOps = 50;
  ReqTraceArmed armed;
  obs::Registry reg;
  svc::VolumeManager mgr(manual_config(2));
  const svc::VolumeId v0 = mgr.create_volume(small_volume());

  svc::SloConfig tight_cfg;
  tight_cfg.target_p99_us = 1;
  svc::SloTracker tight(mgr, tight_cfg);
  svc::SloConfig loose_cfg;
  loose_cfg.target_p99_us = 60'000'000;
  svc::SloTracker loose(mgr, loose_cfg);
  tight.attach_metrics(reg);

  std::vector<std::uint8_t> buf(512, 9);
  for (int i = 0; i < kOps; ++i) {
    Request r;
    r.kind = OpKind::kWrite;
    r.volume = v0;
    r.tenant = 2;
    r.in = {buf.data(), buf.size()};
    ASSERT_EQ(mgr.submit(r), Status::kOk);
  }
  mgr.drain();

  tight.update();
  loose.update();
  const auto tight_snap = tight.snapshot();
  ASSERT_EQ(tight_snap.size(), 1u);
  const auto& ts = tight_snap[0];
  EXPECT_EQ(ts.tenant, 2);
  EXPECT_EQ(ts.interval_count, static_cast<std::uint64_t>(kOps));
  EXPECT_EQ(ts.total_count, static_cast<std::uint64_t>(kOps));
  EXPECT_GT(ts.violation_frac, 0.5);
  EXPECT_NEAR(ts.burn_rate, ts.violation_frac * 100.0, 1e-9);
  EXPECT_GT(ts.interval_p99_us, 1.0);

  const auto loose_snap = loose.snapshot();
  ASSERT_EQ(loose_snap.size(), 1u);
  EXPECT_EQ(loose_snap[0].violation_frac, 0.0);
  EXPECT_EQ(loose_snap[0].burn_rate, 0.0);
  EXPECT_EQ(loose_snap[0].total_count, static_cast<std::uint64_t>(kOps));

  // Quiet interval: counts stick, burn goes to zero.
  tight.update();
  const auto quiet = tight.snapshot();
  ASSERT_EQ(quiet.size(), 1u);
  EXPECT_EQ(quiet[0].interval_count, 0u);
  EXPECT_EQ(quiet[0].burn_rate, 0.0);
  EXPECT_EQ(quiet[0].total_count, static_cast<std::uint64_t>(kOps));

  const obs::Snapshot snap = reg.snapshot();
  const auto* target = snap.find("service_slo_target_us");
  ASSERT_NE(target, nullptr);
  EXPECT_EQ(target->gauge, 1);
  const auto* requests = snap.find("service_slo_requests{tenant=\"2\"}");
  ASSERT_NE(requests, nullptr);
  EXPECT_EQ(requests->counter, static_cast<std::uint64_t>(kOps));
  EXPECT_NE(snap.find("service_slo_burn_x1000{tenant=\"2\"}"), nullptr);
  tight.detach_metrics();
}

}  // namespace
