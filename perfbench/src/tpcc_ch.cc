// Workload `tpcc_ch`: TPC-C transactions with CH-Q1 analytics on the
// sharded front.
//
// Three warehouses on a 3-shard ShardedLaserDB, one warehouse per shard, so
// remote payments and remote order lines commit through two-phase commit.
// Three warehouse threads run the NewOrder/Payment/OrderStatus mix; one analytic
// thread runs CH-Q1 rounds back to back: per delivery status, a pushdown
// scan of order_line folded by AggregateAll, whose newest ticket feeds the
// freshness probe. The loaded tables are about 1 MB and fit in the cache.
//
// WAL policy: kSyncEveryGroup, so every commit waits for a WAL fsync of its
// group, and cross-shard transactions also fsync their prepares and the
// txn.log commit record. Each fsync costs the counting Env's fixed
// kModelledSync, not the host disk's latency.

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <memory>

#include "laser/sharded_laser_db.h"
#include "olap_loop.h"
#include "trial.h"
#include "util/random.h"
#include "workload/tpcc.h"

namespace perfbench {
namespace {

using laser::Status;
namespace tpcc = laser::tpcc;

constexpr int kWarehouses = 3;
constexpr int kShards = 3;
constexpr uint64_t kTxnsPerWarehouse = 1000;
constexpr uint64_t kProbeTxns = 200;
constexpr laser::WalSyncPolicy kPolicy = laser::WalSyncPolicy::kSyncEveryGroup;

tpcc::TpccSpec Spec(uint64_t seed) {
  tpcc::TpccSpec spec;
  spec.warehouses = kWarehouses;
  spec.customers = 100;  // with 3000 items: ~1 MB of loaded tables
  spec.items = 3000;
  spec.max_new_orders = kTxnsPerWarehouse * kWarehouses + 16;
  spec.seed = seed;
  return spec;
}

/// CH-Q1 through the public scan API (the same scans TpccDriver::RunQ1
/// runs), so the open and the drain of each scan can be timed apart. Adds
/// the rows folded to `rows` and returns the newest ticket seen.
Status ChQ1Round(laser::ShardedLaserDB* db, uint64_t* rows,
                 uint64_t* max_ticket) {
  const laser::ColumnSet projection = {tpcc::kColTable, tpcc::kColStatus,
                                       tpcc::kColTicket, tpcc::kColAmount,
                                       tpcc::kColQuantity};
  *max_ticket = 0;
  for (int status = 0; status < tpcc::kNumStatuses; ++status) {
    laser::ScanSpec spec;
    spec.predicates.push_back(
        {tpcc::kColTable, laser::PredOp::kEq,
         static_cast<uint64_t>(tpcc::Table::kOrderLine), 0});
    spec.predicates.push_back({tpcc::kColStatus, laser::PredOp::kEq,
                               static_cast<uint64_t>(status), 0});
    laser::ScanAggregates aggs;
    LASER_RETURN_IF_ERROR(TimedAggregate(
        [&] { return db->NewScan(0, UINT64_MAX, projection, spec); }, &aggs));
    *rows += aggs.rows;
    if (aggs.counts[2] > 0) *max_ticket = std::max(*max_ticket, aggs.maxima[2]);
  }
  return Status::OK();
}

}  // namespace

WorkloadInfo TpccInfo() {
  char counts[256];
  snprintf(counts, sizeof(counts),
           "per trial %d warehouse threads x %" PRIu64
           " txns (45%% NewOrder, 43%% Payment, 12%% OrderStatus)",
           kWarehouses, kTxnsPerWarehouse);
  const laser::ShardedLaserOptions options =
      tpcc::TpccOptions(nullptr, "", Spec(1), kShards);
  return {"tpcc_ch", "3 warehouse threads (OLTP) + 1 CH-Q1 thread (OLAP)",
          "kSyncEveryGroup", counts,
          "shards=3 levels=" + std::to_string(options.base.num_levels) +
              " T=" + std::to_string(options.base.size_ratio) +
              " design=" + options.base.cg_config.ToString()};
}

bool RunTpccTrial(const TrialConfig& config, TrialResult* result) {
  const tpcc::TpccSpec spec = Spec(config.seed);
  const SpanNames& names = SpanNames::Get();

  // ---- set-up: open, load, settle ----
  const int64_t setup_start = NowNanos();
  laser::ShardedLaserOptions options =
      tpcc::TpccOptions(config.env, config.dir, spec, kShards);
  options.base.wal_sync_policy = kPolicy;
  options.base.background_threads = 1;  // per shard: 3 engine threads in all
  std::unique_ptr<laser::ShardedLaserDB> db;
  if (!laser::ShardedLaserDB::Open(options, &db).ok()) return false;
  tpcc::TpccDriver driver(spec, db.get());
  if (!driver.Load().ok()) return false;
  if (!db->CompactUntilStable().ok()) return false;
  db->WaitForBackgroundWork();
  result->setup_s = static_cast<double>(NowNanos() - setup_start) / 1e9;

  // ---- measured phase ----
  uint64_t round_ticket = 0, round_end_us = 0;
  auto round = [&](uint64_t* rows) {
    LASER_RETURN_IF_ERROR(ChQ1Round(db.get(), rows, &round_ticket));
    round_end_us = config.env->NowMicros();
    return Status::OK();
  };
  auto observe = [&] {
    driver.probe().ObserveVisible(round_ticket, round_end_us);
  };
  auto warehouse = [&](int t, ClientLog* client) {
    const uint32_t home_w = static_cast<uint32_t>(t + 1);
    laser::Random rng(spec.seed * 7919 + 1000 + t);
    for (uint64_t i = 0; i < kTxnsPerWarehouse; ++i) {
      const uint64_t roll = rng.Uniform(100);
      const int type =
          roll < static_cast<uint64_t>(spec.new_order_pct) ? 0
          : roll < static_cast<uint64_t>(spec.new_order_pct + spec.payment_pct)
              ? 1
              : 2;
      ++client->attempts;
      const int64_t start = NowNanos();
      Status s;
      {
        ScopedSpan span(names.txn[type]);
        s = type == 0   ? driver.NewOrder(home_w, &rng)
            : type == 1 ? driver.Payment(home_w, &rng)
                        : driver.OrderStatus(home_w, &rng);
      }
      const int64_t end = NowNanos();
      if (!s.ok()) {
        client->Fail("txn: " + s.ToString());
        continue;
      }
      (type == 2 ? client->read_us : client->write_us)
          .Add(MicrosBetween(start, end));
    }
  };
  RunMeasuredPhase(db.get(), config, kWarehouses, warehouse, round, observe,
                   result);
  result->ops.txns = result->ops.oltp_ops;
  result->freshness_us.Merge(driver.probe().lags());

  // ---- output check at quiescence: the TPC-C invariants ----
  ++result->attempted;
  if (Status s = db->Flush(); !s.ok()) {
    result->Fail("flush: " + s.ToString());
  } else if (Status v = driver.VerifyInvariants(); !v.ok()) {
    result->Fail(v.ToString());
  }
  db->WaitForBackgroundWork();
  uint64_t live_rows = 0;
  {
    auto scan = db->NewScan(0, UINT64_MAX, {tpcc::kColTable});
    laser::ScanAggregates aggs;
    if (scan != nullptr && scan->AggregateAll(&aggs).ok()) live_rows = aggs.rows;
  }
  const double row_bytes = 8 + 2 * 4 + 6 * 8;  // key + TpccSchema columns
  result->space_amp = live_rows == 0
                          ? 0
                          : static_cast<double>(DirectoryBytes(config.dir)) /
                                (static_cast<double>(live_rows) * row_bytes);

  // ---- probes (traced trials) ----
  if (config.traced) {
    laser::Random rng(spec.seed ^ 0x0e5);
    const Counters before = EngineCounters(db.get());
    for (uint64_t i = 0; i < kProbeTxns; ++i) {
      driver.OrderStatus(static_cast<uint32_t>(1 + i % kWarehouses), &rng);
    }
    result->read_probe = EngineCounters(db.get()).Minus(before);
    const Counters scan_before = EngineCounters(db.get());
    uint64_t unused_ticket = 0;
    ChQ1Round(db.get(), &result->scan_probe_rows, &unused_ticket);
    result->scan_probe = EngineCounters(db.get()).Minus(scan_before);
  }
  db.reset();
  config.env->RemoveDir(config.dir);
  return true;
}

}  // namespace perfbench
