// Workload `htap_hw`: the paper's HW experiment (§7.2, Table 3) with the
// analytic queries running during the writes instead of after them.
//
// The tree is preloaded with 200k 30-column rows (~26 MB logical) laid out
// in the design DesignAdvisor::SelectDesign picks for the HW trace (D-opt),
// with a 4 MiB block cache, so the working set is larger than the cache.
// One OLTP thread runs the HW stream: Q1 inserts, Q3 updates of one column
// on 1% of inserts, and Q2a/Q2b point reads drawn by recency, spread evenly
// through the inserts. One OLAP thread runs Q4 (5% range, sum of a21..a30)
// plus Q5 (50% range, max of a28..a30) rounds back to back.
//
// Freshness without a ticket column: the only writer is the OLTP thread, so
// a scan's snapshot sees a prefix of its inserts. The row count of a range
// scan, minus the preloaded rows in that range, says how many in-range
// inserts are visible, which pins the prefix the snapshot holds.

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cost/cost_model.h"
#include "cost/design_advisor.h"
#include "laser/laser_db.h"
#include "olap_loop.h"
#include "trial.h"
#include "util/random.h"
#include "workload/freshness_probe.h"
#include "workload/htap_workload.h"

namespace perfbench {
namespace {

using laser::ColumnSet;
using laser::ColumnValue;
using laser::ColumnValuePair;
using laser::LaserDB;
using laser::Status;

constexpr int kColumns = 30;
/// Table 3 preloads 400k rows (~51 MB) beside an 8 MiB cache. Half of each
/// keeps the data-to-cache ratio (6.4x) and lets a run repeat its set-up.
/// Five levels of 1, 2, ..., 16 MiB hold the ~28 MB of encoded rows.
constexpr int kLevels = 5;
constexpr int kSizeRatio = 2;
constexpr uint64_t kLoadRows = 200000;
/// Scale of the HW stream per trial (1.0 = Table 3's 20k inserts, 200
/// updates, 500 Q2a and 500 Q2b reads); large enough that the OLAP thread
/// completes about forty rounds while it runs.
constexpr double kStreamScale = 5.0;
constexpr size_t kCacheBytes = 4 << 20;
constexpr uint64_t kProbeReads = 250;
constexpr int kProbeScans = 3;

/// The HW stream at kStreamScale over the rows this benchmark preloads, so
/// the advisor scores designs for the tree the trial actually builds.
laser::HtapWorkloadSpec Spec() {
  laser::HtapWorkloadSpec spec = laser::HtapWorkloadSpec::NarrowHW(kStreamScale);
  spec.load_rows = kLoadRows;
  return spec;
}

laser::LaserOptions Options(laser::Env* env, const std::string& path) {
  laser::LaserOptions options;
  options.env = env;
  options.path = path;
  options.schema = laser::Schema::UniformInt32(kColumns);
  options.num_levels = kLevels;
  options.size_ratio = kSizeRatio;
  options.write_buffer_size = 1 << 20;
  options.level0_bytes = 1 << 20;
  options.target_sst_size = 1 << 20;
  options.block_cache_bytes = kCacheBytes;
  options.use_wal = true;
  options.wal_sync_policy = laser::WalSyncPolicy::kNoSync;
  options.background_threads = 2;  // clients + engine threads <= 4 cores
  return options;
}

laser::CgConfig SelectDOpt(const laser::LaserOptions& options) {
  laser::WorkloadTrace trace(kLevels);
  laser::HtapWorkloadRunner(Spec()).FillTrace(&trace, kLevels, kSizeRatio);
  laser::DesignAdvisor advisor(&options.schema,
                               LaserDB::ShapeFromOptions(options));
  return advisor.SelectDesign(trace);
}

std::vector<ColumnValue> MakeRow(uint64_t key, uint64_t seed) {
  std::vector<ColumnValue> row(kColumns);
  for (int col = 1; col <= kColumns; ++col) row[col - 1] = Payload(key, col, seed);
  return row;
}

/// Index into [0, n) at recency fraction f (1 = newest), as the HW runner.
uint64_t IndexAtFraction(double f, uint64_t n) {
  f = std::clamp(f, 0.0, 1.0);
  uint64_t index = static_cast<uint64_t>(f * static_cast<double>(n));
  return index >= n ? n - 1 : index;
}

struct RangeQuery {
  uint64_t lo, hi;
  const laser::WorkloadScanSpec* spec;
};

/// One AggregateAll over [lo, hi] with the query's projection.
Status RunScan(LaserDB* db, const RangeQuery& q, uint64_t* rows) {
  laser::ScanAggregates aggs;
  LASER_RETURN_IF_ERROR(TimedAggregate(
      [&] { return db->NewScan(q.lo, q.hi, q.spec->projection); }, &aggs));
  *rows = aggs.rows;
  return Status::OK();
}

RangeQuery DrawRange(const laser::WorkloadScanSpec& spec, laser::Random* rng) {
  const uint64_t span =
      static_cast<uint64_t>(spec.selectivity * static_cast<double>(kKeyDomain));
  const uint64_t lo = rng->Uniform(kKeyDomain - span);
  return {lo, lo + span, &spec};
}

}  // namespace

WorkloadInfo HtapInfo() {
  const laser::HtapWorkloadSpec spec = Spec();
  char counts[256];
  snprintf(counts, sizeof(counts),
           "preload=%" PRIu64 " rows; per trial Q1=%" PRIu64
           " Q3=1%% Q2a=%" PRIu64 " Q2b=%" PRIu64 "; Q4+Q5 rounds back to back",
           kLoadRows, spec.steady_inserts, spec.point_reads[0].count,
           spec.point_reads[1].count);
  const laser::LaserOptions options = Options(nullptr, "");
  return {"htap_hw", "1 HW stream thread (OLTP) + 1 Q4+Q5 thread (OLAP)",
          "kNoSync", counts,
          "levels=5 T=2 L0=1MiB cache=4MiB design=D-opt " +
              SelectDOpt(options).ToString()};
}

bool RunHtapTrial(const TrialConfig& config, TrialResult* result) {
  const uint64_t seed = config.seed;
  const SpanNames& names = SpanNames::Get();
  const laser::HtapWorkloadSpec spec = Spec();
  const uint64_t inserts = spec.steady_inserts;

  // Inputs, generated before the clock starts.
  std::vector<uint64_t> load_sorted(kLoadRows);
  for (uint64_t i = 0; i < kLoadRows; ++i) load_sorted[i] = Scatter48(i, seed);
  std::sort(load_sorted.begin(), load_sorted.end());
  std::vector<uint64_t> steady_keys(inserts);
  for (uint64_t i = 0; i < inserts; ++i) {
    steady_keys[i] = Scatter48(kLoadRows + i, seed);
  }

  // ---- set-up: advisor, open, load, settle ----
  const int64_t setup_start = NowNanos();
  laser::LaserOptions options = Options(config.env, config.dir);
  const int64_t advisor_start = NowNanos();
  options.cg_config = SelectDOpt(options);
  result->select_design_ms =
      static_cast<double>(NowNanos() - advisor_start) / 1e6;
  std::unique_ptr<LaserDB> db;
  if (!LaserDB::Open(options, &db).ok()) return false;
  if (!LoadRows(db.get(), kLoadRows, seed,
                [&](uint64_t key) { return MakeRow(key, seed); })
           .ok() ||
      !db->CompactUntilStable().ok()) {
    return false;
  }
  db->WaitForBackgroundWork();
  result->setup_s = static_cast<double>(NowNanos() - setup_start) / 1e9;

  // ---- measured phase ----
  laser::FreshnessProbe probe(inserts + 1);
  std::unordered_map<uint64_t, std::vector<ColumnValuePair>> updates;
  auto expected = [&](uint64_t key, const ColumnSet& projection) {
    std::vector<ColumnValue> row = MakeRow(key, seed);
    auto it = updates.find(key);
    if (it != updates.end()) {
      for (const ColumnValuePair& u : it->second) row[u.column - 1] = u.value;
    }
    std::vector<ColumnValue> out;
    for (int col : projection) out.push_back(row[col - 1]);
    return out;
  };
  // Visible prefix of the insert stream implied by `rows` in [lo, hi].
  auto visible_prefix = [&](const RangeQuery& q, uint64_t rows) -> uint64_t {
    const uint64_t base =
        std::upper_bound(load_sorted.begin(), load_sorted.end(), q.hi) -
        std::lower_bound(load_sorted.begin(), load_sorted.end(), q.lo);
    if (rows <= base) return 0;
    uint64_t need = rows - base;
    for (uint64_t i = 0; i < inserts; ++i) {
      if (steady_keys[i] >= q.lo && steady_keys[i] <= q.hi && --need == 0) {
        return i + 1;
      }
    }
    return inserts;
  };

  // A round scans; finding the prefix its row counts imply is bookkeeping
  // and runs after the round's clock stops.
  laser::Random olap_rng(seed ^ 0x01a9);
  std::vector<std::pair<RangeQuery, uint64_t>> round_scans;
  uint64_t round_end_us = 0;
  auto round = [&](uint64_t* rows) {
    round_scans.clear();
    for (const laser::WorkloadScanSpec& scan : spec.scans) {
      const RangeQuery q = DrawRange(scan, &olap_rng);
      uint64_t n = 0;
      LASER_RETURN_IF_ERROR(RunScan(db.get(), q, &n));
      *rows += n;
      round_scans.emplace_back(q, n);
    }
    round_end_us = config.env->NowMicros();
    return Status::OK();
  };
  auto observe = [&] {
    uint64_t prefix = 0;
    for (const auto& [q, n] : round_scans) {
      prefix = std::max(prefix, visible_prefix(q, n));
    }
    probe.ObserveVisible(prefix, round_end_us);
  };

  auto stream = [&](int, ClientLog* client) {
    laser::Random rng(seed);
    std::vector<uint64_t> reads_left;
    for (const auto& read : spec.point_reads) reads_left.push_back(read.count);
    double update_debt = 0;
    for (uint64_t i = 0; i < inserts; ++i) {
      // Q1
      const uint64_t key = steady_keys[i];
      const uint64_t ticket = probe.AllocateTicket();
      const std::vector<ColumnValue> row = MakeRow(key, seed);
      ++client->attempts;
      const int64_t start = NowNanos();
      Status s;
      {
        ScopedSpan span(names.write);
        s = db->Insert(key, row);
      }
      const int64_t end = NowNanos();
      if (!s.ok()) {
        client->Fail("Q1: " + s.ToString());
        return;  // later inserts would break the single-writer prefix
      }
      probe.RecordAck(ticket, config.env->NowMicros());
      client->write_us.Add(MicrosBetween(start, end));
      const uint64_t inserted = kLoadRows + i + 1;

      // Q3 at 1% of inserts, one column of a recent row.
      update_debt += spec.updates_per_insert;
      while (update_debt >= 1.0) {
        update_debt -= 1.0;
        const uint64_t ordinal = IndexAtFraction(
            rng.NextGaussian(spec.update_recency_mean, spec.update_recency_sd),
            inserted);
        const uint64_t target = Scatter48(ordinal, seed);
        const ColumnValuePair value{
            static_cast<int>(rng.Range(1, kColumns + 1)),
            rng.Next() & 0x7fffffffu};
        ++client->attempts;
        const int64_t ustart = NowNanos();
        {
          ScopedSpan span(names.write);
          s = db->Update(target, {value});
        }
        const int64_t uend = NowNanos();
        if (!s.ok()) {
          client->Fail("Q3: " + s.ToString());
          continue;
        }
        client->write_us.Add(MicrosBetween(ustart, uend));
        updates[target].push_back(value);
      }

      // Q2a / Q2b, spread evenly through the inserts.
      for (size_t r = 0; r < spec.point_reads.size(); ++r) {
        const laser::PointReadSpec& read = spec.point_reads[r];
        const uint64_t due =
            read.count - (read.count * (inserts - 1 - i)) / inserts;
        while (reads_left[r] > read.count - due) {
          --reads_left[r];
          const uint64_t ordinal = IndexAtFraction(
              rng.NextGaussian(read.recency_mean, read.recency_sd), inserted);
          const uint64_t target = Scatter48(ordinal, seed);
          LaserDB::ReadResult got;
          ++client->attempts;
          const int64_t rstart = NowNanos();
          {
            ScopedSpan span(names.read);
            s = db->Read(target, read.projection, &got);
          }
          const int64_t rend = NowNanos();
          if (!s.ok()) {
            client->Fail("Q2: " + s.ToString());
            continue;
          }
          client->read_us.Add(MicrosBetween(rstart, rend));
          if (!RowMatches(got, expected(target, read.projection))) {
            client->Fail("Q2 on an acknowledged key does not match");
          }
        }
      }
    }
  };
  RunMeasuredPhase(db.get(), config, 1, stream, round, observe, result);
  result->ops.writes = result->write_us.count();
  result->freshness_us.Merge(probe.lags());

  // ---- output check at quiescence: every inserted row is counted ----
  laser::WorkloadScanSpec full;
  full.projection = {kColumns};
  uint64_t rows = 0;
  ++result->attempted;
  if (Status s = RunScan(db.get(), {0, kKeyDomain - 1, &full}, &rows); !s.ok()) {
    result->Fail("final count: " + s.ToString());
  } else if (rows != kLoadRows + inserts) {
    result->Fail("final count " + std::to_string(rows) + " != inserted " +
                 std::to_string(kLoadRows + inserts));
  }
  result->space_amp =
      static_cast<double>(DirectoryBytes(config.dir)) /
      static_cast<double>((kLoadRows + inserts) * (8 + 4 * kColumns));

  // ---- probes (traced trials) and the cost-model cross-check ----
  if (config.traced) {
    const laser::LsmShape shape = LaserDB::ShapeFromOptions(options);
    const laser::CgConfig design = db->CurrentDesign();
    const laser::CostModel model(shape, &design);
    const uint64_t total_rows = kLoadRows + inserts;
    laser::Random rng(seed ^ 0x9b0e);
    char line[256];
    snprintf(line, sizeof(line), "%-5s %12s %14s %14s", "query",
             "eq5/6_blocks", "blocks_touched", "blocks_fetched");
    result->cost_lines.push_back(line);
    const Counters read_before = Counters::From(db->stats());
    for (size_t r = 0; r < spec.point_reads.size(); ++r) {
      const laser::PointReadSpec& read = spec.point_reads[r];
      const Counters before = Counters::From(db->stats());
      for (uint64_t i = 0; i < kProbeReads; ++i) {
        const uint64_t ordinal = IndexAtFraction(
            rng.NextGaussian(read.recency_mean, read.recency_sd), total_rows);
        LaserDB::ReadResult got;
        db->Read(Scatter48(ordinal, seed), read.projection, &got);
      }
      const Counters d = Counters::From(db->stats()).Minus(before);
      snprintf(line, sizeof(line), "Q2%c   %12.2f %14.2f %14.2f",
               static_cast<char>('a' + r), model.PointReadCost(read.projection),
               static_cast<double>(d.data_block_reads + d.block_cache_hits) /
                   kProbeReads,
               static_cast<double>(d.data_block_reads) / kProbeReads);
      result->cost_lines.push_back(line);
    }
    result->read_probe = Counters::From(db->stats()).Minus(read_before);

    for (size_t q = 0; q < spec.scans.size(); ++q) {
      const laser::WorkloadScanSpec& scan = spec.scans[q];
      const Counters before = Counters::From(db->stats());
      for (int i = 0; i < kProbeScans; ++i) {
        uint64_t n = 0;
        RunScan(db.get(), DrawRange(scan, &rng), &n);
      }
      const Counters d = Counters::From(db->stats()).Minus(before);
      snprintf(line, sizeof(line), "Q%zu    %12.1f %14.1f %14.1f", 4 + q,
               model.RangeScanCost(
                   scan.selectivity * static_cast<double>(total_rows),
                   scan.projection),
               static_cast<double>(d.data_block_reads + d.block_cache_hits) /
                   kProbeScans,
               static_cast<double>(d.data_block_reads) / kProbeScans);
      result->cost_lines.push_back(line);
    }

    const Counters scan_before = Counters::From(db->stats());
    for (const laser::WorkloadScanSpec& scan : spec.scans) {
      uint64_t n = 0;
      RunScan(db.get(), DrawRange(scan, &rng), &n);
      result->scan_probe_rows += n;
    }
    result->scan_probe = Counters::From(db->stats()).Minus(scan_before);
  }
  db.reset();
  config.env->RemoveDir(config.dir);
  return true;
}

}  // namespace perfbench
