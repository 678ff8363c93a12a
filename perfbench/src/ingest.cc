// Workload `ingest`: the write path under concurrent writers.
//
// Three writer threads insert full 30-column rows (plus 1% partial updates
// and 1% point reads of their own recent keys) into a tree preloaded with
// 200k rows, laid out HTAP-simple, WAL on with kNoSync. One OLAP thread runs
// a real-time count round back to back: an AggregateAll of the ticket column
// over a quarter of the key domain, whose maximum feeds the freshness probe. Column 1 of every
// inserted row holds its freshness ticket; the preloaded rows hold 0.

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <unordered_map>

#include "laser/laser_db.h"
#include "olap_loop.h"
#include "trial.h"
#include "util/random.h"
#include "workload/freshness_probe.h"

namespace perfbench {
namespace {

using laser::ColumnSet;
using laser::ColumnValue;
using laser::ColumnValuePair;
using laser::LaserDB;
using laser::Status;

constexpr int kColumns = 30;
constexpr int kLevels = 8;
constexpr int kSizeRatio = 2;
constexpr int kRowLevels = 6;
constexpr int kWriters = 3;
constexpr uint64_t kPreloadRows = 200000;
constexpr uint64_t kInsertsPerWriter = 50000;
constexpr uint64_t kRecentWindow = 1000;  ///< "recent": a writer's last 1000
constexpr uint64_t kCheckReads = 2000;
constexpr uint64_t kProbeReads = 500;

laser::LaserOptions Options(laser::Env* env, const std::string& path) {
  laser::LaserOptions options;
  options.env = env;
  options.path = path;
  options.schema = laser::Schema::UniformInt32(kColumns);
  options.num_levels = kLevels;
  options.size_ratio = kSizeRatio;
  options.cg_config = laser::CgConfig::HtapSimple(kColumns, kLevels, kRowLevels);
  options.use_wal = true;
  options.wal_sync_policy = laser::WalSyncPolicy::kNoSync;
  options.background_threads = 2;  // clients + engine threads <= 4 cores
  return options;
}

std::vector<ColumnValue> MakeRow(uint64_t key, uint64_t ticket, uint64_t seed) {
  std::vector<ColumnValue> row(kColumns);
  row[0] = ticket;
  for (int col = 2; col <= kColumns; ++col) row[col - 1] = Payload(key, col, seed);
  return row;
}

/// What one writer inserted and updated, so its reads (and the final check)
/// know the expected row. Only the owning writer touches its keys, so the
/// order of its own calls is the order the engine applied them.
struct WriterLog {
  std::vector<uint64_t> keys;     ///< in insertion order
  std::vector<uint64_t> tickets;  ///< parallel to keys
  std::unordered_map<uint64_t, std::vector<ColumnValuePair>> updates;

  std::vector<ColumnValue> Expected(size_t index, uint64_t seed) const {
    std::vector<ColumnValue> row = MakeRow(keys[index], tickets[index], seed);
    auto it = updates.find(keys[index]);
    if (it != updates.end()) {
      for (const ColumnValuePair& u : it->second) row[u.column - 1] = u.value;
    }
    return row;
  }
};

/// The OLAP round counts a quarter of the key domain. Tickets are spread
/// evenly over it, so the newest ticket it sees trails the newest visible
/// one by about four inserts.
constexpr uint64_t kRoundHiKey = kKeyDomain / 4 - 1;

/// Count of rows in [0, hi_key] and the newest ticket among them.
Status CountRound(LaserDB* db, uint64_t hi_key, uint64_t* rows,
                  uint64_t* max_ticket) {
  laser::ScanAggregates aggs;
  LASER_RETURN_IF_ERROR(
      TimedAggregate([&] { return db->NewScan(0, hi_key, {1}); }, &aggs));
  *rows = aggs.rows;
  *max_ticket = aggs.counts[0] > 0 ? aggs.maxima[0] : 0;
  return Status::OK();
}

}  // namespace

WorkloadInfo IngestInfo() {
  char counts[256];
  snprintf(counts, sizeof(counts),
           "preload=%" PRIu64 " rows; per trial %d writers x %" PRIu64
           " inserts, 1%% updates, 1%% reads",
           kPreloadRows, kWriters, kInsertsPerWriter);
  return {"ingest", "3 writer threads (OLTP) + 1 count/freshness thread (OLAP)",
          "kNoSync", counts,
          "levels=8 T=2 design=" +
              laser::CgConfig::HtapSimple(kColumns, kLevels, kRowLevels).ToString()};
}

bool RunIngestTrial(const TrialConfig& config, TrialResult* result) {
  const uint64_t seed = config.seed;
  const SpanNames& names = SpanNames::Get();

  // ---- set-up: open, preload, settle ----
  const int64_t setup_start = NowNanos();
  std::unique_ptr<LaserDB> db;
  if (!LaserDB::Open(Options(config.env, config.dir), &db).ok()) return false;
  if (!LoadRows(db.get(), kPreloadRows, seed,
                [&](uint64_t key) { return MakeRow(key, 0, seed); })
           .ok() ||
      !db->CompactUntilStable().ok()) {
    return false;
  }
  db->WaitForBackgroundWork();
  result->setup_s = static_cast<double>(NowNanos() - setup_start) / 1e9;

  // ---- measured phase ----
  laser::FreshnessProbe probe(kWriters * kInsertsPerWriter + 1);
  std::vector<WriterLog> logs(kWriters);
  uint64_t round_ticket = 0, round_end_us = 0;
  auto round = [&](uint64_t* rows) {
    LASER_RETURN_IF_ERROR(
        CountRound(db.get(), kRoundHiKey, rows, &round_ticket));
    round_end_us = config.env->NowMicros();
    return Status::OK();
  };
  auto observe = [&] { probe.ObserveVisible(round_ticket, round_end_us); };

  auto writer = [&](int t, ClientLog* client) {
    laser::Random rng(seed * 1000003 + t);
    WriterLog& log = logs[t];
    log.keys.reserve(kInsertsPerWriter);
    log.tickets.reserve(kInsertsPerWriter);
    for (uint64_t i = 0; i < kInsertsPerWriter; ++i) {
      const uint64_t key =
          Scatter48(kPreloadRows + t * kInsertsPerWriter + i, seed);
      const uint64_t ticket = probe.AllocateTicket();
      const std::vector<ColumnValue> row = MakeRow(key, ticket, seed);
      ++client->attempts;
      const int64_t start = NowNanos();
      Status s;
      {
        ScopedSpan span(names.write);
        s = db->Insert(key, row);
      }
      const int64_t end = NowNanos();
      if (!s.ok()) {
        client->Fail("insert: " + s.ToString());
        continue;
      }
      probe.RecordAck(ticket, config.env->NowMicros());
      client->write_us.Add(MicrosBetween(start, end));
      log.keys.push_back(key);
      log.tickets.push_back(ticket);

      const uint64_t roll = rng.Uniform(1000);
      if (roll >= 20) continue;
      const size_t n = log.keys.size();
      const size_t index =
          n - 1 - rng.Uniform(std::min<uint64_t>(n, kRecentWindow));
      ++client->attempts;
      if (roll < 10) {
        // 1%: partial update of a recent own key (never the ticket).
        const int col = static_cast<int>(rng.Range(2, kColumns + 1));
        const ColumnValuePair value{col, rng.Next() & 0x7fffffffu};
        const int64_t ustart = NowNanos();
        {
          ScopedSpan span(names.write);
          s = db->Update(log.keys[index], {value});
        }
        const int64_t uend = NowNanos();
        if (!s.ok()) {
          client->Fail("update: " + s.ToString());
          continue;
        }
        client->write_us.Add(MicrosBetween(ustart, uend));
        log.updates[log.keys[index]].push_back(value);
      } else {
        // 1%: read back a recent own key, all columns.
        LaserDB::ReadResult got;
        const int64_t rstart = NowNanos();
        {
          ScopedSpan span(names.read);
          s = db->Read(log.keys[index], db->options().schema.AllColumns(), &got);
        }
        const int64_t rend = NowNanos();
        if (!s.ok()) {
          client->Fail("read: " + s.ToString());
          continue;
        }
        client->read_us.Add(MicrosBetween(rstart, rend));
        if (!RowMatches(got, log.Expected(index, seed))) {
          client->Fail("read of a recent key returned the wrong row");
        }
      }
    }
  };
  RunMeasuredPhase(db.get(), config, kWriters, writer, round, observe, result);
  result->ops.writes = result->write_us.count();
  result->freshness_us.Merge(probe.lags());
  uint64_t acked = 0;
  for (const WriterLog& log : logs) acked += log.keys.size();

  // ---- output check at quiescence ----
  uint64_t rows = 0, max_ticket = 0;
  ++result->attempted;
  if (Status s = CountRound(db.get(), kKeyDomain - 1, &rows, &max_ticket);
      !s.ok()) {
    result->Fail("final count: " + s.ToString());
  } else if (rows != kPreloadRows + acked) {
    result->Fail("final count " + std::to_string(rows) + " != acknowledged " +
                 std::to_string(kPreloadRows + acked));
  }
  const uint64_t logical_bytes = (kPreloadRows + acked) * (8 + 4 * kColumns);
  result->space_amp = static_cast<double>(DirectoryBytes(config.dir)) /
                      static_cast<double>(logical_bytes);

  laser::Random check_rng(seed ^ 0xc4ec);
  const ColumnSet all = db->options().schema.AllColumns();
  for (uint64_t i = 0; i < kCheckReads; ++i) {
    const WriterLog& log = logs[check_rng.Uniform(kWriters)];
    if (log.keys.empty()) continue;
    const size_t index = check_rng.Uniform(log.keys.size());
    LaserDB::ReadResult got;
    ++result->attempted;
    if (!db->Read(log.keys[index], all, &got).ok() ||
        !RowMatches(got, log.Expected(index, seed))) {
      result->Fail("sampled read of an acknowledged key does not match");
    }
  }

  // ---- probes (traced trials): one operation class at a time ----
  if (config.traced) {
    const Counters before = Counters::From(db->stats());
    for (uint64_t i = 0; i < kProbeReads; ++i) {
      const WriterLog& log = logs[i % kWriters];
      if (log.keys.empty()) continue;
      LaserDB::ReadResult got;
      db->Read(log.keys[log.keys.size() - 1 - check_rng.Uniform(
                            std::min<uint64_t>(log.keys.size(), kRecentWindow))],
               all, &got);
    }
    result->read_probe = Counters::From(db->stats()).Minus(before);
    const Counters scan_before = Counters::From(db->stats());
    uint64_t probe_rows = 0, probe_max = 0;
    CountRound(db.get(), kRoundHiKey, &probe_rows, &probe_max);
    result->scan_probe = Counters::From(db->stats()).Minus(scan_before);
    result->scan_probe_rows = probe_rows;
  }
  db.reset();
  config.env->RemoveDir(config.dir);
  return true;
}

}  // namespace perfbench
