// One trial of a workload: a fresh database directory, a timed set-up, a
// measured phase with a fixed operation count, a quiesced output check, and
// (in a traced trial) a probe phase that attributes engine counters to one
// operation class at a time.

#ifndef PERFBENCH_TRIAL_H_
#define PERFBENCH_TRIAL_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "bench_env.h"
#include "laser/laser_db.h"
#include "laser/sharded_laser_db.h"
#include "util/histogram.h"
#include "util/stats.h"

namespace perfbench {

// The engine counters the benchmark reads, as plain numbers so that deltas
// can be taken, copied and summed across shards.
#define PERFBENCH_COUNTERS(X)                                               \
  X(data_block_reads) X(block_cache_hits) X(block_cache_misses)            \
  X(bloom_checks) X(bloom_negatives) X(bloom_false_positives)              \
  X(point_reads)                                                           \
  X(scan_rows_merged) X(scan_source_advances) X(scan_heap_resifts)         \
  X(scan_zip_rows) X(blocks_skipped_zonemap) X(aggs_from_zonemap)          \
  X(bytes_written_wal) X(wal_syncs) X(wal_group_commits)                   \
  X(wal_group_writes) X(bytes_flushed) X(bytes_compacted)                  \
  X(compaction_jobs) X(flush_jobs) X(write_stall_micros)

struct Counters {
#define PERFBENCH_FIELD(name) uint64_t name = 0;
  PERFBENCH_COUNTERS(PERFBENCH_FIELD)
#undef PERFBENCH_FIELD

  static Counters From(const laser::Stats& stats);
  Counters Minus(const Counters& before) const;
};

/// The engine counters of one database, or summed over a sharded one.
Counters EngineCounters(laser::LaserDB* db);
Counters EngineCounters(laser::ShardedLaserDB* db);

struct TrialConfig {
  uint64_t seed = 1;
  bool traced = false;
  std::string dir;  ///< fresh database directory for this trial
  CountingEnv* env = nullptr;
};

/// Counts the per-layer metrics are normalised by, for the measured phase.
struct OpCounts {
  uint64_t writes = 0;      ///< acknowledged Insert/Update calls
  uint64_t txns = 0;        ///< committed transactions
  uint64_t oltp_ops = 0;    ///< all acknowledged OLTP client calls
  uint64_t rounds = 0;      ///< OLAP rounds during the measured phase
  uint64_t scan_rows = 0;   ///< rows folded by those rounds
};

struct TrialResult {
  // -- end to end --
  double setup_s = 0;
  double oltp_seconds = 0;   ///< wall time of the OLTP clients
  double olap_seconds = 0;   ///< busy time of the OLAP thread
  OpCounts ops;
  laser::Histogram write_us;
  laser::Histogram read_us;
  laser::Histogram olap_round_ms;
  laser::Histogram freshness_us;  ///< commit-to-visible lag
  double space_amp = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;  ///< output-check mismatches

  // -- per layer (traced trials) --
  Counters stats;            ///< engine counter deltas, measured phase
  EnvSnapshot env;           ///< file-op deltas, measured phase
  Counters read_probe;       ///< deltas of the quiesced read probe
  Counters scan_probe;       ///< deltas of one quiesced OLAP round
  uint64_t scan_probe_rows = 0;
  double select_design_ms = 0;
  std::vector<Span> spans;  ///< moved out after SummarizeSpans
  // Span summaries (SummarizeSpans).
  laser::Histogram write_self_us;  ///< write spans minus their Env children
  laser::Histogram read_self_us;   ///< read spans minus their Env children
  laser::Histogram scan_open_us;   ///< NewScan calls
  laser::Histogram wal_sync_us;    ///< WAL fsyncs
  double drain_self_us = 0;        ///< OLAP AggregateAll minus Env children
  /// Lines of the cost-model cross-check (htap_hw), printed once per run.
  std::vector<std::string> cost_lines;

  /// Records a failed output check.
  void Fail(const std::string& what) {
    ++failed;
    if (errors.size() < 20) errors.push_back(what);
  }
};

/// Names of the client spans the benchmark records around engine calls.
struct SpanNames {
  uint32_t write;         ///< LaserDB::Insert / Update
  uint32_t read;          ///< LaserDB::Read
  uint32_t round;         ///< one OLAP round
  uint32_t scan_open;     ///< NewScan
  uint32_t scan_drain;    ///< ScanIterator::AggregateAll
  uint32_t txn[3];        ///< TpccDriver NewOrder / Payment / OrderStatus
  static const SpanNames& Get();
};

/// Fills the span summaries of `result` from result->spans.
void SummarizeSpans(TrialResult* result);

/// Opens a scan with `open()` and folds it with AggregateAll, each inside its
/// own span (scan.open, scan.drain).
template <typename OpenScan>
laser::Status TimedAggregate(const OpenScan& open, laser::ScanAggregates* aggs) {
  const SpanNames& names = SpanNames::Get();
  decltype(open()) scan;
  {
    ScopedSpan span(names.scan_open);
    scan = open();
  }
  if (scan == nullptr) return laser::Status::InvalidArgument("scan did not open");
  ScopedSpan span(names.scan_drain);
  return scan->AggregateAll(aggs);
}

/// Fixed description of a workload, printed in the run record.
struct WorkloadInfo {
  std::string name;
  std::string clients;
  std::string sync_policy;
  std::string op_counts;
  std::string tree_shape;
};

WorkloadInfo IngestInfo();
WorkloadInfo HtapInfo();
WorkloadInfo TpccInfo();

/// Each returns false only when the trial could not run at all (open or
/// load failed); output mismatches are recorded in the result instead.
bool RunIngestTrial(const TrialConfig& config, TrialResult* result);
bool RunHtapTrial(const TrialConfig& config, TrialResult* result);
bool RunTpccTrial(const TrialConfig& config, TrialResult* result);

/// Small deterministic run that checks the Env decorator against the
/// engine's own counters: bytes appended to *.wal equal
/// Stats::bytes_written_wal plus the 7-byte header of each physical record,
/// and WAL fsyncs equal Stats::wal_syncs. Returns an empty string on
/// success, otherwise what disagreed.
std::string EnvSelfCheck(const std::string& dir);

// -- helpers shared by the workloads --

/// A bijection of [0, 2^48) keyed by `seed`: spreads ordinals uniformly over
/// the key domain and never maps two ordinals to one key.
uint64_t Scatter48(uint64_t ordinal, uint64_t seed);
constexpr uint64_t kKeyDomain = 1ull << 48;

/// Deterministic int32 payload of column `col` of the row with key `key`.
uint64_t Payload(uint64_t key, int col, uint64_t seed);

/// Inserts the rows of ordinals [0, n), keyed Scatter48(ordinal, seed), in
/// WriteBatches of 500.
laser::Status LoadRows(
    laser::LaserDB* db, uint64_t n, uint64_t seed,
    const std::function<std::vector<laser::ColumnValue>(uint64_t key)>& row);

/// True if `got` found the row and every value equals `want`.
bool RowMatches(const laser::LaserDB::ReadResult& got,
                const std::vector<laser::ColumnValue>& want);

/// Microseconds between two NowNanos() readings.
inline double MicrosBetween(int64_t start_ns, int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) / 1e3;
}

}  // namespace perfbench

#endif  // PERFBENCH_TRIAL_H_
