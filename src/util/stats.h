// Engine-wide instrumentation counters. The paper's cost model (§5) is
// expressed in block fetches; every read path increments these so benches can
// validate measured I/O against Equations 4-7 directly, independent of disk
// speed.

#ifndef LASER_UTIL_STATS_H_
#define LASER_UTIL_STATS_H_

#include <atomic>
#include <cstdint>
#include <span>
#include <string>
#include <type_traits>

// Every Stats entry, once, in member order: X(name, shape, rule).
//   shape: Scalar, Level (kStatsLevels slots; deeper levels clamp into the
//          last, L0 is level 0) or Column (kStatsColumns slots, see
//          Stats::ColumnSlot).
//   rule:  Counter (Reset zeroes it, aggregation sums it), GaugeSum (Reset
//          keeps it, aggregation sums it) or GaugeMax (Reset keeps it,
//          aggregation takes the max: shards run the same configuration).
// The members, Reset, AddCountersTo and ToString are generated from this
// list, so adding a counter is one line here. The order is the members'
// memory layout: hot counters that share a cache line stay together.
// clang-format off
#define LASER_STATS_TABLE(X)                                                       \
  /* -- read path -- */                                                            \
  X(data_block_reads, Scalar, Counter) /* data blocks fetched */                   \
  X(block_cache_hits, Scalar, Counter)                                             \
  X(block_cache_misses, Scalar, Counter)                                           \
  X(bloom_checks, Scalar, Counter)                                                 \
  X(bloom_negatives, Scalar, Counter) /* lookups short-circuited */                \
  /* Filter said "maybe" but the block probe found no version of the key. Only the \
     point-read walk in LaserDB::Read can tell, so only it counts. */              \
  X(bloom_false_positives, Scalar, Counter)                                        \
  X(point_reads, Scalar, Counter)                                                  \
  X(range_scans, Scalar, Counter)                                                  \
  /* Point reads resolved at each level (0 = memtable/L0). Feeds the advisor's     \
     per-level read histogram. */                                                  \
  X(point_reads_by_level, Level, Counter)                                          \
  /* -- per-column workload telemetry (feeds BuildTraceFromStats; accumulated once \
     per scan / point read / update op, not per row) -- */                         \
  X(scan_projected_by_column, Column, Counter)  /* scans projecting the column */  \
  X(point_projected_by_column, Column, Counter) /* found point reads, same */      \
  X(updated_by_column, Column, Counter)         /* update ops that wrote it */     \
  X(inserts, Scalar, Counter)                   /* full-row inserts */             \
  X(updates, Scalar, Counter)                   /* partial-row update ops */       \
  /* Rows handed to scan consumers after pushdown filtering (per scan, this is the \
     selectivity). */                                                              \
  X(scan_rows_emitted, Scalar, Counter)                                            \
  /* -- per-level filter telemetry (probes from the point-read walk) -- */         \
  X(bloom_checks_by_level, Level, Counter)                                         \
  X(bloom_negatives_by_level, Level, Counter)                                      \
  X(bloom_false_positives_by_level, Level, Counter)                                \
  /* -- scan path (batched merge; flushed per scan, not per row) -- */             \
  X(scan_rows_merged, Scalar, Counter)     /* rows emitted by merges */            \
  X(scan_batches_emitted, Scalar, Counter) /* non-empty NextBatch fills */         \
  X(scan_source_advances, Scalar, Counter) /* contribution-source steps */         \
  X(scan_heap_resifts, Scalar, Counter)    /* k-way-merge heap repairs */          \
  X(scan_zip_rows, Scalar, Counter)        /* rows spliced run-at-a-time */        \
  X(scan_zip_splices, Scalar, Counter)     /* successful zip rounds */             \
  /* -- scan pushdown (predicates, zone maps, pushed aggregates) -- */             \
  X(blocks_skipped_zonemap, Scalar, Counter) /* data blocks never read */          \
  X(files_skipped_zonemap, Scalar, Counter)  /* files never opened */              \
  X(rows_filtered_pushdown, Scalar, Counter) /* rows dropped by predicates */      \
  X(aggs_pushed, Scalar, Counter)            /* aggregates folded in-scan */       \
  /* Blocks whose aggregates were folded straight from the zone map: every row     \
     provably matched, so the block was never read or decoded. */                  \
  X(aggs_from_zonemap, Scalar, Counter)                                            \
  /* -- adaptive design (online advisor + in-flight morphing) -- */                \
  X(design_morph_compactions, Scalar, Counter) /* level re-layout jobs */          \
  /* Morph installs after which every level matches the persisted target. */       \
  X(design_morphs_completed, Scalar, Counter)                                      \
  /* Shard count the block cache runs with after the min-bytes-per-shard clamp     \
     (set at open; tiny caches silently run fewer shards than requested). */       \
  X(block_cache_effective_shards, Scalar, GaugeMax)                                \
  /* -- filter memory (refreshed at every version install): serialized filter      \
     bytes live per level and in total, and the configured bits-per-key ×1000 so   \
     fractional Monkey allocations survive the integer slot -- */                  \
  X(filter_bytes_by_level, Level, GaugeSum)                                        \
  X(filter_bytes_total, Scalar, GaugeSum)                                          \
  X(bloom_millibits_by_level, Level, GaugeMax)                                     \
  /* -- write path -- */                                                           \
  X(bytes_written_wal, Scalar, Counter)                                            \
  X(wal_syncs, Scalar, Counter)          /* fsyncs issued on the WAL */            \
  X(wal_group_commits, Scalar, Counter)  /* commit groups the leader ran */        \
  X(wal_group_writes, Scalar, Counter)   /* WriteBatches across all groups */      \
  X(bytes_flushed, Scalar, Counter)      /* memtable -> L0 bytes */                \
  X(bytes_compacted, Scalar, Counter)    /* compaction output bytes */             \
  X(compaction_jobs, Scalar, Counter)                                              \
  X(flush_jobs, Scalar, Counter)                                                   \
  X(write_stall_micros, Scalar, Counter) /* time writers waited */
// clang-format on

namespace laser {

/// Thread-safe counters; cheap relaxed increments.
class Stats {
 public:
  /// Per-level stat arrays clamp deeper levels into the last slot.
  static constexpr int kStatsLevels = 16;
  /// Per-column stat arrays (1-based column ids; ids beyond the range clamp
  /// into the last slot).
  static constexpr int kStatsColumns = 128;

  enum class Shape { kScalar, kLevel, kColumn };
  enum class Rule { kCounter, kGaugeSum, kGaugeMax };

#define LASER_STATS_MEMBER_Scalar(name) std::atomic<uint64_t> name{0};
#define LASER_STATS_MEMBER_Level(name) std::atomic<uint64_t> name[kStatsLevels] = {};
#define LASER_STATS_MEMBER_Column(name) std::atomic<uint64_t> name[kStatsColumns] = {};
#define LASER_STATS_MEMBER(name, shape, rule) LASER_STATS_MEMBER_##shape(name)
  LASER_STATS_TABLE(LASER_STATS_MEMBER)
#undef LASER_STATS_MEMBER
#undef LASER_STATS_MEMBER_Column
#undef LASER_STATS_MEMBER_Level
#undef LASER_STATS_MEMBER_Scalar

  /// Clamps a 1-based column id into the per-column arrays.
  static int ColumnSlot(int column) {
    if (column < 1) column = 1;
    if (column > kStatsColumns) column = kStatsColumns;
    return column - 1;
  }

  /// Calls f(name, shape, rule, member) for every table entry, in table order;
  /// `member` is a pointer to the Stats member (pass `s.*member` to Slots).
  template <typename F>
  static void ForEachEntry(F&& f) {
#define LASER_STATS_VISIT(name, shape, rule) \
  f(#name, Shape::k##shape, Rule::k##rule, &Stats::name);
    LASER_STATS_TABLE(LASER_STATS_VISIT)
#undef LASER_STATS_VISIT
  }

  /// The slots of one entry: the scalar itself, or every array element.
  template <typename Entry>
  static auto Slots(Entry& entry) {
    if constexpr (std::is_array_v<Entry>) {
      return std::span<std::remove_extent_t<Entry>>(entry);
    } else {
      return std::span<Entry>(&entry, 1);
    }
  }

  /// Zeroes every Counter entry; gauges keep their values.
  void Reset();

  /// Accumulates every entry into `*out` by its rule. ShardedLaserDB uses it
  /// to aggregate per-shard stats into one view; into a fresh Stats it takes
  /// a snapshot.
  void AddCountersTo(Stats* out) const;

  /// `name=value` for every scalar entry, then the per-level filter line.
  std::string ToString() const;
};

}  // namespace laser

#endif  // LASER_UTIL_STATS_H_
