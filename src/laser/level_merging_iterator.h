// LevelMergingIterator (§4.3/§4.4): merges contribution sources across the
// LSM-Tree's lifecycle order — memtables, then L0 files (newest first), then
// levels 1..L-1 — resolving each projected column with the newest
// contribution and discarding old versions, and emitting fully stitched rows
// in user-key order.
//
// The engine is batch-at-a-time: a min-heap (SourceMinHeap) orders sources
// by key, and whenever the top source is the sole contributor for a key
// range it drains that whole run straight into a columnar ScanBatch
// (AppendRunTo), so merge cost is O(log k) per source advance instead of a
// linear O(k) sweep per row. When the sole contributor is a level's
// ColumnMergingIterator, the handoff continues at run granularity inside it
// (the zip path: per-CG column runs spliced after a key-vector equality
// check). There is no per-row API: ScanIterator reads its rows out of the
// batches this core fills.

#ifndef LASER_LASER_LEVEL_MERGING_ITERATOR_H_
#define LASER_LASER_LEVEL_MERGING_ITERATOR_H_

#include <memory>
#include <vector>

#include "laser/contribution.h"
#include "laser/scan_batch.h"
#include "laser/source_heap.h"

namespace laser {

class LevelMergingIterator {
 public:
  /// `sources` must be ordered newest to oldest (priority order);
  /// `projection_size` is |Π|. `predicate_positions` (sorted projection
  /// positions, possibly empty) lists the columns the scan's pushed-down
  /// predicates constrain: a sole-contributor window whose source can never
  /// cover one of them is skipped outright (every row it could emit is null
  /// there and fails the conjunction), and zone-map block skipping is armed
  /// around each sole-contributor drain.
  LevelMergingIterator(std::vector<std::unique_ptr<ContributionSource>> sources,
                       size_t projection_size,
                       std::vector<int> predicate_positions = {});

  /// Positions every source at its first user key >= `target_user_key`.
  /// Materializes no row: the first AppendRows does the merging.
  void Seek(const Slice& target_user_key);

  /// Appends up to `max_rows` resolved rows with user key <= `hi_inclusive`
  /// (empty = unbounded) to `batch` and returns the number appended; 0 means
  /// no further rows exist within the bound. REQUIRES: Seek was called.
  ///
  /// This is the scan's single column-capacity growth site: it calls
  /// ScanBatch::EnsureColumnCapacity once up front, and every downstream
  /// fill (per-row fold, stretch emit, zip splice) writes by index within
  /// that bound.
  size_t AppendRows(ScanBatch* batch, const Slice& hi_inclusive, size_t max_rows);

  Status status() const;

  /// Scan-path instrumentation accumulated by this merge (no atomics);
  /// flushed to engine Stats by the owning ScanIterator.
  const ScanPathCounters& counters() const { return counters_; }

  /// Arms zone-map block skipping around sole-contributor drains even when
  /// the scan has no predicates. Only AggregateAll sets this — it lets
  /// fold-armed filters fold matching blocks, which is wrong for any
  /// consumer that wants the rows themselves.
  void set_arm_windows_always(bool arm) { arm_windows_always_ = arm; }

 private:
  /// Combines the ≥2 sources tied at the smallest key into one row
  /// (first-non-absent-wins in priority order), then — when the newest tied
  /// source fully covers Π — chains zip rounds over the tied sources'
  /// upcoming runs (ZipTiedRun) before advancing them all. Returns rows
  /// appended (bounded by `max_rows` and `hi_inclusive`). REQUIRES:
  /// !heap_.empty(), a genuine key tie at the top, and max_rows >= 1.
  size_t CombineTiedRow(ScanBatch* batch, const Slice& hi_inclusive,
                        size_t max_rows);

  /// One tied-zip round: every tied source exposes its prepared column run
  /// below the heap's next key; over the longest common-key prefix each row
  /// of every older source is an older version of the newest source's row at
  /// that index, so the newest source's full-coverage columns are spliced
  /// wholesale and every tied source consumes the prefix. Returns rows
  /// spliced; 0 means some tied source cannot zip or the runs diverge
  /// immediately. REQUIRES: the newest tied source covers all of Π.
  size_t ZipTiedRun(ScanBatch* batch, const Slice& limit_exclusive,
                    const Slice& hi_inclusive, size_t max_rows);

  std::vector<std::unique_ptr<ContributionSource>> sources_;
  const size_t projection_size_;
  const std::vector<int> predicate_positions_;
  bool arm_windows_always_ = false;
  SourceMinHeap heap_;
  ScanPathCounters counters_;

  // Tie-combining scratch (reused across rows; no per-row allocation).
  std::vector<int> tied_;
  std::vector<ColumnState> states_;
  std::vector<ColumnValue> values_;
  std::vector<ColumnRunView> zip_views_;  // per-tied-source run windows
};

}  // namespace laser

#endif  // LASER_LASER_LEVEL_MERGING_ITERATOR_H_
