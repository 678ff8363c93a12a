// Measurement plumbing owned by the benchmark, outside the engine:
//
//  * CountingEnv, an Env decorator over the real filesystem. It counts every
//    file op (create, append, flush, sync, read, close, rename, remove) and
//    its bytes, grouped by file kind (*.wal, *.sst, MANIFEST, txn.log) and by
//    the class of the calling thread. In a traced run it also times each op
//    and records it as a span. It stands in a fixed device latency for
//    fsync (kModelledSync).
//  * Thread roles. Client threads register as OLTP or OLAP; every thread that
//    never registered (flush, compaction, WAL sync) counts as an engine
//    thread.
//  * Tracer and ScopedSpan. A span records its name, start, end, parent and
//    request id. ScopedSpan wraps a client call into the engine and makes
//    itself the thread's current span; an Env op takes that span as its
//    parent, so the group-commit leader's WAL append and sync land under the
//    leader's request. Env ops on engine threads are root spans. Each span
//    also keeps the time its direct children covered, so self time is
//    (end - start - child time).

#ifndef PERFBENCH_BENCH_ENV_H_
#define PERFBENCH_BENCH_ENV_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/env.h"

namespace perfbench {

enum class Role : uint8_t { kEngine, kMain, kOltp, kOlap };
constexpr int kNumRoles = 4;
const char* RoleName(Role role);

enum class FileKind : uint8_t { kWal, kSst, kManifest, kTxnLog, kOther };
constexpr int kNumKinds = 5;
const char* KindName(FileKind kind);
FileKind KindOfPath(const std::string& path);

enum class FileOp : uint8_t {
  kCreate,
  kAppend,
  kFlush,
  kSync,
  kRead,
  kClose,
  kRename,
  kRemove,
};
constexpr int kNumOps = 8;
const char* OpName(FileOp op);

/// The calling thread's role until the scope ends, when the previous role
/// comes back.
class RoleScope {
 public:
  explicit RoleScope(Role role);
  ~RoleScope();
  RoleScope(const RoleScope&) = delete;
  RoleScope& operator=(const RoleScope&) = delete;

 private:
  Role previous_;
};

inline int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One finished span. `child_ns` is the time covered by its direct children
/// (they never overlap: all of them ran on the span's own thread).
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;   ///< 0: root span
  uint64_t request = 0;  ///< id of the root client span; 0 for engine ops
  uint32_t name = 0;     ///< index into Tracer::names()
  Role role = Role::kEngine;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t child_ns = 0;

  int64_t self_ns() const { return end_ns - start_ns - child_ns; }
};

/// Collects spans in per-thread buffers while enabled. Spans are kept in
/// memory and taken out at the end of a trial.
class Tracer {
 public:
  static Tracer& Get();

  /// Stable id for `name` (thread-safe; call once per name, not per op).
  uint32_t Intern(const std::string& name);
  std::vector<std::string> names() const;

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_release); }
  bool enabled() const { return enabled_.load(std::memory_order_acquire); }

  /// Drains every thread's buffer. Safe while engine threads still record.
  std::vector<Span> TakeSpans();

  uint64_t NextId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  void Record(const Span& span);

 private:
  struct Buffer {
    std::mutex mu;
    std::vector<Span> spans;
  };
  Buffer* ThreadBuffer();

  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<std::string> names_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// Times one client call when tracing is on; a no-op otherwise. A span with
/// no enclosing span starts a new request.
class ScopedSpan {
 public:
  explicit ScopedSpan(uint32_t name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Called by a child when it ends.
  void AddChildTime(int64_t ns) { span_.child_ns += ns; }
  const Span& span() const { return span_; }

 private:
  bool active_ = false;
  Span span_;
  ScopedSpan* outer_ = nullptr;
};

/// What a file's Sync() costs under CountingEnv: it writes the file's buffer
/// to the OS and then waits this long on the CPU instead of calling fsync.
/// That is a durability barrier of fixed cost, about the median fsync
/// latency of the virtual disk the benchmark was tuned on (180-270 us on a
/// 4-vCPU VM), whose tail swung from 1 to 10 ms within minutes. The engine
/// still pays for every sync it asks for; timings do not follow the load of
/// other machines on a shared disk.
constexpr std::chrono::microseconds kModelledSync{200};

/// Per-(role, kind, op) totals. `nanos` is filled only while timing is on.
struct OpTotals {
  uint64_t calls = 0;
  uint64_t bytes = 0;
  uint64_t nanos = 0;
};

struct EnvSnapshot {
  std::array<std::array<std::array<OpTotals, kNumOps>, kNumKinds>, kNumRoles>
      totals{};

  /// Sum over roles (role < 0) or one role, and over kinds (kind < 0) or one.
  OpTotals Sum(int role, int kind, FileOp op) const;
  /// this - before, field by field.
  EnvSnapshot Minus(const EnvSnapshot& before) const;
};

class CountingEnv final : public laser::Env {
 public:
  /// Does not own `base`, which must outlive this Env.
  explicit CountingEnv(laser::Env* base);

  EnvSnapshot Snapshot() const;

  /// Records one op: always counted; timed and traced while the tracer is
  /// enabled (the caller passes start_ns = 0 when it was not timed).
  void Note(FileKind kind, FileOp op, uint64_t bytes, int64_t start_ns);
  /// Start timestamp for an op, or 0 when tracing is off.
  int64_t StartOp() const {
    return Tracer::Get().enabled() ? NowNanos() : 0;
  }

  laser::Status NewSequentialFile(
      const std::string& fname,
      std::unique_ptr<laser::SequentialFile>* result) override;
  laser::Status NewRandomAccessFile(
      const std::string& fname,
      std::unique_ptr<laser::RandomAccessFile>* result) override;
  laser::Status NewWritableFile(
      const std::string& fname,
      std::unique_ptr<laser::WritableFile>* result) override;
  bool FileExists(const std::string& fname) override;
  laser::Status GetChildren(const std::string& dir,
                            std::vector<std::string>* result) override;
  laser::Status RemoveFile(const std::string& fname) override;
  laser::Status CreateDir(const std::string& dirname) override;
  laser::Status RemoveDir(const std::string& dirname) override;
  laser::Status GetFileSize(const std::string& fname, uint64_t* size) override;
  laser::Status RenameFile(const std::string& src,
                           const std::string& target) override;
  uint64_t NowMicros() override { return base_->NowMicros(); }

 private:
  struct Counter {
    std::atomic<uint64_t> calls{0};
    std::atomic<uint64_t> bytes{0};
    std::atomic<uint64_t> nanos{0};
  };

  laser::Env* const base_;
  Counter counters_[kNumRoles][kNumKinds][kNumOps];
  uint32_t span_names_[kNumKinds][kNumOps];
};

/// Sum of the sizes of every regular file under `dir`, recursively (a
/// sharded root holds one directory per shard). Used for space amplification.
uint64_t DirectoryBytes(const std::string& dir);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_ENV_H_
