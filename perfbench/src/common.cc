// Helpers shared by the workloads, and the Env decorator's self-check.

#include <cstring>
#include <memory>
#include <thread>

#include "laser/laser_db.h"
#include "trial.h"
#include "util/hash.h"

namespace perfbench {

Counters Counters::From(const laser::Stats& stats) {
  Counters out;
#define PERFBENCH_LOAD(name) out.name = stats.name.load();
  PERFBENCH_COUNTERS(PERFBENCH_LOAD)
#undef PERFBENCH_LOAD
  return out;
}

Counters Counters::Minus(const Counters& before) const {
  Counters out;
#define PERFBENCH_SUB(name) out.name = name - before.name;
  PERFBENCH_COUNTERS(PERFBENCH_SUB)
#undef PERFBENCH_SUB
  return out;
}

Counters EngineCounters(laser::LaserDB* db) {
  return Counters::From(db->stats());
}

Counters EngineCounters(laser::ShardedLaserDB* db) {
  laser::Stats stats;
  db->AggregateStats(&stats);
  return Counters::From(stats);
}

const SpanNames& SpanNames::Get() {
  static const SpanNames names = [] {
    Tracer& tracer = Tracer::Get();
    SpanNames n;
    n.write = tracer.Intern("write");
    n.read = tracer.Intern("read");
    n.round = tracer.Intern("olap.round");
    n.scan_open = tracer.Intern("scan.open");
    n.scan_drain = tracer.Intern("scan.drain");
    n.txn[0] = tracer.Intern("txn.new_order");
    n.txn[1] = tracer.Intern("txn.payment");
    n.txn[2] = tracer.Intern("txn.order_status");
    return n;
  }();
  return names;
}

void SummarizeSpans(TrialResult* result) {
  const SpanNames& names = SpanNames::Get();
  const uint32_t wal_sync = Tracer::Get().Intern("env.wal.sync");
  for (const Span& s : result->spans) {
    const double self_us = static_cast<double>(s.self_ns()) / 1e3;
    const double wall_us = static_cast<double>(s.end_ns - s.start_ns) / 1e3;
    if (s.name == names.write) result->write_self_us.Add(self_us);
    if (s.name == names.read) result->read_self_us.Add(self_us);
    if (s.name == names.scan_open) result->scan_open_us.Add(wall_us);
    if (s.name == names.scan_drain && s.role == Role::kOlap) {
      result->drain_self_us += self_us;
    }
    if (s.name == wal_sync) result->wal_sync_us.Add(wall_us);
  }
}

uint64_t Scatter48(uint64_t ordinal, uint64_t seed) {
  // Multiplying by an odd constant and xoring a constant are both
  // bijections mod 2^48, and so is their composition.
  constexpr uint64_t kMask = kKeyDomain - 1;
  const uint64_t salt = (seed * 0x9e3779b97f4a7c15ull) & kMask;
  uint64_t x = ordinal & kMask;
  x = (x * 0xd6e8feb86659fd93ull) & kMask;
  x ^= salt;
  x = (x * 0xa0761d6478bd642full) & kMask;
  x ^= x >> 23;  // xorshift by at least half the width is invertible
  return x & kMask;
}

uint64_t Payload(uint64_t key, int col, uint64_t seed) {
  char buf[20];
  memcpy(buf, &key, 8);
  memcpy(buf + 8, &col, 4);
  memcpy(buf + 12, &seed, 8);
  return laser::Hash32(buf, sizeof(buf), 0x5eedf00d) & 0x7fffffffu;
}

laser::Status LoadRows(
    laser::LaserDB* db, uint64_t n, uint64_t seed,
    const std::function<std::vector<laser::ColumnValue>(uint64_t key)>& row) {
  laser::WriteBatch batch;
  for (uint64_t i = 0; i < n; ++i) {
    const uint64_t key = Scatter48(i, seed);
    batch.Insert(key, row(key));
    if (batch.count() == 500 || i + 1 == n) {
      LASER_RETURN_IF_ERROR(db->Write(batch));
      batch.Clear();
    }
  }
  return laser::Status::OK();
}

bool RowMatches(const laser::LaserDB::ReadResult& got,
                const std::vector<laser::ColumnValue>& want) {
  if (!got.found || got.values.size() != want.size()) return false;
  for (size_t i = 0; i < want.size(); ++i) {
    if (!got.values[i].has_value() || *got.values[i] != want[i]) return false;
  }
  return true;
}

std::string EnvSelfCheck(const std::string& dir) {
  using laser::LaserDB;
  using laser::LaserOptions;
  using laser::WalSyncPolicy;

  // Each phase stays inside one 32 KiB WAL block, so the log writer emits
  // exactly one physical record (one header, one flush) per commit group.
  struct Phase {
    WalSyncPolicy policy;
    int threads;
    int writes_per_thread;
  };
  const Phase phases[] = {{WalSyncPolicy::kSyncEveryWrite, 1, 40},
                          {WalSyncPolicy::kSyncEveryGroup, 4, 40}};
  CountingEnv env(laser::Env::Default());
  for (const Phase& phase : phases) {
    env.RemoveDir(dir);
    LaserOptions options;
    options.env = &env;
    options.path = dir;
    options.schema = laser::Schema::UniformInt32(4);
    options.num_levels = 4;
    options.wal_sync_policy = phase.policy;
    std::unique_ptr<LaserDB> db;
    laser::Status s = LaserDB::Open(options, &db);
    if (!s.ok()) return "self-check open: " + s.ToString();

    const EnvSnapshot env_before = env.Snapshot();
    const Counters before = Counters::From(db->stats());
    std::vector<std::thread> threads;
    std::atomic<int> failures{0};
    for (int t = 0; t < phase.threads; ++t) {
      threads.emplace_back([&, t] {
        RoleScope role(Role::kOltp);
        for (int i = 0; i < phase.writes_per_thread; ++i) {
          const uint64_t key = static_cast<uint64_t>(t) * 1000 + i;
          if (!db->Insert(key, {key, 1, 2, 3}).ok()) failures.fetch_add(1);
        }
      });
    }
    for (auto& thread : threads) thread.join();
    const Counters delta = Counters::From(db->stats()).Minus(before);
    const EnvSnapshot env_delta = env.Snapshot().Minus(env_before);
    db.reset();
    env.RemoveDir(dir);
    if (failures.load() != 0) return "self-check: a write failed";

    const int wal = static_cast<int>(FileKind::kWal);
    const OpTotals appends = env_delta.Sum(-1, wal, FileOp::kAppend);
    const OpTotals flushes = env_delta.Sum(-1, wal, FileOp::kFlush);
    const OpTotals syncs = env_delta.Sum(-1, wal, FileOp::kSync);
    constexpr uint64_t kHeaderBytes = 7;
    const uint64_t want_bytes =
        delta.bytes_written_wal + kHeaderBytes * delta.wal_group_commits;
    char buf[256];
    if (appends.bytes != want_bytes || flushes.calls != delta.wal_group_commits ||
        syncs.calls != delta.wal_syncs) {
      snprintf(buf, sizeof(buf),
               "self-check (%d threads): env wal bytes %llu vs stats %llu + "
               "7 x %llu groups; env wal flushes %llu; env wal syncs %llu vs "
               "stats %llu",
               phase.threads, static_cast<unsigned long long>(appends.bytes),
               static_cast<unsigned long long>(delta.bytes_written_wal),
               static_cast<unsigned long long>(delta.wal_group_commits),
               static_cast<unsigned long long>(flushes.calls),
               static_cast<unsigned long long>(syncs.calls),
               static_cast<unsigned long long>(delta.wal_syncs));
      return buf;
    }
    if (phase.policy == WalSyncPolicy::kSyncEveryWrite &&
        syncs.calls != static_cast<uint64_t>(phase.writes_per_thread)) {
      return "self-check: sync_every_write did not fsync once per write";
    }
  }
  return "";
}

}  // namespace perfbench
