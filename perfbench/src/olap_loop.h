// The measured phase shared by every workload.
//
// OlapLoop is the OLAP client: one thread that runs analytic rounds back to
// back while the OLTP clients run (a closed loop: the next round starts when
// the previous one returns), then one last round after they stop so every
// acknowledged write is observed by the freshness probe. That last round
// runs on a quiet engine, so it is left out of the round statistics.
//
// RunMeasuredPhase runs the OLTP clients beside an OlapLoop and takes the
// before/after deltas of the engine counters, the Env totals and the spans.

#ifndef PERFBENCH_OLAP_LOOP_H_
#define PERFBENCH_OLAP_LOOP_H_

#include <atomic>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "trial.h"
#include "util/status.h"

namespace perfbench {

class OlapLoop {
 public:
  /// `round` runs one analytic round and reports the rows it folded; only
  /// it is timed.
  using Round = std::function<laser::Status(uint64_t* rows)>;
  /// Runs after each successful round, off the round's clock: benchmark
  /// bookkeeping such as feeding the freshness probe.
  using Observe = std::function<void()>;

  OlapLoop(Round round, Observe observe)
      : round_(std::move(round)), observe_(std::move(observe)) {
    thread_ = std::thread([this] { Loop(); });
  }
  ~OlapLoop() { Stop(); }
  OlapLoop(const OlapLoop&) = delete;
  OlapLoop& operator=(const OlapLoop&) = delete;

  /// Signals the OLTP clients are done, waits for the last round, and adds
  /// the round statistics to `result`.
  void Finish(TrialResult* result) {
    Stop();
    result->olap_round_ms.Merge(round_ms_);
    result->olap_seconds += busy_s_;
    result->ops.rounds += rounds_;
    result->ops.scan_rows += rows_;
    result->attempted += rounds_ + 1;
    if (!status_.ok()) result->Fail("olap round: " + status_.ToString());
  }

 private:
  void Stop() {
    stop_.store(true, std::memory_order_release);
    if (thread_.joinable()) thread_.join();
  }

  void Loop() {
    RoleScope role(Role::kOlap);
    const uint32_t span_name = SpanNames::Get().round;
    bool last = false;
    while (status_.ok()) {
      last = stop_.load(std::memory_order_acquire);
      uint64_t rows = 0;
      const int64_t start = NowNanos();
      {
        ScopedSpan span(span_name);
        status_ = round_(&rows);
      }
      const int64_t end = NowNanos();
      if (status_.ok() && observe_) observe_();
      if (last) return;
      round_ms_.Add(static_cast<double>(end - start) / 1e6);
      busy_s_ += static_cast<double>(end - start) / 1e9;
      ++rounds_;
      rows_ += rows;
    }
  }

  const Round round_;
  const Observe observe_;
  std::atomic<bool> stop_{false};
  // Written by the loop thread only; read after it is joined.
  laser::Status status_;
  laser::Histogram round_ms_;
  double busy_s_ = 0;
  uint64_t rounds_ = 0;
  uint64_t rows_ = 0;
  std::thread thread_;  // last: starts after every member above exists
};

/// What one OLTP client measured; merged into the trial after it joins.
struct ClientLog {
  laser::Histogram write_us;  ///< calls that commit data
  laser::Histogram read_us;   ///< read-only calls
  uint64_t attempts = 0;
  uint64_t failures = 0;
  std::string first_error;

  void Fail(const std::string& what) {
    if (failures++ == 0) first_error = what;
  }
};

/// The measured phase of a trial on `db` (a LaserDB or a ShardedLaserDB).
/// Turns tracing on for a traced trial, starts an OlapLoop, runs
/// `client(i, &log_i)` on `clients` OLTP threads, and, once they joined and
/// the engine's background work drained, fills `result` with the OLTP wall
/// time, the round statistics, the counter/Env/span deltas and the clients'
/// histograms, attempts and failures.
template <typename DB>
void RunMeasuredPhase(DB* db, const TrialConfig& config, int clients,
                      const std::function<void(int, ClientLog*)>& client,
                      OlapLoop::Round round, OlapLoop::Observe observe,
                      TrialResult* result) {
  std::vector<ClientLog> logs(clients);
  Tracer::Get().set_enabled(config.traced);
  const Counters stats_before = EngineCounters(db);
  const EnvSnapshot env_before = config.env->Snapshot();
  {
    OlapLoop olap(std::move(round), std::move(observe));
    const int64_t start = NowNanos();
    std::vector<std::thread> threads;
    for (int i = 0; i < clients; ++i) {
      threads.emplace_back([&, i] {
        RoleScope role(Role::kOltp);
        client(i, &logs[i]);
      });
    }
    for (std::thread& thread : threads) thread.join();
    result->oltp_seconds = static_cast<double>(NowNanos() - start) / 1e9;
    Tracer::Get().set_enabled(false);  // the last, quiet round is not traced
    olap.Finish(result);
  }
  db->WaitForBackgroundWork();
  result->stats = EngineCounters(db).Minus(stats_before);
  result->env = config.env->Snapshot().Minus(env_before);
  if (config.traced) result->spans = Tracer::Get().TakeSpans();

  for (const ClientLog& log : logs) {
    result->write_us.Merge(log.write_us);
    result->read_us.Merge(log.read_us);
    result->attempted += log.attempts;
    result->failed += log.failures;
    if (log.failures > 0) result->errors.push_back(log.first_error);
  }
  result->ops.oltp_ops = result->write_us.count() + result->read_us.count();
}

}  // namespace perfbench

#endif  // PERFBENCH_OLAP_LOOP_H_
