// htap_bench: the repository's HTAP benchmark driver.
//
//   htap_bench --workload ingest|htap_hw|tpcc_ch|all --seed N --seconds S
//              --trace 0|1 --workdir DIR
//
// A run repeats trials of one workload until `--seconds` have passed (and at
// least three untraced trials were measured, and every reported percentile
// has ten samples beyond it). Each trial sets up a fresh database under DIR,
// runs a fixed operation count, and checks the outputs. Trials during which
// the hypervisor stole CPU time are checked but not measured
// (kMaxStealShare); past `--seconds` a run waits up to a quarter as long
// again for enough calm ones. End-to-end metrics come from measured untraced
// trials: rates are medians over trials, percentiles medians over groups of
// trials (GroupedPercentile). With --trace 1, traced trials alternate with
// untraced ones; they give the per-layer metrics, the tracing overhead, and
// a span dump (DIR/spans-<workload>.tsv) for span_report.py.
//
// The last line of standard output is one JSON object:
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}
// The exit code is 1 when any output check failed, 2 on a usage or set-up
// error.

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_env.h"
#include "trial.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload = "all";
  uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  std::string workdir = ".bench_build/run";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args->seconds = std::stod(value);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--workdir") {
      args->workdir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1;
}

struct Workload {
  const char* name;
  bool (*run)(const TrialConfig&, TrialResult*);
  WorkloadInfo (*info)();
};

const Workload kWorkloads[] = {
    {"ingest", RunIngestTrial, IngestInfo},
    {"htap_hw", RunHtapTrial, HtapInfo},
    {"tpcc_ch", RunTpccTrial, TpccInfo},
};

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

/// CPU time of the whole VM in /proc/stat ticks: all of it, and the part
/// the hypervisor gave to other guests while our virtual CPUs wanted to run
/// (steal).
struct CpuTicks {
  uint64_t total = 0;
  uint64_t steal = 0;

  static CpuTicks Now() {
    CpuTicks t;
    std::ifstream in("/proc/stat");
    std::string cpu;  // the first line sums every CPU
    in >> cpu;
    uint64_t value = 0;
    for (int field = 0; field < 8 && in >> value; ++field) {  // user..steal
      t.total += value;
      if (field == 7) t.steal = value;
    }
    return t;
  }
};

/// A trial during which the hypervisor took more than this share of the
/// VM's CPU time is run and checked but not measured. In ten runs of ingest
/// on a 4-vCPU VM, the two runs with 17-24% steal measured about half the
/// ops/s and up to twice the set-up time of the eight with steal below 2%.
constexpr double kMaxStealShare = 0.02;

/// One named metric as printed and emitted.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
  uint64_t samples = 0;  ///< sample count behind the value
  bool ok = true;        ///< false: too few samples for this percentile
};

/// True if at least ten of `h`'s samples lie beyond its `p`-th percentile.
bool Supports(const laser::Histogram& h, int p) {
  return h.count() * static_cast<uint64_t>(100 - p) >= 10 * 100;
}

/// Percentile `p` of `h` scaled by `scale`; marked not ok unless Supports().
Metric Percentile(const std::string& name, const std::string& unit,
                  const laser::Histogram& h, int p, double scale = 1) {
  return Metric{name, unit, h.Percentile(p) * scale, h.count(), Supports(h, p)};
}

/// The trials a run measures.
struct MeasuredTrials {
  std::vector<const TrialResult*> untraced, traced;
  TrialResult pooled;  // samples of the untraced ones

  void Add(const TrialResult* t, bool is_traced) {
    (is_traced ? traced : untraced).push_back(t);
    if (is_traced) return;
    pooled.write_us.Merge(t->write_us);
    pooled.read_us.Merge(t->read_us);
    pooled.olap_round_ms.Merge(t->olap_round_ms);
    pooled.freshness_us.Merge(t->freshness_us);
  }
  /// Enough for every metric of the run: three untraced trials, every
  /// end-to-end percentile supported, and two traced trials if tracing.
  bool Suffice(bool trace) const {
    return untraced.size() >= 3 && Supports(pooled.write_us, 99) &&
           Supports(pooled.read_us, 99) && Supports(pooled.freshness_us, 99) &&
           Supports(pooled.olap_round_ms, 90) &&
           (!trace || traced.size() >= 2);
  }
};

double OpsPerSecond(const TrialResult& r) {
  return Ratio(static_cast<double>(r.ops.oltp_ops), r.oltp_seconds);
}

/// Percentile `p` of one kind of sample (`samples`) over `trials`, scaled
/// by `scale`: the median over groups of consecutive trials, each group just
/// large enough that ten of its samples lie beyond the percentile (a
/// remainder joins the last group). A trial disturbed by the host then moves
/// one group's value, not the tail of every sample pooled. Not ok when all
/// the trials together are too few.
Metric GroupedPercentile(const std::string& name, const std::string& unit,
                         const std::vector<const TrialResult*>& trials,
                         laser::Histogram TrialResult::*samples, int p,
                         double scale = 1) {
  std::vector<laser::Histogram> groups(1);
  uint64_t count = 0;
  for (const TrialResult* t : trials) {
    groups.back().Merge(t->*samples);
    count += (t->*samples).count();
    if (Supports(groups.back(), p)) groups.emplace_back();
  }
  if (groups.size() > 1) {
    laser::Histogram rest = std::move(groups.back());
    groups.pop_back();
    groups.back().Merge(rest);
  }
  std::vector<double> values;
  for (const laser::Histogram& h : groups) {
    values.push_back(h.Percentile(p) * scale);
  }
  return Metric{name, unit, Median(values), count, Supports(groups.front(), p)};
}

std::vector<Metric> EndToEnd(const std::vector<const TrialResult*>& trials) {
  std::vector<double> setup, ops, scan_rate, space;
  for (const TrialResult* t : trials) {
    setup.push_back(t->setup_s);
    ops.push_back(OpsPerSecond(*t));
    scan_rate.push_back(Ratio(static_cast<double>(t->ops.scan_rows),
                              t->olap_seconds));
    space.push_back(t->space_amp);
  }
  const uint64_t n = trials.size();
  auto pct = [&](const std::string& name, const std::string& unit,
                 laser::Histogram TrialResult::*samples, int p,
                 double scale = 1) {
    return GroupedPercentile(name, unit, trials, samples, p, scale);
  };
  return {
      {"setup_s", "s", Median(setup), n},
      {"ops_per_s", "1/s", Median(ops), n},
      pct("write_p50_us", "us", &TrialResult::write_us, 50),
      pct("write_p99_us", "us", &TrialResult::write_us, 99),
      pct("read_p50_us", "us", &TrialResult::read_us, 50),
      pct("read_p99_us", "us", &TrialResult::read_us, 99),
      {"scan_rows_per_s", "rows/s", Median(scan_rate), n},
      pct("olap_round_p50_ms", "ms", &TrialResult::olap_round_ms, 50),
      pct("olap_round_p90_ms", "ms", &TrialResult::olap_round_ms, 90),
      pct("freshness_p50_ms", "ms", &TrialResult::freshness_us, 50, 1e-3),
      pct("freshness_p99_ms", "ms", &TrialResult::freshness_us, 99, 1e-3),
      {"space_amp", "ratio", Median(space), n},
  };
}

/// Per-layer metrics of the traced trials. Ratios are medians of per-trial
/// values; percentiles pool every traced trial's spans.
std::vector<Metric> PerLayer(const std::vector<const TrialResult*>& traced,
                             double overhead_frac) {
  laser::Histogram write_self, read_self, scan_open, sync_us;
  std::map<std::string, std::vector<double>> per_trial;
  auto add = [&](const std::string& name, double value) {
    per_trial[name].push_back(value);
  };
  constexpr int kAnyRole = -1;
  const int wal = static_cast<int>(FileKind::kWal);
  const int sst = static_cast<int>(FileKind::kSst);
  const int txnlog = static_cast<int>(FileKind::kTxnLog);
  const int engine = static_cast<int>(Role::kEngine);
  const int oltp = static_cast<int>(Role::kOltp);
  const int olap = static_cast<int>(Role::kOlap);

  for (const TrialResult* t : traced) {
    write_self.Merge(t->write_self_us);
    read_self.Merge(t->read_self_us);
    scan_open.Merge(t->scan_open_us);
    sync_us.Merge(t->wal_sync_us);
    const Counters& c = t->stats;
    const EnvSnapshot& e = t->env;
    const double ops = static_cast<double>(std::max<uint64_t>(1, t->ops.oltp_ops));
    const double writes = static_cast<double>(t->ops.writes + t->ops.txns);
    const double krows = static_cast<double>(t->ops.scan_rows) / 1e3;
    const double probe_krows = static_cast<double>(t->scan_probe_rows) / 1e3;
    const Counters& rp = t->read_probe;
    const Counters& sp = t->scan_probe;

    add("laser.write.group_size",
        Ratio(static_cast<double>(c.wal_group_writes),
              static_cast<double>(c.wal_group_commits)));
    add("laser.write.stall_us_per_op",
        Ratio(static_cast<double>(c.write_stall_micros), writes));
    const OpTotals appends = e.Sum(kAnyRole, wal, FileOp::kAppend);
    add("wal.append_calls_per_op", static_cast<double>(appends.calls) / ops);
    add("wal.append_bytes_per_op", static_cast<double>(appends.bytes) / ops);
    add("wal.append_us_per_op", static_cast<double>(appends.nanos) / 1e3 / ops);
    add("wal.syncs_per_txn",
        static_cast<double>(e.Sum(kAnyRole, wal, FileOp::kSync).calls) / ops);
    add("shard.txnlog_syncs_per_txn",
        static_cast<double>(e.Sum(kAnyRole, txnlog, FileOp::kSync).calls) / ops);

    const double probe_reads = static_cast<double>(rp.point_reads);
    add("sst.bloom_checks_per_read",
        Ratio(static_cast<double>(rp.bloom_checks), probe_reads));
    add("sst.bloom_fpr",
        Ratio(static_cast<double>(rp.bloom_false_positives),
              static_cast<double>(rp.bloom_false_positives + rp.bloom_negatives)));
    add("sst.block_cache_hit_rate",
        Ratio(static_cast<double>(rp.block_cache_hits),
              static_cast<double>(rp.block_cache_hits + rp.block_cache_misses)));
    add("sst.data_blocks_per_read",
        Ratio(static_cast<double>(rp.data_block_reads), probe_reads));
    const OpTotals oltp_sst = e.Sum(oltp, sst, FileOp::kRead);
    const double reads = static_cast<double>(c.point_reads);
    add("env.sst_read.calls_per_read",
        Ratio(static_cast<double>(oltp_sst.calls), reads));
    add("env.sst_read.us_per_read",
        Ratio(static_cast<double>(oltp_sst.nanos) / 1e3, reads));

    add("scan.drain_self_us_per_krow", Ratio(t->drain_self_us, krows));
    add("scan.heap_resifts_per_krow",
        Ratio(static_cast<double>(sp.scan_heap_resifts), probe_krows));
    add("scan.source_advances_per_krow",
        Ratio(static_cast<double>(sp.scan_source_advances), probe_krows));
    add("scan.zip_row_frac", Ratio(static_cast<double>(sp.scan_zip_rows),
                                   static_cast<double>(sp.scan_rows_merged)));
    const double touched =
        static_cast<double>(sp.data_block_reads + sp.block_cache_hits);
    add("scan.data_blocks_per_krow", Ratio(touched, probe_krows));
    add("scan.zonemap_skip_frac",
        Ratio(static_cast<double>(sp.blocks_skipped_zonemap),
              static_cast<double>(sp.blocks_skipped_zonemap) + touched));
    add("scan.aggs_from_zonemap", static_cast<double>(sp.aggs_from_zonemap));
    add("env.sst_read.us_per_round",
        Ratio(static_cast<double>(e.Sum(olap, sst, FileOp::kRead).nanos) / 1e3,
              static_cast<double>(t->ops.rounds)));

    add("compaction.jobs", static_cast<double>(c.compaction_jobs));
    add("flush.jobs", static_cast<double>(c.flush_jobs));
    add("compaction.write_amp",
        Ratio(static_cast<double>(c.bytes_flushed + c.bytes_compacted),
              static_cast<double>(c.bytes_written_wal)));
    add("env.bg.write_bytes",
        static_cast<double>(e.Sum(engine, -1, FileOp::kAppend).bytes) / ops);
    add("env.bg.write_us",
        static_cast<double>(e.Sum(engine, -1, FileOp::kAppend).nanos) / 1e3 / ops);
    add("env.bg.sync_us",
        static_cast<double>(e.Sum(engine, -1, FileOp::kSync).nanos) / 1e3 / ops);
    add("cost.select_design_ms", t->select_design_ms);
  }

  const uint64_t n = traced.size();
  auto median = [&](const std::string& name, const std::string& unit) {
    return Metric{name, unit, Median(per_trial[name]), n};
  };
  auto pct = [](const std::string& name, const laser::Histogram& h, int p) {
    return Percentile(name, "us", h, p);
  };
  return {
      pct("laser.write.self_us_p50", write_self, 50),
      pct("laser.write.self_us_p99", write_self, 99),
      median("laser.write.group_size", "writes/group"),
      median("laser.write.stall_us_per_op", "us/op"),
      median("wal.append_calls_per_op", "calls/op"),
      median("wal.append_bytes_per_op", "B/op"),
      median("wal.append_us_per_op", "us/op"),
      median("wal.syncs_per_txn", "syncs/op"),
      pct("wal.sync_us_p50", sync_us, 50),
      median("shard.txnlog_syncs_per_txn", "syncs/op"),
      median("sst.bloom_checks_per_read", "1/read"),
      median("sst.bloom_fpr", "ratio"),
      median("sst.block_cache_hit_rate", "ratio"),
      median("sst.data_blocks_per_read", "blocks/read"),
      median("env.sst_read.calls_per_read", "calls/read"),
      median("env.sst_read.us_per_read", "us/read"),
      pct("laser.read.self_us_p50", read_self, 50),
      pct("scan.open_us_p50", scan_open, 50),
      median("scan.drain_self_us_per_krow", "us/krow"),
      median("scan.heap_resifts_per_krow", "1/krow"),
      median("scan.source_advances_per_krow", "1/krow"),
      median("scan.zip_row_frac", "ratio"),
      median("scan.data_blocks_per_krow", "blocks/krow"),
      median("scan.zonemap_skip_frac", "ratio"),
      median("scan.aggs_from_zonemap", "count/round"),
      median("env.sst_read.us_per_round", "us/round"),
      median("compaction.jobs", "count"),
      median("flush.jobs", "count"),
      median("compaction.write_amp", "ratio"),
      median("env.bg.write_bytes", "B/op"),
      median("env.bg.write_us", "us/op"),
      median("env.bg.sync_us", "us/op"),
      median("cost.select_design_ms", "ms"),
      Metric{"trace.overhead_frac", "ratio", overhead_frac, n},
  };
}

void PrintMetrics(const char* title, const std::vector<Metric>& metrics) {
  printf("\n%s\n", title);
  printf("  %-32s %14s  %-12s %8s\n", "metric", "value", "unit", "samples");
  for (const Metric& m : metrics) {
    printf("  %-32s %14.4f  %-12s %8" PRIu64 "%s\n", m.name.c_str(), m.value,
           m.unit.c_str(), m.samples, m.ok ? "" : "  (too few samples)");
  }
}

/// Writes the spans of one traced trial as TSV for span_report.py. Past
/// kMaxDumpSpans, whole requests (and engine spans) are kept 1 in `every`,
/// so each kept request still adds up. Returns `every`.
uint64_t DumpSpans(const std::string& path, const std::vector<Span>& spans) {
  constexpr uint64_t kMaxDumpSpans = 100000;
  const uint64_t every = 1 + spans.size() / kMaxDumpSpans;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return every;
  const std::vector<std::string> names = Tracer::Get().names();
  std::fprintf(f, "id\tparent\trequest\tname\trole\tstart_ns\tend_ns\tchild_ns\n");
  for (const Span& s : spans) {
    if ((s.request != 0 ? s.request : s.id) % every != 0) continue;
    std::fprintf(f, "%" PRIu64 "\t%" PRIu64 "\t%" PRIu64 "\t%s\t%s\t%" PRId64
                    "\t%" PRId64 "\t%" PRId64 "\n",
                 s.id, s.parent, s.request, names[s.name].c_str(),
                 RoleName(s.role), s.start_ns, s.end_ns, s.child_ns);
  }
  std::fclose(f);
  return every;
}

struct RunOutcome {
  bool ran = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
};

RunOutcome RunWorkload(const Workload& w, const Args& args, CountingEnv* env) {
  printf("\n=== workload %s (seed %" PRIu64 ", %s) ===\n", w.name, args.seed,
         args.trace ? "traced + untraced trials" : "untraced trials");
  std::vector<std::unique_ptr<TrialResult>> trials;
  struct Ran {
    double steal;
    bool traced;
    const TrialResult* result;
  };
  std::vector<Ran> ran;
  MeasuredTrials measured;  // the trials with steal <= kMaxStealShare
  MeasuredTrials all;       // every trial
  std::vector<Span> last_spans;  // of the last traced trial, for the dump
  RunOutcome outcome;
  const int64_t start = NowNanos();
  // Hard stop well inside the 180 s budget even if trials run long.
  const double cap_s = std::max(args.seconds * 3, 30.0);
  for (int i = 0;; ++i) {
    const bool trace_this = args.trace && i % 2 == 1;
    TrialConfig config;
    config.seed = args.seed * 1000 + static_cast<uint64_t>(i);
    config.traced = trace_this;
    config.dir = args.workdir + "/db-" + w.name;
    config.env = env;
    env->RemoveDir(config.dir);
    auto result = std::make_unique<TrialResult>();
    const CpuTicks cpu_before = CpuTicks::Now();
    if (!w.run(config, result.get())) {
      fprintf(stderr, "%s: trial %d could not set up\n", w.name, i);
      outcome.ran = false;
      return outcome;
    }
    const CpuTicks cpu_after = CpuTicks::Now();
    const double steal =
        Ratio(static_cast<double>(cpu_after.steal - cpu_before.steal),
              static_cast<double>(cpu_after.total - cpu_before.total));
    const bool calm = steal <= kMaxStealShare;
    if (trace_this) {
      SummarizeSpans(result.get());
      last_spans = std::move(result->spans);
    }
    const TrialResult& r = *result;
    printf("trial %2d %-8s setup %.3fs  oltp %.3fs  ops/s %.0f  rounds %" PRIu64
           "  fresh %" PRIu64 "  failed %" PRIu64 "  steal %.1f%%%s\n",
           i, trace_this ? "traced" : "untraced", r.setup_s, r.oltp_seconds,
           OpsPerSecond(r), r.ops.rounds, r.freshness_us.count(), r.failed,
           100 * steal, calm ? "" : "  (not measured)");
    for (const std::string& e : r.errors) printf("  CHECK FAILED: %s\n", e.c_str());
    outcome.attempted += r.attempted;
    outcome.failed += r.failed;
    ran.push_back({steal, trace_this, result.get()});
    if (calm) measured.Add(result.get(), trace_this);
    all.Add(result.get(), trace_this);
    trials.push_back(std::move(result));

    // Past --seconds, wait up to a quarter as long again for enough calm
    // trials (steal came in episodes of minutes, so waiting longer rarely
    // helps and would stretch every run of such an episode).
    const double elapsed = static_cast<double>(NowNanos() - start) / 1e9;
    const bool done =
        elapsed >= args.seconds &&
        (measured.Suffice(args.trace) ||
         (all.Suffice(args.trace) && elapsed >= 1.25 * args.seconds));
    if (done || elapsed >= cap_s) break;
  }
  if (!measured.Suffice(args.trace)) {
    // Steal never stayed low for long: measure the least disturbed trials
    // that suffice (at worst all of them).
    std::stable_sort(ran.begin(), ran.end(), [](const Ran& a, const Ran& b) {
      return a.steal < b.steal;
    });
    measured = MeasuredTrials();
    for (const Ran& t : ran) {
      if (measured.Suffice(args.trace)) break;
      measured.Add(t.result, t.traced);
    }
    printf("too few trials with steal <= %.0f%%: measuring the %zu least "
           "disturbed\n",
           100 * kMaxStealShare,
           measured.untraced.size() + measured.traced.size());
  }
  const std::vector<const TrialResult*>& untraced = measured.untraced;
  const std::vector<const TrialResult*>& traced = measured.traced;


  std::vector<Metric> e2e = EndToEnd(untraced);
  PrintMetrics("end-to-end (untraced trials)", e2e);
  printf("  %-32s %14.6f  %-12s %8" PRIu64 "\n", "failed_frac",
         Ratio(static_cast<double>(outcome.failed),
               static_cast<double>(outcome.attempted)),
         "ratio", outcome.attempted);
  if (!args.trace) {
    outcome.metrics = e2e;
    return outcome;
  }
  if (traced.empty()) {  // the time cap ended the run first
    fprintf(stderr, "%s: no traced trial completed\n", w.name);
    outcome.ran = false;
    return outcome;
  }

  std::vector<double> ops_untraced, ops_traced;
  for (const TrialResult* t : untraced) ops_untraced.push_back(OpsPerSecond(*t));
  for (const TrialResult* t : traced) ops_traced.push_back(OpsPerSecond(*t));
  const double overhead =
      1 - Ratio(Median(ops_traced), Median(ops_untraced));
  outcome.metrics = PerLayer(traced, overhead);
  PrintMetrics("per-layer (traced trials)", outcome.metrics);
  printf("  tracing overhead: traced ops/s %.0f vs untraced %.0f (%.1f%%)\n",
         Median(ops_traced), Median(ops_untraced), 100 * overhead);
  if (!traced.back()->cost_lines.empty()) {
    printf("\ncost-model cross-check (Eq. 5/6 vs measured, per query, "
           "quiesced, last traced trial)\n");
    for (const std::string& line : traced.back()->cost_lines) {
      printf("  %s\n", line.c_str());
    }
  }
  const std::string dump = args.workdir + "/spans-" + w.name + ".tsv";
  const uint64_t every = DumpSpans(dump, last_spans);
  printf("span dump: %s (%zu spans, requests kept 1 in %" PRIu64
         "; python3 perfbench/span_report.py %s)\n",
         dump.c_str(), last_spans.size(), every, dump.c_str());
  return outcome;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    fprintf(stderr,
            "usage: htap_bench --workload ingest|htap_hw|tpcc_ch|all --seed N "
            "--seconds S --trace 0|1 --workdir DIR\n");
    return 2;
  }
  std::vector<const Workload*> selected;
  for (const Workload& w : kWorkloads) {
    if (args.workload == "all" || args.workload == w.name) selected.push_back(&w);
  }
  if (selected.empty()) {
    fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  std::filesystem::create_directories(args.workdir);
  RoleScope role(Role::kMain);

  // Run record: enough to trace any number to its machine and settings.
  printf("run record:\n  nproc=%u cpu=\"%s\"\n  seed=%" PRIu64
         " seconds=%.0f trace=%d env=PosixEnv (through the benchmark's "
         "counting Env; fsync modelled as %lld us)\n",
         std::thread::hardware_concurrency(), CpuModel().c_str(), args.seed,
         args.seconds, args.trace ? 1 : 0,
         static_cast<long long>(kModelledSync.count()));
  for (const Workload* w : selected) {
    const WorkloadInfo info = w->info();
    printf("  %s: clients=%s; wal=%s; ops=%s; tree=%s\n", info.name.c_str(),
           info.clients.c_str(), info.sync_policy.c_str(), info.op_counts.c_str(),
           info.tree_shape.c_str());
  }

  CountingEnv env(laser::Env::Default());
  const std::string check = EnvSelfCheck(args.workdir + "/self-check");
  printf("env self-check: %s\n", check.empty() ? "ok" : check.c_str());

  bool correct = check.empty();
  uint64_t attempted = 1, failed = check.empty() ? 0 : 1;
  std::vector<Metric> metrics;
  for (const Workload* w : selected) {
    RunOutcome outcome = RunWorkload(*w, args, &env);
    if (!outcome.ran) return 2;
    attempted += outcome.attempted;
    failed += outcome.failed;
    // An end-to-end percentile without ten samples beyond it is not a
    // measurement; per-layer ones that do not apply to a workload read 0.
    for (const Metric& m : outcome.metrics) {
      if (!m.ok && !args.trace) {
        fprintf(stderr, "%s: %s has too few samples\n", w->name, m.name.c_str());
        return 2;
      }
    }
    if (selected.size() == 1) metrics = outcome.metrics;
  }
  correct = correct && failed == 0;

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted) +
          ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    json += (i > 0 ? ", \"" : "\"") + JsonEscape(metrics[i].name) +
            "\": {\"value\": " + value + ", \"unit\": \"" +
            JsonEscape(metrics[i].unit) + "\"}";
  }
  json += "}}";
  printf("\n%s\n", json.c_str());
  return correct ? 0 : 1;
}
