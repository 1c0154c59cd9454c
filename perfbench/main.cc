// perfbench: rdsim's benchmark driver.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--expect-digest HEX] [--trace-dir DIR]
//             [--git-sha SHA]
//
// Runs repetitions of one workload (workloads.h) until the timed phases
// add up to S seconds (at least three), checks every repetition's
// simulated output, and prints a report ("# " lines), a provenance line,
// and last a JSON result: {"correct", "attempted", "failed", "metrics"}.
// With --trace 0 the metrics are the end-to-end ones, medians over the
// repetitions. With --trace 1 untraced and traced repetitions alternate;
// the metrics are the per-layer ones derived from the traced
// repetitions' spans, and the first traced repetition's spans are written
// to DIR as Chrome Trace Event JSON.
//
// Output checks: every repetition's digest (CRC32 of the completion log,
// or of every drive's snapshot) must agree; --expect-digest is the
// digest recorded for seed 42, which is rerun once when --seed differs;
// and a traced run must reach every layer its workload is meant to.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "trace.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_MARCH
#define PERFBENCH_MARCH ""
#endif

namespace perfbench {
namespace {

namespace host = rdsim::host;

constexpr std::uint64_t kDefaultSeed = 42;
constexpr std::size_t kMinReps = 3;
constexpr std::size_t kMaxReps = 1000;
constexpr std::uint64_t kTraceSampleEvery = 16;
constexpr std::size_t kTraceMaxSpans = 40000;

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string expect_digest;
  std::string trace_dir = ".";
  std::string git_sha = "unknown";
};

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--expect-digest HEX] [--trace-dir DIR] "
               "[--git-sha SHA]\nworkloads:");
  for (const Workload& w : all_workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
}

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a->workload = value;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      a->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(a->seconds > 0.0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      a->trace = value == "1";
    } else if (flag == "--expect-digest") {
      a->expect_digest = value;
    } else if (flag == "--trace-dir") {
      a->trace_dir = value;
    } else if (flag == "--git-sha") {
      a->git_sha = value;
    } else {
      return false;
    }
  }
  return !a->workload.empty();
}

std::string hex(std::uint32_t v) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "%08x", v);
  return buf;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank quantile of host-time samples, in microseconds.
double quantile_us(std::vector<std::int64_t> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto k = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())) - 1.0);
  return static_cast<double>(v[std::min(k, v.size() - 1)]) * 1e-3;
}

double kpages_per_s(const Rep& r) {
  return static_cast<double>(r.pages) / r.timed_s * 1e-3;
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux.
}

std::vector<Metric> end_to_end_metrics(const std::vector<Rep>& reps) {
  std::vector<double> setup, kpps, cpu;
  for (const Rep& r : reps) {
    setup.push_back(r.setup_s);
    kpps.push_back(kpages_per_s(r));
    cpu.push_back(r.cpu_s / static_cast<double>(r.pages) * 1e6);
  }
  const Rep& r = reps.front();
  return {
      {"setup_s", median(setup), "s"},
      {"kpages_per_s", median(kpps), "kpages/s"},
      {"cpu_us_per_page", median(cpu), "us"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"sim_waf", r.counts.waf(), "ratio"},
  };
}

/// The per-layer metrics of one traced repetition, in a fixed order.
std::vector<Metric> layer_metrics(const Workload& w, const Rep& r,
                                  const Tracer& t) {
  const Totals timed = t.totals(Phase::kTimed);
  const Totals setup = t.totals(Phase::kSetup);
  const auto at = [](const Totals& tt, Kind k) -> const KindTotals& {
    return tt[static_cast<std::size_t>(k)];
  };
  const auto s = [](std::int64_t ns) { return static_cast<double>(ns) * 1e-9; };
  const auto per = [](std::int64_t ns, std::uint64_t n) {
    return n == 0 ? 0.0 : static_cast<double>(ns) / static_cast<double>(n);
  };

  const double wall_s = r.timed_s;
  std::int64_t busy_ns = 0;
  for (const KindTotals& k : timed) busy_ns += k.self_ns;
  const double thread_s = wall_s * w.threads;

  const std::int64_t engine_ns = at(timed, Kind::kHostStep).self_ns +
                                 at(timed, Kind::kHostEndOfDay).self_ns;
  const std::vector<std::int64_t> steps =
      t.root_durations_ns(Phase::kTimed, Kind::kHostStep);

  const KindTotals& service = at(timed, Kind::kServicerService);
  const std::vector<std::int64_t> shard_busy = t.shard_busy_ns(Phase::kTimed);
  double imbalance = 0.0;
  if (!shard_busy.empty()) {
    std::int64_t sum = 0, max = 0;
    for (const std::int64_t b : shard_busy) {
      sum += b;
      max = std::max(max, b);
    }
    imbalance = ratio(static_cast<double>(max) * shard_busy.size(),
                      static_cast<double>(sum));
  }

  // Generation is timed on lifetime and part of set-up elsewhere.
  const KindTotals& gen = at(timed, Kind::kWorkloadGen).count > 0
                              ? at(timed, Kind::kWorkloadGen)
                              : at(setup, Kind::kWorkloadGen);
  const KindTotals& ssd_service = at(timed, Kind::kSsdService);
  const KindTotals& ssd_eod = at(timed, Kind::kSsdEndOfDay);

  const Counts& c = r.counts;
  const host::ErrorStats& e = c.errors;
  const std::uint64_t flash_writes = c.ftl_host_writes + c.ftl_gc_writes +
                                     c.ftl_refresh_writes + c.ftl_other_writes;
  const auto n = [](std::uint64_t v) { return static_cast<double>(v); };

  return {
      {"host.engine_self_s", s(engine_ns), "s"},
      {"host.engine_ns_per_cmd", per(engine_ns, r.commands), "ns"},
      {"host.step_us.p50", quantile_us(steps, 0.50), "us"},
      {"host.step_us.p99", quantile_us(steps, 0.99), "us"},
      {"host.step_samples", n(steps.size()), "count"},
      {"host.commands", n(r.commands), "count"},
      {"host.pages", n(r.pages), "count"},
      {"host.sim_read_p99_us", r.sim_read_p99_us, "us"},
      {"host.make_device_s", s(at(setup, Kind::kMakeDevice).total_ns), "s"},
      {"host.warm_fill_s", s(at(setup, Kind::kWarmFill).total_ns), "s"},
      {"servicer.service_busy_s", s(service.total_ns), "s"},
      {"servicer.service_ns_per_page", per(service.total_ns, service.work),
       "ns"},
      {"servicer.service_calls", n(service.count), "count"},
      {"servicer.shard_busy_imbalance", imbalance, "ratio"},
      {"servicer.end_of_day_busy_s",
       s(at(timed, Kind::kServicerEndOfDay).total_ns), "s"},
      {"pool.idle_s", thread_s - s(busy_ns), "s"},
      {"pool.parallelism", ratio(s(busy_ns), wall_s), "threads"},
      {"workload.gen_ns_per_cmd", per(gen.total_ns, gen.work), "ns"},
      {"workload.gen_self_s", s(gen.self_ns), "s"},
      {"ssd.service_ns_per_page", per(ssd_service.total_ns, ssd_service.work),
       "ns"},
      {"ssd.end_of_day_ms_per_drive_day",
       per(ssd_eod.total_ns, ssd_eod.count) * 1e-6, "ms"},
      {"ssd.background_sim_s", c.background_sim_s, "s"},
      {"ssd.tuning_probe_sim_s", c.tuning_probe_sim_s, "s"},
      {"ftl.host_writes", n(c.ftl_host_writes), "count"},
      {"ftl.gc_writes", n(c.ftl_gc_writes), "count"},
      {"ftl.gc_erases", n(c.ftl_gc_erases), "count"},
      {"ftl.refresh_writes", n(c.ftl_refresh_writes), "count"},
      {"ftl.max_pe", n(c.ftl_max_pe), "count"},
      {"ftl.host_write_share", ratio(n(c.ftl_host_writes), n(flash_writes)),
       "ratio"},
      {"nand.pages_read", n(c.pages_read), "count"},
      {"nand.read_bit_errors", n(c.read_bit_errors), "count"},
      {"nand.block_rewrites", n(c.block_rewrites), "count"},
      {"nand.pre_age_s", s(at(setup, Kind::kPreAge).total_ns), "s"},
      {"ecc.reads_ok", n(e.reads_ok), "count"},
      {"ecc.reads_corrected", n(e.reads_corrected), "count"},
      {"ecc.reads_uncorrectable", n(e.reads_uncorrectable), "count"},
      {"ecc.sim_uber", r.sim_uber, "ratio"},
      {"core.retry_attempts", n(e.retry_attempts), "count"},
      {"core.retry_recovered", n(e.reads_retry_recovered), "count"},
      {"core.rdr_attempts", n(e.rdr_attempts), "count"},
      {"core.rdr_runs", n(c.rdr_runs), "count"},
      {"core.rdr_recovered", n(e.reads_rdr_recovered), "count"},
      {"core.rdr_yield", ratio(n(e.reads_rdr_recovered), n(e.rdr_attempts)),
       "ratio"},
      {"core.retry_sim_s", e.retry_seconds, "s"},
      {"core.rdr_sim_s", e.rdr_seconds, "s"},
      {"trace.gap_pct",
       100.0 * (1.0 - ratio(s(r.loop_covered_ns), wall_s)), "%"},
  };
}

/// Where one traced repetition's timed thread time went: every span
/// kind's self time, then pool idle, each with its share.
std::string accounting_table(const Workload& w, const Rep& r,
                             const Tracer& t) {
  const Totals timed = t.totals(Phase::kTimed);
  const double thread_ns = r.timed_s * 1e9 * w.threads;
  std::string out;
  char buf[160];
  double busy_ns = 0.0;
  for (std::size_t k = 0; k < kKinds; ++k) {
    if (timed[k].count == 0) continue;
    const auto self = static_cast<double>(timed[k].self_ns);
    busy_ns += self;
    std::snprintf(buf, sizeof buf, "#   %-22s self %10.4f s  %6.2f%%\n",
                  kind_name(static_cast<Kind>(k)), self * 1e-9,
                  100.0 * self / thread_ns);
    out += buf;
  }
  std::snprintf(buf, sizeof buf, "#   %-22s      %10.4f s  %6.2f%%\n",
                "pool idle", (thread_ns - busy_ns) * 1e-9,
                100.0 * (thread_ns - busy_ns) / thread_ns);
  return out + buf;
}

/// The layers each workload is built to reach: their counts must be
/// non-zero there.
std::vector<std::string> required_nonzero(const std::string& workload) {
  if (workload == "lifetime")
    return {"ftl.host_writes",       "ftl.gc_writes",
            "ftl.gc_erases",         "ftl.max_pe",
            "workload.gen_ns_per_cmd", "ssd.service_ns_per_page",
            "ssd.end_of_day_ms_per_drive_day", "ssd.tuning_probe_sim_s",
            "ssd.background_sim_s",  "pool.parallelism"};
  if (workload == "mc_reliability")
    return {"servicer.service_calls", "nand.pages_read",
            "nand.read_bit_errors",   "nand.block_rewrites",
            "nand.pre_age_s",         "ecc.reads_ok",
            "ecc.reads_corrected",    "ecc.reads_uncorrectable",
            "core.retry_attempts",    "core.retry_recovered",
            "core.rdr_attempts",      "core.rdr_runs",
            "core.retry_sim_s",       "core.rdr_sim_s",
            "host.engine_self_s",     "pool.parallelism"};
  if (workload == "tenants")
    return {"host.engine_self_s",     "host.step_samples",
            "servicer.service_calls", "servicer.end_of_day_busy_s",
            "ftl.host_writes",        "ftl.gc_writes",
            "ftl.gc_erases",          "host.warm_fill_s",
            "workload.gen_ns_per_cmd", "pool.parallelism"};
  return {"host.engine_self_s", "host.step_samples", "ftl.host_writes",
          "ftl.gc_writes",      "ftl.gc_erases",     "host.warm_fill_s",
          "workload.gen_ns_per_cmd"};
}

std::string json_metrics(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(),
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0,
                  metrics[i].unit);
    out += buf;
  }
  return out + "}";
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string provenance(const Args& a, const Workload& w, double setup_s,
                       double timed_s, std::size_t reps) {
  char buf[1024];
  std::snprintf(
      buf, sizeof buf,
      "{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
      "\"nproc\": %u, \"pool_width\": %d, \"compiler\": \"%s\", "
      "\"build_type\": \"%s\", \"rdsim_march\": \"%s\", \"git_sha\": \"%s\", "
      "\"cache\": \"%s\", \"repetitions\": %zu, "
      "\"wall_setup_s\": %.6f, \"wall_timed_s\": %.6f}",
      w.name, static_cast<unsigned long long>(a.seed), a.trace ? 1 : 0,
      std::thread::hardware_concurrency(), kPoolWidth, compiler().c_str(),
      PERFBENCH_BUILD_TYPE, PERFBENCH_MARCH, a.git_sha.c_str(),
      w.cache_note, reps, setup_s, timed_s);
  return buf;
}

int run(const Args& a) {
  const Workload* w = find_workload(a.workload);
  if (w == nullptr) {
    usage();
    return 2;
  }

  std::vector<Rep> reps;    // Untraced repetitions at --seed.
  std::vector<Rep> traced;  // Traced repetitions at --seed.
  std::vector<std::vector<Metric>> layers;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> problems;
  double timed_total = 0.0;
  double setup_total = 0.0;
  std::string trace_path;
  std::string accounting;

  // Every repetition at --seed must produce `want`: the recorded digest
  // when --seed is the default seed, else the first repetition's digest.
  std::string want = a.seed == kDefaultSeed ? a.expect_digest : "";
  const auto account = [&](const Rep& r, const std::string& expected,
                           std::vector<std::string> why) {
    ++attempted;
    timed_total += r.timed_s;
    setup_total += r.setup_s;
    if (!r.error.empty()) why.push_back(r.error);
    if (!expected.empty() && hex(r.digest) != expected)
      why.push_back("digest " + hex(r.digest) + " != " + expected);
    if (why.empty()) return;
    ++failed;
    problems.insert(problems.end(), why.begin(), why.end());
  };

  while (reps.size() < kMinReps ||
         (timed_total < a.seconds && reps.size() < kMaxReps)) {
    Rep r = w->run(a.seed, nullptr);
    if (want.empty()) want = hex(r.digest);
    account(r, want, {});
    reps.push_back(std::move(r));
    if (!a.trace) continue;

    Tracer tracer(kTraceSampleEvery, kTraceMaxSpans);
    Rep t = w->run(a.seed, &tracer);
    std::vector<Metric> m = layer_metrics(*w, t, tracer);
    std::vector<std::string> why;
    for (const std::string& name : required_nonzero(w->name))
      for (const Metric& metric : m)
        if (metric.name == name && !(metric.value > 0.0))
          why.push_back("layer not reached: " + name + " is 0");
    if (traced.empty()) {
      accounting = accounting_table(*w, t, tracer);
      trace_path = a.trace_dir + "/" + w->name + "-seed" +
                   std::to_string(a.seed) + ".trace.json";
      if (!tracer.write_chrome_trace(
              trace_path, provenance(a, *w, t.setup_s, t.timed_s, 1)))
        why.push_back("cannot write " + trace_path);
    }
    account(t, want, std::move(why));
    traced.push_back(std::move(t));
    layers.push_back(std::move(m));
  }
  // The recorded digest belongs to the default seed; rerun it once.
  if (a.seed != kDefaultSeed && !a.expect_digest.empty())
    account(w->run(kDefaultSeed, nullptr), a.expect_digest, {});

  std::vector<Metric> metrics;
  if (!a.trace) {
    metrics = end_to_end_metrics(reps);
  } else {
    metrics = layers.front();
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      std::vector<double> v;
      for (const auto& m : layers) v.push_back(m[i].value);
      metrics[i].value = median(v);
    }
    // Untraced and traced repetitions alternate and do the same work, so
    // each pair's timed-phase ratio is one overhead sample.
    std::vector<double> overhead;
    for (std::size_t i = 0; i < traced.size(); ++i)
      overhead.push_back(kpages_per_s(reps[i]) / kpages_per_s(traced[i]) - 1.0);
    metrics.push_back({"trace.overhead_pct", 100.0 * median(overhead), "%"});
  }

  // --- Report ---------------------------------------------------------------
  const Rep& r0 = reps.front();
  std::printf("# perfbench %s seed %llu: %zu untraced and %zu traced "
              "repetitions, digest %s\n",
              w->name, static_cast<unsigned long long>(a.seed), reps.size(),
              traced.size(), hex(r0.digest).c_str());
  std::printf("# per repetition: %llu commands, %llu host pages\n",
              static_cast<unsigned long long>(r0.commands),
              static_cast<unsigned long long>(r0.pages));
  for (std::size_t i = 0; i < reps.size(); ++i)
    std::printf("#   rep %zu: setup %.4f s, timed %.4f s, %.2f kpages/s, "
                "cpu %.3f us/page\n",
                i, reps[i].setup_s, reps[i].timed_s, kpages_per_s(reps[i]),
                reps[i].cpu_s / static_cast<double>(reps[i].pages) * 1e6);
  std::printf("# error_rate %zu/%zu\n", failed, attempted);
  for (const std::string& p : problems) std::printf("# FAILED: %s\n", p.c_str());
  if (a.trace) {
    std::printf("# first traced repetition: thread time %.4f s = %.4f s wall"
                " x %d threads\n%s",
                traced.front().timed_s * w->threads, traced.front().timed_s,
                w->threads, accounting.c_str());
    std::printf("# chrome trace: %s\n", trace_path.c_str());
  }
  std::printf("# provenance %s\n",
              provenance(a, *w, setup_total, timed_total, attempted).c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": "
      "%s}\n",
      failed == 0 ? "true" : "false", attempted, failed,
      json_metrics(metrics).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse_args(argc, argv, &args)) {
    perfbench::usage();
    return 2;
  }
  return perfbench::run(args);
}
