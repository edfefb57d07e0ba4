// regcube_e2e — the end-to-end benchmark program. One process runs one
// workload once:
//
//   regcube_e2e --workload <ingest_churn|analyst_loop|budget_restart>
//               --seed <n> --seconds <s> --trace <0|1>
//               --scratch <dir> [--spans <file.jsonl>]
//   regcube_e2e --selftest     # checks the statistics helpers, then exits
//
// --trace 0 runs one untraced pass and reports its end-to-end figures.
// --trace 1 runs the same pass twice — untraced, then traced, each for
// half of --seconds, so a traced run takes as long as an untraced one — and
// reports the end-to-end figures of the untraced pass, the per-layer
// metrics of the traced pass, the per-layer self time of its spans, the
// share of the loop's wall clock its top-level spans cover, and the tracing
// overhead (traced vs untraced end-to-end figures). The spans are written
// to --spans at exit.
//
// stdout: human-readable metric lines, one "provenance {...}" line, and as
// the last line one JSON object {correct, attempted, failed, metrics} with
// every metric measured. Which of them are bounded end-to-end metrics and
// which per-layer ones is BENCHMARK.json's business: run.py selects, orders
// and checks them against it. Exit code 0 only when every answer check
// passed and no op failed.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>
#include <string>

#include "harness.h"

namespace regcube::e2e {
namespace {

struct Args {
  RunConfig config;
  bool trace = false;
  std::string spans_path;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: regcube_e2e --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --scratch <dir> "
               "[--spans <file>]\n",
               why);
  std::exit(2);
}

Args Parse(int argc, char** argv) {
  Args args;
  bool have_workload = false, have_scratch = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.config.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.config.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.config.seconds = std::atof(value);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--scratch") {
      args.config.scratch_dir = value;
      have_scratch = true;
    } else if (flag == "--spans") {
      args.spans_path = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) Usage("--workload is required");
  if (!have_scratch) Usage("--scratch is required");
  if (args.config.seconds <= 0) Usage("--seconds must be positive");
  return args;
}

PassResult RunPass(const RunConfig& config, Tracer& tracer) {
  if (config.workload == "ingest_churn") return RunIngestChurn(config, tracer);
  if (config.workload == "analyst_loop") return RunAnalystLoop(config, tracer);
  if (config.workload == "budget_restart") {
    return RunBudgetRestart(config, tracer);
  }
  Usage(("unknown workload " + config.workload).c_str());
}

double Find(const std::vector<Metric>& metrics, const std::string& name) {
  for (const Metric& m : metrics) {
    if (m.name == name) return m.value;
  }
  return 0.0;
}

const char* BuildType() {
#ifdef NDEBUG
  return "optimized (NDEBUG)";
#else
  return "debug (assertions on)";
#endif
}

void PrintMetrics(const char* heading, const std::vector<Metric>& metrics) {
  std::printf("%s\n", heading);
  for (const Metric& m : metrics) {
    std::printf("  %-48s %16.6f %-9s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

void AddErrorRate(PassResult& result) {
  result.E2e("error_rate",
               result.attempted > 0 ? static_cast<double>(result.failed) /
                                          static_cast<double>(result.attempted)
                                    : 0.0,
               "ratio",
               StrPrintf("%lld failed of %lld ops",
                         static_cast<long long>(result.failed),
                         static_cast<long long>(result.attempted)));
}

/// Pins the statistics helpers to known answers (the quartiles are the
/// ones Python's statistics.quantiles(values, n=4) gives).
int SelfTest() {
  const auto range = [](int n) {
    std::vector<double> v;
    for (int i = 1; i <= n; ++i) v.push_back(i);
    return v;
  };
  bool ok = true;
  const auto expect = [&ok](bool cond, const char* what) {
    if (!cond) std::fprintf(stderr, "selftest failed: %s\n", what);
    ok = ok && cond;
  };
  expect(Quartiles(range(10)) == std::array<double, 3>{2.75, 5.5, 8.25},
         "quartiles of 1..10");
  expect(Quartiles({3.0, 1.0}) == std::array<double, 3>{0.5, 2.0, 3.5},
         "quartiles of two samples");
  expect(Quartiles({5, 1, 4, 2, 3}) == std::array<double, 3>{1.5, 3.0, 4.5},
         "quartiles of 1..5 unsorted");
  expect(Median({4, 1, 3, 2}) == 2.5, "median of an even sample");
  const Tail t100 = TailOf(range(100));
  expect(t100.percentile == 90.0 && t100.value == 90.0, "tail of 100 is p90");
  const Tail t1000 = TailOf(range(1000));
  expect(t1000.percentile == 99.0 && t1000.value == 990.0,
         "tail of 1000 is p99");
  const Tail t19 = TailOf(range(19));
  expect(t19.percentile == 0.0 && t19.value == 10.0,
         "19 samples are too few for a tail");
  expect(SplitReps(range(250)).size() == 2 && SplitReps(range(99)).size() == 1 &&
             SplitReps(range(5000)).size() == kMaxReps,
         "rep split sizes");
  expect(MedianOfReps(range(1000)) == 500.5, "median over reps");
  std::printf(ok ? "selftest ok\n" : "selftest FAILED\n");
  return ok ? 0 : 1;
}

int Main(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "--selftest") == 0) return SelfTest();
  const Args args = Parse(argc, argv);
  std::printf("provenance {\"workload\": \"%s\", \"seed\": %llu, "
              "\"seconds\": %g, \"trace\": %d, \"build\": \"%s\", "
              "\"compiler\": \"%s\", \"setup_reps\": %d, "
              "\"read_threads\": %d}\n",
              args.config.workload.c_str(),
              static_cast<unsigned long long>(args.config.seed),
              args.config.seconds, args.trace ? 1 : 0, BuildType(),
              JsonEscape(__VERSION__).c_str(), kSetupReps, kReadThreads);

  RunConfig pass_config = args.config;
  if (args.trace) pass_config.seconds /= 2;
  Tracer untraced(false);
  PassResult plain = RunPass(pass_config, untraced);
  AddErrorRate(plain);
  bool correct = plain.correct;
  std::int64_t attempted = plain.attempted, failed = plain.failed;
  std::vector<Metric> out = plain.e2e;  // the JSON metrics
  PrintMetrics(StrPrintf("%s: end-to-end (untraced; %s)",
                         args.config.workload.c_str(),
                         plain.correct ? "answers checked"
                                       : "ANSWER CHECK FAILED")
                   .c_str(),
               plain.e2e);

  if (args.trace) {
    Tracer tracer(true);
    PassResult traced = RunPass(pass_config, tracer);
    correct = correct && traced.correct;
    attempted += traced.attempted;
    failed += traced.failed;
    const Tracer::Analysis analysis = tracer.Analyze();
    for (const auto& [layer, ms] : analysis.self_ms) {
      traced.Layer(layer + ".self_ms", ms, "ms", "span time minus children");
    }
    traced.Layer("trace.top_coverage", analysis.top_coverage, "ratio",
                 "share of the loop's wall clock under top-level spans");
    traced.Layer("trace.spans", static_cast<double>(analysis.spans), "count");
    const auto overhead = [&](const char* name, bool higher_is_better) {
      const double before = Find(plain.e2e, name);
      const double after = Find(traced.e2e, name);
      if (before <= 0 || after <= 0) return 0.0;
      return higher_is_better ? before / after - 1.0 : after / before - 1.0;
    };
    traced.Layer("trace.overhead_alert_p50", overhead("alert_p50_ms", false),
                 "ratio", "traced over untraced alert_p50_ms, minus 1");
    traced.Layer("trace.overhead_ingest", overhead("ingest_tuples_per_s", true),
                 "ratio", "untraced over traced ingest_tuples_per_s, minus 1");
    PrintMetrics(StrPrintf("%s: per-layer (traced pass)",
                           args.config.workload.c_str())
                     .c_str(),
                 traced.layer);
    out.insert(out.end(), traced.layer.begin(), traced.layer.end());
    if (!args.spans_path.empty() &&
        !tracer.WriteJsonLines(args.spans_path, args.config.workload)) {
      std::fprintf(stderr, "error: cannot write %s\n", args.spans_path.c_str());
      return 1;
    }
    if (!traced.correct) plain.Fail(traced.failure);
  }
  if (failed > 0) {
    plain.Fail(StrPrintf("%lld of %lld ops failed",
                         static_cast<long long>(failed),
                         static_cast<long long>(attempted)));
    correct = false;
  }

  if (!correct) {
    std::printf("ANSWER CHECK FAILED: %s\n", plain.failure.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed));
  for (std::size_t i = 0; i < out.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", out[i].name.c_str(), out[i].value,
                out[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace regcube::e2e

int main(int argc, char** argv) { return regcube::e2e::Main(argc, argv); }
