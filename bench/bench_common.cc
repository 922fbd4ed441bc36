#include "bench/bench_common.h"

#include <cctype>
#include <cstdio>
#include <cstring>

#include "src/common/strings.h"

namespace heterollm::benchx {

std::string Slug(const std::string& name) {
  std::string out;
  for (char c : name) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      out += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    } else if (!out.empty() && out.back() != '_') {
      out += '_';
    }
  }
  return out;
}

core::GenerationStats RunEngineOnce(const std::string& engine_name,
                                    const model::ModelConfig& cfg,
                                    int prompt_len, int decode_len,
                                    core::EngineOptions opts) {
  model::ModelWeights weights =
      model::ModelWeights::Create(cfg, model::ExecutionMode::kSimulate);
  core::Platform platform(core::PlatformOptionsFor(engine_name));
  auto engine = core::CreateEngine(engine_name, &platform, &weights, opts);
  return engine->Generate(prompt_len, decode_len);
}

void PrintHeader(report::BenchReport& report, const std::string& id,
                 const std::string& what) {
  std::printf(
      "\n================================================================\n");
  std::printf("%s — %s\n", id.c_str(), what.c_str());
  std::printf(
      "================================================================\n");
  report.set_title(id + " — " + what);
}

void EmitTable(report::BenchReport& report, const std::string& section,
               const TextTable& table) {
  std::printf("%s", table.Render().c_str());
  report.AddTable(section, table.header(), table.rows());
}

void EmitAnchors(report::BenchReport& report, const std::string& title,
                 const std::vector<workload::PaperComparison>& rows) {
  std::printf("%s", workload::RenderComparisonTable(title, rows).c_str());
  for (const workload::PaperComparison& row : rows) {
    report.AddAnchor(row.label, row.paper, row.measured, row.unit);
  }
}

namespace {

report::BenchReport::MetricOptions WithDirection(const std::string& unit,
                                                 double tolerance,
                                                 report::Better better) {
  report::BenchReport::MetricOptions opts;
  opts.unit = unit;
  opts.tolerance = tolerance;
  opts.better = better;
  return opts;
}

}  // namespace

report::BenchReport::MetricOptions HigherIsBetter(const std::string& unit,
                                                  double tolerance) {
  return WithDirection(unit, tolerance, report::Better::kHigher);
}

report::BenchReport::MetricOptions LowerIsBetter(const std::string& unit,
                                                 double tolerance) {
  return WithDirection(unit, tolerance, report::Better::kLower);
}

report::BenchReport::MetricOptions Calibration(const std::string& unit,
                                               double tolerance) {
  return WithDirection(unit, tolerance, report::Better::kNone);
}

void AddExecutionReport(report::BenchReport& report, const std::string& prefix,
                        const core::ExecutionReport& er) {
  for (const core::ExecutionReport::UnitRow& unit : er.units) {
    const std::string base = prefix + ".unit." + unit.unit;
    report.AddMetric(base + ".busy_us", unit.busy, LowerIsBetter("us"));
    report.AddMetric(base + ".utilization", unit.utilization,
                     Calibration(""));
    report.AddMetric(base + ".bytes", static_cast<double>(unit.bytes),
                     Calibration("B"));
    report.AddMetric(base + ".flops", static_cast<double>(unit.flops),
                     Calibration("flop"));
  }
}

void AddServingMetrics(report::BenchReport& report, const std::string& prefix,
                       const serve::ServingMetrics& m) {
  report.AddMetric(prefix + ".makespan_ms", ToMillis(m.makespan()),
                   LowerIsBetter("ms"));
  report.AddMetric(prefix + ".agg_tok_per_s", m.aggregate_tokens_per_s(),
                   HigherIsBetter("tok/s"));
  report.AddMetric(prefix + ".decode_tok_per_s", m.decode_tokens_per_s(),
                   HigherIsBetter("tok/s"));
  report.AddMetric(prefix + ".ttft_p50_ms", ToMillis(m.ttft_p50()),
                   LowerIsBetter("ms"));
  report.AddMetric(prefix + ".ttft_p99_ms", ToMillis(m.ttft_p99()),
                   LowerIsBetter("ms"));
  report.AddMetric(prefix + ".latency_p99_ms", ToMillis(m.latency_p99()),
                   LowerIsBetter("ms"));
  report.AddMetric(prefix + ".avg_decode_batch", m.avg_decode_batch,
                   Calibration(""));
  report.AddMetric(prefix + ".evictions", m.evictions, Calibration(""));
  report.AddMetric(prefix + ".replan_events", m.replan_events,
                   Calibration(""));
  report.AddMetric(prefix + ".prefix_hit_tokens",
                   static_cast<double>(m.prefix_hit_tokens),
                   HigherIsBetter("tok"));
  report.AddMetric(prefix + ".prefix_hit_rate", m.prefix_hit_rate(),
                   HigherIsBetter(""));
  report.AddMetric(prefix + ".blocks_evicted",
                   static_cast<double>(m.blocks_evicted), Calibration(""));
  report.AddMetric(prefix + ".kv_blocks_peak",
                   static_cast<double>(m.kv_blocks_peak),
                   LowerIsBetter("blocks"));
  report.AddMetric(prefix + ".peak_active_sessions",
                   static_cast<double>(m.peak_active_sessions),
                   HigherIsBetter("sessions"));
  report.AddMetric(prefix + ".energy_mj", m.energy / 1e3,
                   LowerIsBetter("mJ"));
  report.AddMetric(prefix + ".avg_power_watts", m.avg_power_watts,
                   LowerIsBetter("W"));
  AddExecutionReport(report, prefix, m.report);
}

int BenchMain(int argc, char** argv, const char* bench_id,
              void (*print_fn)(report::BenchReport&)) {
  constexpr const char kReportFlag[] = "--report_json=";
  std::string report_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], kReportFlag, sizeof(kReportFlag) - 1) == 0) {
      report_path = argv[i] + sizeof(kReportFlag) - 1;
    } else {
      std::fprintf(stderr, "unknown flag: %s\nusage: %s [%s<path>]\n",
                   argv[i], argv[0], kReportFlag);
      return 2;
    }
  }

  report::BenchReport report(bench_id);
  print_fn(report);

  if (!report_path.empty()) {
    const Status status = report.WriteFile(report_path);
    if (!status.ok()) {
      std::fprintf(stderr, "failed to write report: %s\n",
                   status.ToString().c_str());
      return 1;
    }
    std::printf("\nwrote %s\n", report_path.c_str());
  }
  return 0;
}

}  // namespace heterollm::benchx
