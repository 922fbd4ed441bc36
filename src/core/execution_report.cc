#include "src/core/execution_report.h"

#include <algorithm>
#include <cctype>
#include <map>
#include <tuple>

#include "src/common/strings.h"
#include "src/common/table.h"

namespace heterollm::core {

std::string CanonicalizeKernelLabel(const std::string& label) {
  std::string out;
  out.reserve(label.size());
  bool in_digits = false;
  for (char c : label) {
    if (std::isdigit(static_cast<unsigned char>(c))) {
      if (!in_digits) {
        out += '#';
        in_digits = true;
      }
    } else {
      out += c;
      in_digits = false;
    }
  }
  return out;
}

ExecutionReport ExecutionReport::Build(const Platform& platform,
                                       MicroSeconds window_start,
                                       MicroSeconds window_end, int top_n) {
  HCHECK(window_end >= window_start);
  ExecutionReport report;
  report.window_start = window_start;
  report.window_end = window_end;

  const sim::SocSimulator& soc = platform.soc();
  const int unit_count = soc.unit_count();
  std::vector<UnitRow> units(static_cast<size_t>(unit_count));
  // Op rows are keyed by (canonical label, unit name): units sharing a name
  // share rows, keyed by the first such unit.
  std::vector<int> unit_key(static_cast<size_t>(unit_count));
  for (int u = 0; u < unit_count; ++u) {
    units[static_cast<size_t>(u)].unit = soc.unit_spec(u).name;
    unit_key[static_cast<size_t>(u)] = u;
    for (int prev = 0; prev < u; ++prev) {
      if (soc.unit_spec(prev).name == soc.unit_spec(u).name) {
        unit_key[static_cast<size_t>(u)] = prev;
        break;
      }
    }
  }
  // Each label id is canonicalized once, on first sight; op cells are
  // indexed by canonical label × unit.
  std::vector<int> canon_of(static_cast<size_t>(soc.label_count()), -1);
  std::map<std::string, int> canon_index;
  std::vector<const std::string*> canon_names;
  std::vector<OpRow> cells;

  for (sim::KernelHandle h = 0; h < soc.kernel_count(); ++h) {
    if (!soc.IsFinished(h)) {
      continue;
    }
    const sim::KernelRecord& r = soc.record(h);
    const MicroSeconds clipped_start = std::max(r.start, window_start);
    const MicroSeconds clipped_end = std::min(r.end, window_end);
    if (clipped_end <= clipped_start) {
      continue;
    }
    const MicroSeconds dur = clipped_end - clipped_start;
    // A kernel straddling the window boundary contributes only the clipped
    // slice of its traffic/work, matching its clipped time contribution —
    // otherwise windowed GB/s and TFLOPS overshoot at both window edges.
    const double fraction = r.end > r.start ? dur / (r.end - r.start) : 1.0;
    const Bytes clipped_bytes = r.bytes * fraction;
    const Flops clipped_flops = r.flops * fraction;
    UnitRow& row = units[static_cast<size_t>(r.unit)];
    row.busy += dur;
    ++row.kernels;
    row.bytes += clipped_bytes;
    row.flops += clipped_flops;

    int& canon = canon_of[static_cast<size_t>(r.label)];
    if (canon < 0) {
      auto [it, added] =
          canon_index.emplace(CanonicalizeKernelLabel(soc.label_name(r.label)),
                              static_cast<int>(canon_names.size()));
      canon = it->second;
      if (added) {
        canon_names.push_back(&it->first);
        cells.resize(canon_names.size() * static_cast<size_t>(unit_count));
      }
    }
    const int cell = canon * unit_count + unit_key[static_cast<size_t>(r.unit)];
    OpRow& op = cells[static_cast<size_t>(cell)];
    if (op.count == 0) {
      op.op = *canon_names[static_cast<size_t>(canon)];
      op.unit = row.unit;
    }
    op.total += dur;
    ++op.count;
    op.bytes += clipped_bytes;
    op.flops += clipped_flops;
  }

  const MicroSeconds window = report.window();
  for (UnitRow& row : units) {
    row.utilization = window > 0 ? row.busy / window : 0;
  }
  report.units = std::move(units);

  for (OpRow& op : cells) {
    if (op.count > 0) {
      report.ops.push_back(std::move(op));
    }
  }
  // Rank from (label, unit) order, so equal totals always tie-break alike.
  std::sort(report.ops.begin(), report.ops.end(),
            [](const OpRow& a, const OpRow& b) {
              return std::tie(a.op, a.unit) < std::tie(b.op, b.unit);
            });
  std::sort(report.ops.begin(), report.ops.end(),
            [](const OpRow& a, const OpRow& b) { return a.total > b.total; });
  if (static_cast<int>(report.ops.size()) > top_n) {
    report.ops.resize(static_cast<size_t>(top_n));
  }
  return report;
}

std::string ExecutionReport::Render() const {
  std::string out = StrFormat("window: %.1f ms\n", ToMillis(window()));
  TextTable unit_table(
      {"unit", "busy (ms)", "utilization", "kernels", "GB/s", "TFLOPS"});
  for (const UnitRow& row : units) {
    unit_table.AddRow(
        {row.unit, StrFormat("%.2f", ToMillis(row.busy)),
         StrFormat("%.1f%%", 100.0 * row.utilization),
         std::to_string(row.kernels),
         StrFormat("%.2f", window() > 0 ? ToGBPerSecond(row.bytes, window())
                                        : 0),
         StrFormat("%.3f",
                   window() > 0 ? ToTflops(row.flops, window()) : 0)});
  }
  out += unit_table.Render();

  TextTable op_table(
      {"op", "unit", "total (ms)", "count", "% of window", "GB/s", "TFLOPS"});
  for (const OpRow& op : ops) {
    op_table.AddRow(
        {op.op, op.unit, StrFormat("%.2f", ToMillis(op.total)),
         std::to_string(op.count),
         StrFormat("%.1f%%",
                   window() > 0 ? 100.0 * op.total / window() : 0),
         StrFormat("%.2f", op.total > 0 ? ToGBPerSecond(op.bytes, op.total)
                                        : 0),
         StrFormat("%.3f", op.total > 0 ? ToTflops(op.flops, op.total) : 0)});
  }
  out += op_table.Render();
  return out;
}

}  // namespace heterollm::core
