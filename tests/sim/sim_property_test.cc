// Property tests over randomized simulator workloads: scheduling invariants
// that must hold for any submission pattern.

#include <algorithm>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/core/execution_report.h"
#include "src/report/json.h"
#include "src/sim/soc_simulator.h"
#include "src/sim/trace.h"

namespace heterollm::sim {
namespace {

struct Workload {
  struct Item {
    UnitId unit;
    KernelDesc desc;
    MicroSeconds submit;
  };
  std::vector<Item> items;
};

Workload RandomWorkload(SocSimulator& soc, Rng& rng, int units,
                        int kernels) {
  Workload w;
  MicroSeconds t = 0;
  for (int i = 0; i < kernels; ++i) {
    Workload::Item item;
    item.unit = static_cast<UnitId>(rng.NextBelow(static_cast<uint64_t>(units)));
    item.desc.label = soc.InternLabel("k" + std::to_string(i));
    item.desc.compute_time = rng.NextUniform(0.0, 500.0);
    item.desc.memory_bytes = rng.NextUniform(0.0, 5e6);
    item.desc.launch_overhead = rng.NextUniform(0.0, 20.0);
    t += rng.NextUniform(0.0, 100.0);
    item.submit = t;
    w.items.push_back(item);
  }
  return w;
}

class SimPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SimPropertyTest, RandomWorkloadInvariants) {
  Rng rng(GetParam());
  SocSimulator soc(MemoryConfig{});
  const int kUnits = 3;
  std::vector<double> caps = {40e3, 43.3e3, 42e3};
  for (int u = 0; u < kUnits; ++u) {
    soc.AddUnit({"u" + std::to_string(u), caps[static_cast<size_t>(u)], {}});
  }
  Workload w = RandomWorkload(soc, rng, kUnits, 120);
  std::vector<KernelHandle> handles;
  for (const auto& item : w.items) {
    handles.push_back(soc.Submit(item.unit, item.desc, item.submit));
  }
  soc.DrainAll();

  // Invariant 1: every kernel runs after its submit time, for at least
  // launch + compute, and no faster than its unit's bandwidth allows.
  std::map<UnitId, std::vector<std::pair<MicroSeconds, MicroSeconds>>> spans;
  for (size_t i = 0; i < handles.size(); ++i) {
    const auto& item = w.items[i];
    const MicroSeconds start = soc.StartTime(handles[i]);
    const MicroSeconds end = soc.CompletionTime(handles[i]);
    EXPECT_GE(start, item.submit - 1e-6);
    EXPECT_GE(end - start,
              item.desc.launch_overhead + item.desc.compute_time - 1e-6);
    const double cap = caps[static_cast<size_t>(item.unit)];
    EXPECT_GE(end - start, item.desc.memory_bytes / cap - 1e-6);
    spans[item.unit].push_back({start, end});
  }

  // Invariant 2: kernels on one unit never overlap (serial execution).
  for (auto& [unit, list] : spans) {
    std::sort(list.begin(), list.end());
    for (size_t i = 1; i < list.size(); ++i) {
      EXPECT_GE(list[i].first, list[i - 1].second - 1e-6)
          << "overlap on unit " << unit;
    }
  }

  // Invariant 3: conservation — all bytes were transferred, exactly once.
  double expected_bytes = 0;
  for (const auto& item : w.items) {
    expected_bytes += item.desc.memory_bytes;
  }
  EXPECT_NEAR(soc.memory().total_bytes_transferred(), expected_bytes,
              expected_bytes * 1e-9 + 1e-3);

  // Invariant 4: busy time equals the sum of kernel durations per unit.
  std::vector<MicroSeconds> busy(kUnits, 0);
  for (size_t i = 0; i < handles.size(); ++i) {
    busy[static_cast<size_t>(w.items[i].unit)] +=
        soc.CompletionTime(handles[i]) - soc.StartTime(handles[i]);
  }
  for (int u = 0; u < kUnits; ++u) {
    EXPECT_NEAR(soc.UnitBusyTime(u), busy[static_cast<size_t>(u)], 1e-3);
  }
}

TEST_P(SimPropertyTest, DeterministicReplay) {
  auto run = [&](uint64_t seed) {
    Rng rng(seed);
    SocSimulator soc(MemoryConfig{});
    for (int u = 0; u < 3; ++u) {
      soc.AddUnit({"u", 42e3, {}});
    }
    Workload w = RandomWorkload(soc, rng, 3, 60);
    std::vector<KernelHandle> handles;
    for (const auto& item : w.items) {
      handles.push_back(soc.Submit(item.unit, item.desc, item.submit));
    }
    soc.DrainAll();
    std::vector<MicroSeconds> ends;
    for (KernelHandle h : handles) {
      ends.push_back(soc.CompletionTime(h));
    }
    return ends;
  };
  EXPECT_EQ(run(GetParam()), run(GetParam()));
}

TEST_P(SimPropertyTest, TraceIsWellFormedAndComplete) {
  Rng rng(GetParam());
  SocSimulator soc(MemoryConfig{});
  soc.AddUnit({"gpu", 43e3, {}});
  soc.AddUnit({"npu", 42e3, {}});
  Workload w = RandomWorkload(soc, rng, 2, 40);
  for (const auto& item : w.items) {
    soc.Submit(item.unit, item.desc, item.submit);
  }
  soc.DrainAll();
  EXPECT_EQ(soc.kernel_count(), static_cast<KernelHandle>(w.items.size()));
  for (KernelHandle h = 0; h < soc.kernel_count(); ++h) {
    ASSERT_TRUE(soc.IsFinished(h));
    const KernelRecord& r = soc.record(h);
    EXPECT_GE(r.end, r.start);
    const std::string& unit_name = soc.unit_spec(r.unit).name;
    EXPECT_TRUE(unit_name == "gpu" || unit_name == "npu");
  }
}

// The windowed execution report must equal a straightforward per-record
// reduction: sums in handle order, op rows keyed by (canonical label, unit
// name), ranked by total time from that key order.
void ExpectReportMatchesReference(const core::Platform& platform,
                                  MicroSeconds t0, MicroSeconds t1) {
  const SocSimulator& soc = platform.soc();
  std::vector<core::ExecutionReport::UnitRow> units(
      static_cast<size_t>(soc.unit_count()));
  std::map<std::pair<std::string, std::string>, core::ExecutionReport::OpRow>
      ops;
  for (KernelHandle h = 0; h < soc.kernel_count(); ++h) {
    if (!soc.IsFinished(h)) {
      continue;
    }
    const KernelRecord& r = soc.record(h);
    const MicroSeconds lo = std::max(r.start, t0);
    const MicroSeconds hi = std::min(r.end, t1);
    if (hi <= lo) {
      continue;
    }
    const MicroSeconds dur = hi - lo;
    const double fraction = r.end > r.start ? dur / (r.end - r.start) : 1.0;
    auto& row = units[static_cast<size_t>(r.unit)];
    row.unit = soc.unit_spec(r.unit).name;
    row.busy += dur;
    ++row.kernels;
    row.bytes += r.bytes * fraction;
    row.flops += r.flops * fraction;
    const std::string canon =
        core::CanonicalizeKernelLabel(soc.label_name(r.label));
    auto& op = ops[{canon, row.unit}];
    op.op = canon;
    op.unit = row.unit;
    op.total += dur;
    ++op.count;
    op.bytes += r.bytes * fraction;
    op.flops += r.flops * fraction;
  }
  std::vector<core::ExecutionReport::OpRow> ranked;
  for (const auto& [key, op] : ops) {
    ranked.push_back(op);
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) { return a.total > b.total; });

  const core::ExecutionReport report =
      core::ExecutionReport::Build(platform, t0, t1, /*top_n=*/1 << 20);
  ASSERT_EQ(report.units.size(), units.size());
  for (size_t u = 0; u < units.size(); ++u) {
    SCOPED_TRACE(u);
    EXPECT_EQ(report.units[u].busy, units[u].busy);
    EXPECT_EQ(report.units[u].kernels, units[u].kernels);
    EXPECT_EQ(report.units[u].bytes, units[u].bytes);
    EXPECT_EQ(report.units[u].flops, units[u].flops);
  }
  ASSERT_EQ(report.ops.size(), ranked.size());
  for (size_t i = 0; i < ranked.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(report.ops[i].op, ranked[i].op);
    EXPECT_EQ(report.ops[i].unit, ranked[i].unit);
    EXPECT_EQ(report.ops[i].total, ranked[i].total);
    EXPECT_EQ(report.ops[i].count, ranked[i].count);
    EXPECT_EQ(report.ops[i].bytes, ranked[i].bytes);
    EXPECT_EQ(report.ops[i].flops, ranked[i].flops);
  }
}

TEST_P(SimPropertyTest, WindowedReportMatchesPerRecordReference) {
  Rng rng(GetParam());
  core::Platform platform;
  SocSimulator& soc = platform.soc();
  Workload w = RandomWorkload(soc, rng, soc.unit_count(), 120);
  // A few recurring label stems so several op rows collect kernels.
  const std::string kStems[] = {"attn:L", "q:npu-seq", "rmsnorm:", "k"};
  for (size_t i = 0; i < w.items.size(); ++i) {
    w.items[i].desc.label =
        soc.InternLabel(kStems[i % 4] + std::to_string(i % 9));
    w.items[i].desc.flops = rng.NextUniform(0.0, 1e9);
    soc.Submit(w.items[i].unit, w.items[i].desc, w.items[i].submit);
  }
  soc.DrainAll();
  const MicroSeconds end = soc.now();
  ExpectReportMatchesReference(platform, 0, end);
  // Windows whose edges cut through kernels.
  for (int i = 0; i < 8; ++i) {
    const MicroSeconds a = rng.NextUniform(0.0, end);
    const MicroSeconds b = rng.NextUniform(a, end);
    ExpectReportMatchesReference(platform, a, b);
  }
}

TEST(KernelTimelineTest, QueueJumpKeepsHandleOrder) {
  // A later submission with an earlier timestamp runs first: handle order
  // and execution order differ, the released prefix waits for the older
  // handle, and the report still sums in handle order.
  core::Platform platform;
  SocSimulator& soc = platform.soc();
  const UnitId gpu = platform.gpu().unit();
  const KernelHandle late =
      soc.Submit(gpu, {soc.InternLabel("late"), 100.0, 2e5, 1.0}, 500.0);
  const KernelHandle early =
      soc.Submit(gpu, {soc.InternLabel("early"), 80.0, 1e5, 1.0}, 50.0);
  soc.WaitForKernel(early);
  EXPECT_FALSE(soc.IsFinished(late));
  EXPECT_EQ(soc.live_kernel_count(), 2u);
  EXPECT_LT(soc.StartTime(early), 500.0);
  soc.DrainAll();
  EXPECT_EQ(soc.live_kernel_count(), 0u);
  EXPECT_GE(soc.StartTime(late), soc.CompletionTime(early));
  ExpectReportMatchesReference(platform, 0, soc.now());
  ExpectReportMatchesReference(platform, 90.0, 550.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimPropertyTest,
                         ::testing::Values(1u, 2u, 3u, 17u, 42u, 1234u,
                                           987654321u));

TEST(TraceTest, ChromeJsonParses) {
  // Unit names and labels with quotes and control characters must still
  // produce valid JSON that round-trips them.
  SocSimulator soc(MemoryConfig{});
  const std::string unit_name = "gpu\tcore";
  const std::string label = "matmul \"q\"\x01";
  UnitId gpu = soc.AddUnit({unit_name, 43e3, {}});
  soc.Submit(gpu, {soc.InternLabel(label), 100.0, 1e6, 5.0}, 0);
  soc.Submit(gpu, {soc.InternLabel(label), 50.0, 0, 5.0}, 0);
  soc.DrainAll();
  std::ostringstream os;
  WriteChromeTrace(soc, os);
  StatusOr<report::JsonValue> parsed = report::ParseJson(os.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  ASSERT_TRUE(parsed.value().is_array());
  int complete_events = 0;
  bool named_track = false;
  for (const report::JsonValue& event : parsed.value().items()) {
    if (event.GetString("ph") == "X") {
      ++complete_events;
      EXPECT_EQ(event.GetString("name"), label);
      EXPECT_EQ(event.GetNumber("tid"), gpu);
    } else if (event.GetString("name") == "thread_name") {
      named_track = event.Get("args").GetString("name") == unit_name;
    }
  }
  EXPECT_EQ(complete_events, soc.kernel_count());
  EXPECT_TRUE(named_track);
}

}  // namespace
}  // namespace heterollm::sim
