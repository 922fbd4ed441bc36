#include "src/sim/thermal_model.h"

#include <cmath>

#include <gtest/gtest.h>

#include "src/sim/soc_simulator.h"

namespace heterollm::sim {
namespace {

MemoryConfig NoLossConfig() {
  MemoryConfig cfg;
  cfg.soc_bandwidth_bytes_per_us = 68e3;
  cfg.multi_stream_efficiency = 1.0;
  return cfg;
}

UnitSpec Npu(double active_watts = 1.9) {
  return UnitSpec{"npu", /*bandwidth_cap_bytes_per_us=*/42e3,
                  {active_watts, 0.0}};
}
UnitSpec Gpu() {
  return UnitSpec{"gpu", /*bandwidth_cap_bytes_per_us=*/45e3, {4.0, 0.0}};
}

// --- ThermalModel in isolation ---------------------------------------------

TEST(ThermalModelTest, ApproachesSteadyState) {
  ThermalConfig cfg = ThermalConfig::MobileSustained();
  ThermalModel model(cfg);
  const int npu = model.AddUnit("npu");
  EXPECT_DOUBLE_EQ(model.Temperature(npu), cfg.ambient_c);
  // 1.9 W * 12 °C/W over ambient: T_inf = 47.8 °C. Twenty time constants in.
  model.Integrate(npu, 1.9, 20.0 * cfg.npu.tau_us);
  EXPECT_NEAR(model.Temperature(npu), 47.8, 1e-3);
}

TEST(ThermalModelTest, ExactExponentialAfterOneTau) {
  ThermalConfig cfg = ThermalConfig::MobileSustained();
  ThermalModel model(cfg);
  const int npu = model.AddUnit("npu");
  model.Integrate(npu, 1.9, cfg.npu.tau_us);
  const double t_inf = cfg.ambient_c + 1.9 * cfg.npu.r_c_per_watt;
  const double expected =
      t_inf - (t_inf - cfg.ambient_c) * std::exp(-1.0);
  EXPECT_NEAR(model.Temperature(npu), expected, 1e-9);
}

TEST(ThermalModelTest, IntegrationIsStepSizeIndependent) {
  // Constant power: one stride of tau must equal ten strides of tau/10
  // (the event loop takes arbitrary step sizes).
  ThermalConfig cfg = ThermalConfig::MobileSustained();
  ThermalModel coarse(cfg);
  ThermalModel fine(cfg);
  const int a = coarse.AddUnit("npu");
  const int b = fine.AddUnit("npu");
  coarse.Integrate(a, 1.9, cfg.npu.tau_us);
  for (int i = 0; i < 10; ++i) {
    fine.Integrate(b, 1.9, cfg.npu.tau_us / 10.0);
  }
  EXPECT_NEAR(coarse.Temperature(a), fine.Temperature(b), 1e-9);
}

TEST(ThermalModelTest, StaircaseEscalatesAndRecoversWithHysteresis) {
  ThermalConfig cfg = ThermalConfig::MobileSustained();
  ThermalModel model(cfg);
  const int npu = model.AddUnit("npu");
  const MicroSeconds long_dt = 100.0 * cfg.npu.tau_us;

  // Heat to ~46 °C: past the 45 °C step, below 50 °C.
  model.Integrate(npu, (46.0 - cfg.ambient_c) / cfg.npu.r_c_per_watt, long_dt);
  EXPECT_DOUBLE_EQ(model.UpdateFrequencyFactor(npu), 0.85);

  // Cool into the hysteresis band (44 °C > 45 - 2): still throttled.
  model.Integrate(npu, (44.0 - cfg.ambient_c) / cfg.npu.r_c_per_watt, long_dt);
  EXPECT_DOUBLE_EQ(model.UpdateFrequencyFactor(npu), 0.85);

  // Heat straight past two steps: escalates through the whole staircase.
  model.Integrate(npu, (56.0 - cfg.ambient_c) / cfg.npu.r_c_per_watt, long_dt);
  EXPECT_DOUBLE_EQ(model.UpdateFrequencyFactor(npu), 0.55);

  // Cool below every threshold minus hysteresis: fully recovers.
  model.Integrate(npu, 0.0, long_dt);
  EXPECT_NEAR(model.Temperature(npu), cfg.ambient_c, 1e-3);
  EXPECT_DOUBLE_EQ(model.UpdateFrequencyFactor(npu), 1.0);
}

// --- SocSimulator integration ----------------------------------------------

TEST(ThermalSocTest, SustainedLoadThrottlesAndBumpsEpoch) {
  SocSimulator soc(NoLossConfig());
  soc.EnableThermal(ThermalConfig::MobileSustained());
  const UnitId npu = soc.AddUnit(Npu());
  EXPECT_DOUBLE_EQ(soc.UnitFrequencyFactor(npu), 1.0);
  EXPECT_EQ(soc.device_state_epoch(), 0u);

  // 600 back-to-back 100 ms kernels: 60 s of sustained 1.9 W. Steady state
  // is 47.8 °C and the 45 °C step is crossed at ~31 s.
  for (int i = 0; i < 600; ++i) {
    soc.Submit(npu, {soc.InternLabel("k"), /*compute=*/100e3, 0, 0}, 0);
  }
  soc.DrainAll();
  EXPECT_GT(soc.UnitTemperature(npu), 45.0);
  EXPECT_LT(soc.UnitTemperature(npu), 50.0);
  EXPECT_DOUBLE_EQ(soc.UnitFrequencyFactor(npu), 0.85);
  // Exactly one state change: the single step engagement.
  EXPECT_EQ(soc.device_state_epoch(), 1u);
  EXPECT_EQ(soc.unit_state_epoch(npu), 1u);

  // Two minutes idle at 0 W: cools to ambient, un-throttles (second bump).
  soc.AdvanceIdleTo(soc.now() + 120e6);
  EXPECT_DOUBLE_EQ(soc.UnitFrequencyFactor(npu), 1.0);
  EXPECT_EQ(soc.device_state_epoch(), 2u);
}

TEST(ThermalSocTest, ObserverModeIsBitExact) {
  // A staircase-free thermal model observes temperatures but never perturbs
  // timing: completion times are bit-identical to a thermal-less simulator.
  ThermalConfig observer = ThermalConfig::MobileSustained();
  observer.cpu.steps.clear();
  observer.gpu.steps.clear();
  observer.npu.steps.clear();

  SocSimulator plain(NoLossConfig());
  SocSimulator observed(NoLossConfig());
  observed.EnableThermal(observer);
  for (SocSimulator* soc : {&plain, &observed}) {
    const UnitId gpu = soc->AddUnit(Gpu());
    const UnitId npu = soc->AddUnit(Npu());
    for (int i = 0; i < 50; ++i) {
      soc->Submit(gpu, {soc->InternLabel("g"), 120.0, 250e3, 2.0}, 0);
      soc->Submit(npu, {soc->InternLabel("n"), 90.0, 300e3, 1.0}, 0);
    }
  }
  EXPECT_DOUBLE_EQ(plain.DrainAll(), observed.DrainAll());
  EXPECT_EQ(observed.device_state_epoch(), 0u);
  // The observer still integrated real temperatures.
  EXPECT_GT(observed.UnitTemperature(0), 25.0);
}

TEST(ThermalSocTest, ForcedFrequencyCapAppliesAndClears) {
  SocSimulator soc(NoLossConfig());
  const UnitId npu = soc.AddUnit(Npu());
  soc.SetConditionTrace({
      {/*time=*/10.0, "npu", /*frequency_cap=*/0.5},
      {/*time=*/30.0, "npu", /*frequency_cap=*/1.0},
  });
  EXPECT_DOUBLE_EQ(soc.UnitFrequencyFactor(npu), 1.0);
  EXPECT_DOUBLE_EQ(soc.NextConditionEventTime(), 10.0);

  soc.AdvanceIdleTo(20.0);
  EXPECT_DOUBLE_EQ(soc.UnitFrequencyFactor(npu), 0.5);
  EXPECT_EQ(soc.device_state_epoch(), 1u);
  EXPECT_DOUBLE_EQ(soc.NextConditionEventTime(), 30.0);

  soc.AdvanceIdleTo(40.0);
  EXPECT_DOUBLE_EQ(soc.UnitFrequencyFactor(npu), 1.0);
  EXPECT_EQ(soc.device_state_epoch(), 2u);
  EXPECT_FALSE(soc.dynamic_conditions());
}

TEST(ThermalSocTest, TraceAtTimeZeroPreConditionsThePlatform) {
  SocSimulator soc(NoLossConfig());
  const UnitId npu = soc.AddUnit(Npu());
  ConditionEvent e;
  e.time = 0;
  e.frequency_cap = 0.7;  // empty unit name: applies to all units
  soc.SetConditionTrace({e});
  EXPECT_DOUBLE_EQ(soc.UnitFrequencyFactor(npu), 0.7);
  EXPECT_EQ(soc.device_state_epoch(), 1u);
}

TEST(ThermalSocTest, BackgroundTrafficSlowsMemoryBoundKernel) {
  SocSimulator soc(NoLossConfig());
  const UnitId gpu = soc.AddUnit(Gpu());
  ConditionEvent e;
  e.time = 0;
  e.background_bandwidth_bytes_per_us = 34e3;
  soc.SetConditionTrace({e});
  // Alone: 340e3 / 45e3 = 7.56 µs. Against a 34e3 B/µs background app the
  // 68e3 ceiling water-fills to 34e3 each: 10 µs.
  KernelHandle k = soc.Submit(gpu, {soc.InternLabel("g"), 0.0, 340e3, 0}, 0);
  EXPECT_NEAR(soc.WaitForKernel(k), 10.0, 1e-6);
  EXPECT_DOUBLE_EQ(soc.memory().background_traffic(), 34e3);
  // A shared-resource change invalidates every unit's cached plans.
  EXPECT_EQ(soc.unit_state_epoch(gpu), 1u);
}

TEST(ThermalSocTest, BudgetEventsExposeAccessors) {
  SocSimulator soc(NoLossConfig());
  soc.AddUnit(Npu());
  ConditionEvent e;
  e.time = 0;
  e.kv_budget_scale = 0.5;
  e.power_budget_watts = 3.0;
  soc.SetConditionTrace({e});
  EXPECT_DOUBLE_EQ(soc.kv_budget_scale(), 0.5);
  EXPECT_DOUBLE_EQ(soc.forced_power_budget_watts(), 3.0);
  // The power budget invalidates plans (epoch bump); the KV scale is polled
  // by the serving scheduler and must not.
  EXPECT_EQ(soc.device_state_epoch(), 1u);
}

TEST(ThermalSocTest, SameTraceTwiceIsDeterministic) {
  auto run = [] {
    SocSimulator soc(NoLossConfig());
    soc.EnableThermal(ThermalConfig::MobileSustained());
    const UnitId gpu = soc.AddUnit(Gpu());
    const UnitId npu = soc.AddUnit(Npu());
    soc.SetConditionTrace({
        {/*time=*/5e6, "npu", /*frequency_cap=*/0.6},
        {/*time=*/10e6, "", /*frequency_cap=*/-1,
         /*background_bandwidth_bytes_per_us=*/20e3},
    });
    for (int i = 0; i < 200; ++i) {
      soc.Submit(gpu, {soc.InternLabel("g"), 50e3, 400e3, 2.0}, 0);
      soc.Submit(npu, {soc.InternLabel("n"), 60e3, 350e3, 1.0}, 0);
    }
    const MicroSeconds end = soc.DrainAll();
    return std::make_tuple(end, soc.UnitTemperature(npu),
                           soc.device_state_epoch(),
                           soc.power().TotalEnergy(end));
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace heterollm::sim
