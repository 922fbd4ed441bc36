// Golden per-kernel timeline digests: the timing reference for schedule
// replay. Each case runs a fixed step sequence on a fresh simulated platform
// and hashes every kernel record the simulator issued, in handle order —
// label name, unit, start, end, DRAM bytes and flops — followed by every
// step's latency. Any change to what is submitted, where, in which order or
// at which host time moves the digest.
//
// A change that alters simulated timing on purpose regenerates the table:
// on mismatch the test prints the full recomputed `kGoldens` block, ready to
// paste over the one below.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/strings.h"
#include "src/core/engine_registry.h"
#include "src/model/kv_cache.h"

namespace heterollm::core {
namespace {

using model::ExecutionMode;
using model::KvCache;
using model::ModelConfig;
using model::ModelWeights;
using tensor::Shape;
using tensor::Tensor;

// FNV-1a 64 over the little-endian bytes of each value.
class Fnv1a {
 public:
  void Bytes(const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      hash_ = (hash_ ^ p[i]) * 1099511628211ull;
    }
  }
  void Int(int64_t v) {
    unsigned char le[8];
    for (int i = 0; i < 8; ++i) {
      le[i] = static_cast<unsigned char>(static_cast<uint64_t>(v) >> (8 * i));
    }
    Bytes(le, sizeof(le));
  }
  // Times are rounded to integer nanoseconds (bytes and flops to integers),
  // so compilers that differ in the last ulp still agree.
  void Rounded(double v, double scale) { Int(std::llround(v * scale)); }
  void String(const std::string& s) {
    Int(static_cast<int64_t>(s.size()));
    Bytes(s.data(), s.size());
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 14695981039152921507ull;
};

struct DigestCase {
  std::string name;
  std::string engine;
  bool fuse_qkv = false;
  // Three sessions prefilled separately, then batched decodes.
  bool serving = false;
  ModelConfig model = ModelConfig::Tiny();
};

struct Digest {
  int64_t kernels = 0;
  uint64_t hash = 0;
};

std::vector<DigestCase> Cases() {
  std::vector<DigestCase> cases;
  for (const std::string& engine : RunnableEngineNames()) {
    cases.push_back({engine, engine});
  }
  cases.push_back({"PPL-OpenCL+fuse_qkv", "PPL-OpenCL", /*fuse_qkv=*/true});
  cases.push_back({"Hetero-tensor+fuse_qkv", "Hetero-tensor", true});
  cases.push_back({"Hetero-tensor/serving3", "Hetero-tensor", false,
                   /*serving=*/true});
  // Tiny's matrices are too small for the solver to split, so one case runs
  // Llama-8B's layer shapes (two layers): row-cut, seq-cut and whole-NPU
  // plans all occur there.
  ModelConfig wide = ModelConfig::Llama8B();
  wide.num_layers = 2;
  cases.push_back({"Hetero-tensor/Llama-8B-2L", "Hetero-tensor", false, false,
                   wide});
  return cases;
}

Digest RunCase(const DigestCase& c) {
  const ModelConfig& cfg = c.model;
  const ModelWeights weights =
      ModelWeights::Create(cfg, ExecutionMode::kSimulate);
  Platform platform(PlatformOptionsFor(c.engine));
  EngineOptions opts;
  opts.fuse_qkv = c.fuse_qkv;
  auto engine = CreateEngine(c.engine, &platform, &weights, opts);
  auto rows = [&](int64_t n) {
    return Tensor::Deferred(Shape({n, cfg.hidden}), tensor::DType::kFp16);
  };

  std::vector<MicroSeconds> latencies;
  std::vector<std::unique_ptr<KvCache>> caches;
  if (c.serving) {
    std::vector<KvCache*> batch;
    for (int i = 0; i < 3; ++i) {
      caches.push_back(
          std::make_unique<KvCache>(cfg, 256, ExecutionMode::kSimulate));
      batch.push_back(caches.back().get());
      latencies.push_back(
          engine->Step({Phase::kPrefill, {batch.back()}, rows(64), false})
              .latency);
    }
    for (int step = 0; step < 3; ++step) {
      latencies.push_back(
          engine->Step({Phase::kDecode, batch, rows(3), false}).latency);
    }
  } else {
    // A misaligned prompt exercises padding / pipe / seq-cut plans; the
    // width-4 all-rows verify exercises the speculative decode widths.
    latencies.push_back(engine->Prefill(rows(37)).latency);
    latencies.push_back(engine->DecodeStep(rows(1)).latency);
    latencies.push_back(engine->DecodeStep(rows(1)).latency);
    latencies.push_back(
        engine->Step({Phase::kDecode, {}, rows(4), /*all_rows_logits=*/true})
            .latency);
  }

  sim::SocSimulator& soc = platform.soc();
  soc.DrainAll();
  Fnv1a h;
  for (sim::KernelHandle k = 0; k < soc.kernel_count(); ++k) {
    const sim::KernelRecord& r = soc.record(k);
    h.String(soc.label_name(r.label));
    h.Int(r.unit);
    h.Rounded(r.start, 1e3);
    h.Rounded(r.end, 1e3);
    h.Rounded(r.bytes, 1.0);
    h.Rounded(r.flops, 1.0);
  }
  for (MicroSeconds latency : latencies) {
    h.Rounded(latency, 1e3);
  }
  return {soc.kernel_count(), h.value()};
}

struct Golden {
  const char* name;
  int64_t kernels;
  uint64_t digest;
};

// Regenerate by running the test and pasting the table it prints.
constexpr Golden kGoldens[] = {
    {"llama.cpp", 128, 0x4b35a137caf9e8a0ull},
    {"MLC", 128, 0x8485b3eeae476b50ull},
    {"MNN-OpenCL", 128, 0xb6d879278f3be1e7ull},
    {"PPL-OpenCL", 128, 0xa53f922939e7499cull},
    {"Hetero-layer", 128, 0x6b946b1bc600b401ull},
    {"Hetero-tensor", 128, 0xa53f922939e7499cull},
    {"Online-prepare", 128, 0xe09b5dedb422cebaull},
    {"Padding", 128, 0xa9f128b0c213fd26ull},
    {"Pipe", 142, 0x2014acdbace90adbull},
    {"Chunked", 128, 0xa9f128b0c213fd26ull},
    {"MLLM-NPU", 188, 0x6e3bc130dd7e0534ull},
    {"PPL-OpenCL+fuse_qkv", 112, 0x400dc43406d39089ull},
    {"Hetero-tensor+fuse_qkv", 112, 0x400dc43406d39089ull},
    {"Hetero-tensor/serving3", 204, 0xc2577f01a05aa21aull},
    {"Hetero-tensor/Llama-8B-2L", 176, 0xdd94a1fd17dd54d0ull},
};

TEST(TimelineDigestTest, MatchesGoldenTable) {
  const std::vector<DigestCase> cases = Cases();
  std::vector<Digest> digests;
  bool all_match = cases.size() == std::size(kGoldens);
  for (size_t i = 0; i < cases.size(); ++i) {
    digests.push_back(RunCase(cases[i]));
    if (i < std::size(kGoldens)) {
      const Golden& g = kGoldens[i];
      const bool match = cases[i].name == g.name &&
                         digests[i].kernels == g.kernels &&
                         digests[i].hash == g.digest;
      EXPECT_TRUE(match) << cases[i].name << ": " << digests[i].kernels
                         << " kernels, digest " << std::hex
                         << digests[i].hash;
      all_match = all_match && match;
    }
  }
  EXPECT_EQ(cases.size(), std::size(kGoldens));
  if (!all_match) {
    std::string table = "constexpr Golden kGoldens[] = {\n";
    for (size_t i = 0; i < cases.size(); ++i) {
      table += StrFormat("    {\"%s\", %lld, 0x%016llxull},\n",
                         cases[i].name.c_str(),
                         static_cast<long long>(digests[i].kernels),
                         static_cast<unsigned long long>(digests[i].hash));
    }
    table += "};\n";
    std::printf("Regenerated golden table:\n%s", table.c_str());
  }
}

}  // namespace
}  // namespace heterollm::core
