// Append-only record of every kernel the simulator has issued, indexed by
// kernel handle.
//
// One `KernelRecord` per handle holds what the trace exporter and the
// execution report read: label id, unit, start/end time, DRAM bytes and
// flops. Records live in large fixed-size chunks that are never moved or
// freed before the timeline itself, so appending never copies the history
// (a regrowing vector's reallocation transient would double peak memory)
// and references stay valid for the timeline's lifetime.

#ifndef SRC_SIM_KERNEL_TIMELINE_H_
#define SRC_SIM_KERNEL_TIMELINE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/types.h"

namespace heterollm::sim {

using UnitId = int;
using KernelHandle = int64_t;
// Index into the simulator's label table (`SocSimulator::InternLabel`); 0 is
// the empty label.
using LabelId = int32_t;

struct KernelRecord {
  LabelId label;
  UnitId unit;
  MicroSeconds start;  // valid once the kernel started
  MicroSeconds end;    // valid once the kernel finished
  Bytes bytes;
  Flops flops;
};
static_assert(sizeof(KernelRecord) <= 40, "keep the timeline record compact");

class KernelTimeline {
 public:
  // 64Ki records (2.5 MB) per chunk.
  static constexpr int kChunkBits = 16;
  static constexpr KernelHandle kChunkSize = KernelHandle{1} << kChunkBits;

  KernelHandle size() const { return size_; }

  // Appends `record`; returns its handle.
  KernelHandle Append(const KernelRecord& record) {
    if ((size_ & (kChunkSize - 1)) == 0) {
      // Uninitialized: pages are touched only as records are written.
      chunks_.push_back(
          std::make_unique_for_overwrite<KernelRecord[]>(kChunkSize));
    }
    (*this)[size_] = record;
    return size_++;
  }

  KernelRecord& operator[](KernelHandle h) {
    return chunks_[static_cast<size_t>(h >> kChunkBits)]
                  [static_cast<size_t>(h & (kChunkSize - 1))];
  }
  const KernelRecord& operator[](KernelHandle h) const {
    return chunks_[static_cast<size_t>(h >> kChunkBits)]
                  [static_cast<size_t>(h & (kChunkSize - 1))];
  }

 private:
  std::vector<std::unique_ptr<KernelRecord[]>> chunks_;
  KernelHandle size_ = 0;
};

}  // namespace heterollm::sim

#endif  // SRC_SIM_KERNEL_TIMELINE_H_
