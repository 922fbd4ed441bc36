// Chrome-trace (about://tracing / Perfetto) export of the simulated kernel
// timeline. Each finished kernel becomes a complete event on its unit's
// track, so GPU/NPU overlap, queue stalls and sync gaps are visible at a
// glance — the practical way to debug a partition plan.

#ifndef SRC_SIM_TRACE_H_
#define SRC_SIM_TRACE_H_

#include <ostream>

#include "src/sim/soc_simulator.h"

namespace heterollm::sim {

// Writes the finished-kernel timeline as a Chrome trace-event JSON array.
// Timestamps are simulated µs; one tid per execution unit.
void WriteChromeTrace(const SocSimulator& soc, std::ostream& os);

}  // namespace heterollm::sim

#endif  // SRC_SIM_TRACE_H_
