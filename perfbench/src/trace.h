// Host-clock spans recorded from the benchmark's own files, around each
// call the benchmark makes into a layer's public function. Off (a null
// tracer) the span guards reduce to a pointer test; on, spans are kept in
// memory and summarized when the run ends.

#ifndef PERFBENCH_SRC_TRACE_H_
#define PERFBENCH_SRC_TRACE_H_

#include <time.h>

#include <chrono>
#include <vector>

#include "src/stats.h"

namespace perfbench {

// Seconds on the host's steady clock.
inline double HostSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// CPU seconds this process has run, all threads together. Unlike the
// steady clock it does not advance while the process waits for a core, so
// single-threaded simulation cost read on it is not inflated by other
// processes on a shared host.
inline double HostCpuSeconds() {
  timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

class Tracer {
 public:
  // Opens a span named `name` (a string literal) under the innermost open
  // span; returns its index.
  int Begin(const char* name) {
    Span s;
    s.name = name;
    s.parent = open_.empty() ? -1 : open_.back();
    s.start_us = HostSeconds() * 1e6;
    spans_.push_back(s);
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }
  void End(int index) {
    spans_[static_cast<size_t>(index)].end_us = HostSeconds() * 1e6;
    open_.pop_back();
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// RAII span; a no-op when `tracer` is null.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name)
      : tracer_(tracer), index_(tracer ? tracer->Begin(name) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) {
      tracer_->End(index_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_TRACE_H_
