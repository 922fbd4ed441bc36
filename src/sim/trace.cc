#include "src/sim/trace.h"

#include <string>
#include <vector>

#include "src/common/strings.h"
#include "src/report/json.h"

namespace heterollm::sim {

void WriteChromeTrace(const SocSimulator& soc, std::ostream& os) {
  os << "[\n";
  bool first = true;
  // Thread-name metadata so the viewer labels the unit tracks.
  for (int u = 0; u < soc.unit_count(); ++u) {
    if (!first) {
      os << ",\n";
    }
    first = false;
    os << StrFormat(
        "  {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 0, "
        "\"tid\": %d, \"args\": {\"name\": \"%s\"}}",
        u, report::EscapeJsonString(soc.unit_spec(u).name).c_str());
  }
  // Each distinct label is escaped once.
  std::vector<std::string> names(static_cast<size_t>(soc.label_count()));
  for (LabelId id = 0; id < soc.label_count(); ++id) {
    names[static_cast<size_t>(id)] =
        report::EscapeJsonString(soc.label_name(id));
  }
  for (KernelHandle h = 0; h < soc.kernel_count(); ++h) {
    if (!soc.IsFinished(h)) {
      continue;
    }
    const KernelRecord& r = soc.record(h);
    if (!first) {
      os << ",\n";
    }
    first = false;
    os << StrFormat(
        "  {\"name\": \"%s\", \"ph\": \"X\", \"pid\": 0, \"tid\": %d, "
        "\"ts\": %.3f, \"dur\": %.3f, "
        "\"args\": {\"bytes\": %.0f, \"flops\": %.0f}}",
        names[static_cast<size_t>(r.label)].c_str(), r.unit, r.start,
        r.end - r.start, r.bytes, r.flops);
  }
  os << "\n]\n";
}

}  // namespace heterollm::sim
