// Internal bridge between the trace exporter and the flight recorder: lets
// a postmortem dump render raw Records with the exact same trace-event JSON
// generator the live exporter uses, so a black-box dump opens in Perfetto
// identically to a full trace. Not part of the public tracing API.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "trace/ring.h"

namespace mfc::trace::internal {

struct Track {
  int tid = 0;
  std::string name;  ///< track label ("PE 3", "wire", "other")
  std::vector<Record> recs;
};

/// Track label for tid `tid` of an `npes`-PE process: "PE <tid>", "wire"
/// for tid npes (the comm-thread ring), "other" for npes + 1 (unbound
/// threads' flight notes).
std::string track_name(int tid, int npes);

/// Writes one process's tracks as a complete Chrome trace-event JSON file.
/// `meta` lands in otherData (key order preserved as given).
bool write_tracks_json(
    const std::string& path, int pid, const std::string& proc_name,
    const std::vector<Track>& tracks, std::uint64_t tsc0, double ns_per_tick,
    const std::vector<std::pair<std::string, std::string>>& meta);

}  // namespace mfc::trace::internal
