#include "trace/flight.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <mutex>
#include <vector>

#include "trace/export_internal.h"
#include "trace/probe.h"

namespace mfc::trace::flight {

namespace detail {
std::atomic<bool> g_fl_on{false};
}

namespace {

struct Entry {
  Record r;
  std::int16_t pe = -1;
};

struct Recorder {
  std::mutex mu;
  std::vector<Entry> buf;
  std::uint64_t head = 0;  ///< monotonic; masked on use (cap is power of 2)
  std::uint64_t mask = 0;
  int npes = 0;
  bool dumped = false;
  std::string dump_path;
};

Recorder* g_rec = nullptr;
std::mutex g_rec_mu;  ///< guards g_rec swap in init() vs dump()

constexpr std::size_t kDefaultCap = 1024;

}  // namespace

namespace detail {

void note(Record r, std::int16_t pe) {
  Recorder* rec = g_rec;
  if (rec == nullptr) return;
  Entry e{r, pe};
  if (e.r.tsc == 0) e.r.tsc = rdtsc();
  std::lock_guard<std::mutex> lock(rec->mu);
  if (!g_fl_on.load(std::memory_order_relaxed)) return;  // froze while we
                                                         // raced here
  rec->buf[rec->head & rec->mask] = e;
  ++rec->head;
}

}  // namespace detail

void init(int npes, std::size_t cap) {
  std::lock_guard<std::mutex> swap_lock(g_rec_mu);
  detail::g_fl_on = false;
  delete g_rec;
  g_rec = nullptr;
  if (!probe::env_flag("MFC_FLIGHT", true)) return;
  if (cap == 0) cap = probe::env_size("MFC_FLIGHT_CAP", kDefaultCap);
  std::size_t pow2 = 8;
  while (pow2 < cap) pow2 <<= 1;
  auto* rec = new Recorder;
  rec->buf.resize(pow2);
  rec->mask = pow2 - 1;
  rec->npes = npes;
  g_rec = rec;
  detail::g_fl_on = true;
}

bool dump(const char* reason) {
  std::lock_guard<std::mutex> swap_lock(g_rec_mu);
  Recorder* rec = g_rec;
  if (rec == nullptr) return false;
  std::vector<Entry> entries;
  int npes;
  {
    std::lock_guard<std::mutex> lock(rec->mu);
    if (rec->dumped) return false;  // first trigger wins
    rec->dumped = true;
    detail::g_fl_on = false;  // freeze: no notes past this point
    const std::uint64_t retained =
        std::min<std::uint64_t>(rec->head, rec->buf.size());
    entries.reserve(retained);
    for (std::uint64_t i = rec->head - retained; i < rec->head; ++i) {
      entries.push_back(rec->buf[i & rec->mask]);
    }
    npes = rec->npes;
  }
  // Group chronological entries into per-PE tracks (+ "other" for unbound
  // threads); stable per-track order preserves the B/E nesting.
  std::map<int, internal::Track> tracks;
  for (const Entry& e : entries) {
    const int tid = e.pe >= 0 ? e.pe : npes + 1;
    internal::Track& t = tracks[tid];
    if (t.recs.empty()) {
      t.tid = tid;
      t.name = internal::track_name(tid, npes);
    }
    t.recs.push_back(e.r);
  }
  std::vector<internal::Track> flat;
  flat.reserve(tracks.size());
  for (auto& [tid, t] : tracks) flat.push_back(std::move(t));

  const int proc = probe::place().proc;
  const int nprocs = probe::place().nprocs;
  const TscAnchor& anchor = probe::anchor();
  std::string path = probe::env_str("MFC_FLIGHT_FILE", "mfc_flight");
  if (nprocs > 1) path += ".proc" + std::to_string(proc);
  path += ".json";
  char pname[48];
  std::snprintf(pname, sizeof(pname), "mfc flight proc %d", proc);
  std::vector<std::pair<std::string, std::string>> meta;
  meta.emplace_back("reason", reason != nullptr ? reason : "?");
  meta.emplace_back("proc", std::to_string(proc));
  meta.emplace_back("nprocs", std::to_string(nprocs));
  meta.emplace_back("records", std::to_string(entries.size()));
  const double npt = anchor.ns_per_tick(TscAnchor::now());
  const bool ok = internal::write_tracks_json(
      path, proc, nprocs > 1 ? pname : "mfc flight", flat, anchor.tsc, npt,
      meta);
  {
    std::lock_guard<std::mutex> lock(rec->mu);
    rec->dump_path = ok ? path : "";
  }
  return ok;
}

bool dumped() {
  Recorder* rec = g_rec;
  if (rec == nullptr) return false;
  std::lock_guard<std::mutex> lock(rec->mu);
  return rec->dumped;
}

std::string last_dump_path() {
  Recorder* rec = g_rec;
  if (rec == nullptr) return "";
  std::lock_guard<std::mutex> lock(rec->mu);
  return rec->dump_path;
}

}  // namespace mfc::trace::flight
