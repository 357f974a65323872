#include "trace/probe.h"

#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "util/log.h"

namespace mfc::probe {

namespace detail {
thread_local Binding t_bind;
std::atomic<std::uint64_t> g_epoch{1};  // a never-bound thread holds 0
}  // namespace detail

namespace {
TscAnchor g_anchor = TscAnchor::now();
Place g_place;
}  // namespace

Owned start(int npes) {
  // Fresh books for this run; pool_stats()/metrics::snapshot() read them
  // after the machine returns. Multi-process: each process's copy-on-write
  // registry holds its local PEs' counts (QD accumulates them via token).
  metrics::reset(npes);
  Owned owned;
  // An explicit trace session keeps its own time origin.
  if (!trace::active()) reanchor();
  owned.trace = trace::env_enabled() && !trace::active();
  if (owned.trace) trace::start(npes);
  owned.stats = env_flag("MFC_STATS") && !hist::on();
  if (owned.stats) {
    hist::reset(npes);
    hist::enable(true);
  }
  // Always armed unless MFC_FLIGHT=0: the black box that survives a
  // failure when MFC_TRACE is off. Forked children inherit the armed ring
  // and dump independently.
  trace::flight::init(npes);
  return owned;
}

void finish(const Owned& owned) {
  const bool multi = g_place.nprocs > 1;
  if (owned.trace) {
    const std::string base = trace::env_file();
    if (!multi) {
      trace::stop_and_export(base);
    } else {
      // Binary part, not JSON: process 0 merges every process's part into
      // one skew-corrected timeline after it reaped the children.
      trace::stop_and_export_part(base + ".part" +
                                  std::to_string(g_place.proc));
      if (g_place.proc == 0) {
        std::vector<std::string> parts;
        for (int p = 0; p < g_place.nprocs; ++p) {
          parts.push_back(base + ".part" + std::to_string(p));
        }
        std::string err;
        if (!trace::merge_parts(parts, base, &err)) {
          MFC_LOG_WARN("trace merge failed: %s", err.c_str());
        }
      }
    }
  }
  if (owned.stats) {
    const std::string path = env_str("MFC_STATS_FILE", "mfc_stats.json");
    hist::write_stats_json(
        multi ? path + ".proc" + std::to_string(g_place.proc) : path);
    hist::enable(false);
  }
}

void bind_pe(int pe) {
  detail::Binding& t = detail::t_bind;
  t = detail::Binding{};
  if (pe < 0) return;
  if (pe < metrics::detail::g_npes) t.counters = &metrics::detail::g_slots[pe];
  if (pe < hist::detail::g_npes) t.hist = &hist::detail::g_slots[pe];
  t.ring = trace::detail::ring(pe);
  t.pe = static_cast<std::int16_t>(pe);
  t.epoch = detail::g_epoch.load(std::memory_order_relaxed);
}

void unbind_pe() { detail::t_bind = detail::Binding{}; }

detail::Binding WireScope::enter_wire() {
  detail::Binding& t = detail::t_bind;
  const detail::Binding saved = t;
  // A thread no PE bound (a comm thread) counts into the shared slots.
  if (detail::bound() == nullptr) t = detail::Binding{};
  t.ring = trace::detail::wire_ring();
  t.epoch = detail::g_epoch.load(std::memory_order_relaxed);
  t.tsc_age = 1u << 30;
  return saved;
}

void WireScope::leave_wire(const detail::Binding& saved) {
  detail::t_bind = saved;
  detail::t_bind.tsc_age = 1u << 30;  // keep the restored ring monotonic
}

void set_proc(int proc, int nprocs, int local_first, int local_npes) {
  g_place.proc = proc < 0 ? 0 : proc;
  g_place.nprocs = nprocs < 1 ? 1 : nprocs;
  g_place.local_first = local_first;
  g_place.local_npes = local_npes;
}

const Place& place() { return g_place; }

const TscAnchor& anchor() { return g_anchor; }

void reanchor() { g_anchor = TscAnchor::now(); }

bool env_flag(const char* name, bool dflt) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') return dflt;
  return std::strcmp(env, "0") != 0;
}

std::string env_str(const char* name, const char* dflt) {
  const char* env = std::getenv(name);
  return (env != nullptr && *env != '\0') ? env : dflt;
}

std::size_t env_size(const char* name, std::size_t dflt) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') return dflt;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(env, &end, 0);
  return end != nullptr && *end == '\0' && v > 0
             ? static_cast<std::size_t>(v)
             : dflt;
}

}  // namespace mfc::probe
