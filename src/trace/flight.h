// Failure flight recorder: an always-on black box for postmortems.
//
// The full trace subsystem is opt-in (MFC_TRACE) and sized for throughput;
// when a kill storm goes wrong with tracing off, all that survives is a
// digest mismatch. The flight recorder keeps a small per-process
// drop-oldest ring of only the *rare, triage-critical* events — FT
// checkpoints/kills/detections/recoveries, chaos injections, storm rounds,
// LB decisions, migrate pack/unpack — recorded unconditionally (default
// on; MFC_FLIGHT=0 disables). The probe's event table (probe.h) marks
// which events are flight-class; probe::emit notes them here. On a failure trigger (PE kill, wedge
// watchdog, invariant-checker failure) the ring freezes first-trigger-wins
// and dumps ready-to-open Perfetto JSON per process.
//
// Cost model: the noted events fire at per-round/per-migration cadence
// (microseconds apart, not nanoseconds), so each note takes an uncontended
// mutex and reads the clock fresh — ~50 ns where the event itself costs
// micros. The per-message hot path never calls into here.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

#include "trace/ring.h"

namespace mfc::trace::flight {

namespace detail {
// Recording gate. Unlike the trace gate (flipped only while no PE loop
// runs), the freeze in dump() lands mid-run on another thread, so the
// gate is a relaxed atomic: same single-load cost on x86, and the
// mutex-guarded re-check in note() provides the ordering that matters
// (no note lands after the freeze captured the ring).
extern std::atomic<bool> g_fl_on;
/// Appends `r` on track `pe` (-1: the "other" track); a zero r.tsc is
/// stamped fresh.
void note(Record r, std::int16_t pe);
}  // namespace detail

/// (Re)arms the recorder: allocates the ring (`cap` 0 ⇒ MFC_FLIGHT_CAP,
/// else 1024 records), clears the dumped latch, applies the env gate
/// (off only when MFC_FLIGHT=0).
/// probe::start calls this at boot; a second init while armed resets the
/// window (quiescent callers only). Timestamps are calibrated against the
/// probe's anchor and the dump is named after the probe's place.
void init(int npes, std::size_t cap = 0);

inline bool on() { return detail::g_fl_on.load(std::memory_order_relaxed); }

/// Freezes recording and writes this process's dump (first trigger wins;
/// later calls are no-ops returning false). `reason` lands in otherData.
/// The dump lands at "<MFC_FLIGHT_FILE>.json" (base name "mfc_flight" by
/// default), or "<base>.proc<k>.json" in a multi-process machine.
bool dump(const char* reason);
bool dumped();
/// Path the last successful dump wrote (empty before the first).
std::string last_dump_path();

}  // namespace mfc::trace::flight
