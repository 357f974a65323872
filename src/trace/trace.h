// Projections-style event tracing with Chrome trace-event (Perfetto) export.
//
// The paper's comparisons are claims about *where time goes* — scheduler
// dispatch, handler execution, pack/transit/unpack phases — so the runtime
// records a typed event stream per PE and exports it as Chrome trace-event
// JSON: one track per PE, nested duration events for handlers and ULT
// slices, flow arrows for cross-PE messages and thread migrations.
//
// Cost model: tracing is always compiled in but env-gated. With tracing off
// the hot path is ONE predictable branch on a plain bool (`detail::g_on`,
// written only while every PE is quiescent) — no atomics, no TLS lookup.
// With tracing on, each event is a 32-byte store into the PE's
// single-writer ring (see ring.h). Events are recorded by probe::emit
// (probe.h), which also owns the per-thread ring binding and the clock
// policy.
//
// Session lifecycle: trace::start(npes) before Machine::run, probe::bind_pe
// on each PE loop, stop_and_export(path) after the PEs have joined.
// Machine::run auto-starts/exports a session when MFC_TRACE=1 and no
// explicit session is active, so `MFC_TRACE=1 ./some_test` just works.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "trace/ring.h"

namespace mfc::trace {

namespace detail {
// Tracing-enabled gate. Plain (non-atomic) bool: flipped only by
// start()/stop() while no PE loop is running, read racily-but-benignly by
// probe::emit(). Keeping it a plain bool keeps the off path to one
// test+branch.
extern bool g_on;

/// The session's ring for PE `pe` and its "wire" ring; null without a
/// session or out of range. The probe binds threads through them.
Ring* ring(int pe);
Ring* wire_ring();
}  // namespace detail

inline bool enabled() { return detail::g_on; }

/// True when MFC_TRACE=1 (or any value other than "" / "0") is set.
bool env_enabled();
/// MFC_TRACE_FILE, defaulting to "mfc_trace.json".
std::string env_file();

/// Starts a recording session with one ring per PE plus one "wire" ring for
/// the process's transport comm thread. `ring_capacity` 0 means
/// MFC_TRACE_CAP if set, else 8Ki records per PE. The probe's clock anchor
/// is re-taken as the session's time origin. Must be called while no PE
/// loop is running; returns false if a session is already active.
bool start(int npes, std::size_t ring_capacity = 0);
bool active();

/// Records this process's estimated monotonic-clock skew versus proc 0
/// (from the boot-time clock handshake over the transport). Stored in the
/// part header; merge subtracts it when aligning tracks. Forked same-host
/// processes share CLOCK_MONOTONIC, so the skew is normally ~0 and the
/// handshake is a cross-host-proofing refinement, not a correctness need.
void set_clock_skew(std::int64_t skew_ns);

/// Attaches a key/value pair to the trace (exported under "otherData" and
/// into the summary). Used by the storm driver for chaos seed / technique
/// mix so a replayed seed yields a comparable, labelled timeline.
void set_meta(const std::string& key, const std::string& value);

/// Per-session aggregate filled in by stop()/stop_and_export().
struct Summary {
  std::uint64_t by_type[kEvCount] = {};  ///< emitted counts (wrap-independent)
  std::uint64_t emitted = 0;
  std::uint64_t retained = 0;  ///< records still in rings at stop
  std::uint64_t dropped = 0;   ///< overwritten by drop-oldest
  int npes = 0;

  /// Order-independent digest of emitted counts for the listed event types.
  /// Storm replay determinism is asserted on the deterministic subset
  /// (thread creates, pack/unpack, slot traffic) — see stress_storm_test.
  std::uint64_t digest(std::initializer_list<Ev> evs) const;
};

/// Ends the session, discarding events. Returns the summary.
Summary stop();

/// Ends the session and writes Chrome trace-event JSON to `path`. If `ok`
/// is non-null it is set to false when the file could not be written.
Summary stop_and_export(const std::string& path, bool* ok = nullptr);

/// Ends the session and writes a binary trace *part* to `path`: the raw
/// records of the rings this process wrote (its probe::place() PE range
/// plus the wire ring), the probe anchor's calibration and the clock-skew
/// estimate. Parts from the processes of one machine run are merged into a
/// single clock-aligned Perfetto JSON by merge_parts / tools/trace_merge.
Summary stop_and_export_part(const std::string& path, bool* ok = nullptr);

/// Merges binary trace parts (stop_and_export_part output) into one
/// Chrome trace-event JSON at `out_path`: one track group (pid) per
/// process, tracks (tids) per PE plus the wire track, all timestamps
/// aligned to a common origin via each part's monotonic anchor minus its
/// handshake skew. Cross-process flow arrows bind automatically because
/// flow ids are machine-wide unique. Deterministic: merging the same
/// parts twice yields byte-identical output. Returns false (and fills
/// `err` if non-null) on unreadable/corrupt parts or write failure.
bool merge_parts(const std::vector<std::string>& part_paths,
                 const std::string& out_path, std::string* err = nullptr);

/// Summary of the most recently stopped session (zeroed before the first).
const Summary& last_summary();

}  // namespace mfc::trace
