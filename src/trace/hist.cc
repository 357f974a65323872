#include "trace/hist.h"

#include <cmath>
#include <cstdio>

#include "trace/metrics.h"
#include "trace/probe.h"

namespace mfc::hist {

namespace detail {
bool g_on = false;
Slot* g_slots = nullptr;
int g_npes = 0;
}  // namespace detail

const char* to_string(Hist h) {
  switch (h) {
    case Hist::kQueueWait: return "queue-wait";
    case Hist::kHandlerService: return "handler-service";
    case Hist::kMigratePack: return "migrate-pack";
    case Hist::kMigrateUnpack: return "migrate-unpack";
    case Hist::kMigrateE2e: return "migrate-e2e";
    case Hist::kCount: break;
  }
  return "?";
}

void reset(int npes) {
  if (npes < 0) npes = 0;
  delete[] detail::g_slots;  // quiescence contract: no writer is live here
  detail::g_slots = new detail::Slot[static_cast<std::size_t>(npes) + 1];
  detail::g_npes = npes;
  probe::detail::invalidate_bindings();
}

void enable(bool on) { detail::g_on = on && detail::g_slots != nullptr; }

void record(Hist h, std::uint64_t ticks) {
  if (!detail::g_on) return;
  probe::detail::Binding* t = probe::detail::bound();
  detail::add(t != nullptr ? t->hist : nullptr, h, ticks);
}

std::uint64_t Snapshot::count(Hist h) const {
  const int hi = static_cast<int>(h);
  std::uint64_t n = 0;
  for (int i = 0; i < kBucketCount; ++i) n += b[hi][i];
  return n;
}

std::uint64_t Snapshot::quantile(Hist h, double q) const {
  const std::uint64_t n = count(h);
  if (n == 0) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Rank of the q-th sample, 1-based, ceil'd so p999 on 1000 samples is
  // the 999th, not the 998.001th truncated down.
  std::uint64_t rank =
      static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(n)));
  if (rank == 0) rank = 1;
  const int hi = static_cast<int>(h);
  std::uint64_t seen = 0;
  for (int i = 0; i < kBucketCount; ++i) {
    seen += b[hi][i];
    if (seen >= rank) return bucket_floor(i) + bucket_width(i) / 2;
  }
  return bucket_floor(kBucketCount - 1);
}

double Snapshot::mean(Hist h) const {
  const std::uint64_t n = count(h);
  if (n == 0) return 0.0;
  return static_cast<double>(sum[static_cast<int>(h)]) /
         static_cast<double>(n);
}

void Snapshot::merge(const Snapshot& other) {
  for (int h = 0; h < kHistCount; ++h) {
    for (int i = 0; i < kBucketCount; ++i) b[h][i] += other.b[h][i];
    sum[h] += other.sum[h];
    if (other.max[h] > max[h]) max[h] = other.max[h];
  }
}

Snapshot snapshot() {
  Snapshot out;
  if (detail::g_slots == nullptr) return out;
  for (int s = 0; s <= detail::g_npes; ++s) {
    const detail::Slot& slot = detail::g_slots[s];
    for (int h = 0; h < kHistCount; ++h) {
      for (int i = 0; i < kBucketCount; ++i) {
        out.b[h][i] += slot.b[h][i].load(std::memory_order_relaxed);
      }
      out.sum[h] += slot.sum[h].load(std::memory_order_relaxed);
      const std::uint64_t m = slot.max[h].load(std::memory_order_relaxed);
      if (m > out.max[h]) out.max[h] = m;
    }
  }
  return out;
}

bool write_stats_json(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const metrics::Snapshot counters = metrics::snapshot();
  const Snapshot hists = snapshot();
  const double npt = probe::anchor().ns_per_tick(TscAnchor::now());
  auto ns = [&](std::uint64_t ticks) {
    return static_cast<unsigned long long>(
        static_cast<double>(ticks) * npt);
  };
  // Integer-only printing: locale-proof, same discipline as the exporter.
  std::fprintf(f, "{\"proc\":%d,\"nprocs\":%d,\"npes\":%d,\n",
               counters.proc, counters.nprocs, metrics::npes());
  std::fprintf(f, "\"counters\":{");
  for (int i = 0; i < metrics::kCounterCount; ++i) {
    std::fprintf(f, "%s\"%s\":%llu", i == 0 ? "" : ",",
                 metrics::to_string(static_cast<metrics::Counter>(i)),
                 static_cast<unsigned long long>(counters.v[i]));
  }
  std::fprintf(f, "},\n\"histograms\":{");
  for (int h = 0; h < kHistCount; ++h) {
    const Hist hh = static_cast<Hist>(h);
    std::fprintf(
        f,
        "%s\"%s\":{\"count\":%llu,\"p50_ns\":%llu,\"p99_ns\":%llu,"
        "\"p999_ns\":%llu,\"max_ns\":%llu,\"mean_ns\":%llu}",
        h == 0 ? "" : ",", to_string(hh),
        static_cast<unsigned long long>(hists.count(hh)),
        ns(hists.quantile(hh, 0.50)), ns(hists.quantile(hh, 0.99)),
        ns(hists.quantile(hh, 0.999)), ns(hists.max[h]),
        static_cast<unsigned long long>(hists.mean(hh) * npt));
  }
  std::fprintf(f, "}}\n");
  bool ok = std::ferror(f) == 0;
  if (std::fclose(f) != 0) ok = false;
  return ok;
}

}  // namespace mfc::hist
