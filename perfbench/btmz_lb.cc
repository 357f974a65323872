// btmz_lb: the shape of the paper's Figure 12. Uneven class-B NAS
// multi-zone zones, blocked over 32 AMPI ranks in a seeded order, on 3 PEs.
// Each iteration exchanges zone faces and sweeps every zone; early in the
// run the ranks call ampi::migrate() and greedy load balancing moves them.
// Time to solution depends on balance quality and a few migrations, and
// barely on message overhead.
//
// The sweep is an exact integer recurrence: every point of a zone gets
//   u <- A*u + (C + g)      (mod 2^64), kSweeps times per iteration,
// where g sums the neighbours' face values. Zone, face and total sums obey
// the same affine map, so the expected checksum is computed from per-zone
// sums alone, independent of placement and migration.
#include <algorithm>
#include <array>
#include <cstdlib>

#include "ampi/ampi.h"
#include "bench.h"
#include "iso/heap.h"
#include "lb/strategy.h"
#include "nasmz/zones.h"
#include "util/rng.h"

namespace perfbench {

namespace {

namespace ampi = mfc::ampi;
namespace lb = mfc::lb;
namespace nasmz = mfc::nasmz;

constexpr int kRanks = 32;
constexpr int kIters = 30;
constexpr int kLbAt = 3;  ///< iterations measured before balancing
constexpr int kSweeps = 100;
constexpr std::uint64_t kA = 6364136223846793005ULL;
constexpr std::uint64_t kC = 1442695040888963407ULL;

enum Dir { kWest = 0, kEast = 1, kSouth = 2, kNorth = 3 };
constexpr int kOpposite[4] = {kEast, kWest, kNorth, kSouth};

int neighbour(const nasmz::Zone& z, int dir) {
  const int nbr[4] = {z.west, z.east, z.south, z.north};
  return nbr[dir];
}

std::size_t face_len(const nasmz::Zone& z, int dir) {
  return static_cast<std::size_t>(dir <= kEast ? z.ny : z.nx) *
         static_cast<std::size_t>(z.nz);
}

/// Index of the `j`-th point of face `dir` in x-fastest (z, y, x) order.
std::size_t face_point(const nasmz::Zone& z, int dir, std::size_t j) {
  const auto nx = static_cast<std::size_t>(z.nx);
  const auto ny = static_cast<std::size_t>(z.ny);
  if (dir <= kEast) {  // x fixed; j walks (z, y)
    const std::size_t x = dir == kWest ? 0 : nx - 1;
    return j * nx + x;
  }
  const std::size_t y = dir == kSouth ? 0 : ny - 1;  // y fixed; j walks (z, x)
  const std::size_t zi = j / nx, x = j % nx;
  return (zi * ny + y) * nx + x;
}

std::uint64_t face_sum(const nasmz::Zone& z, const std::uint64_t* u, int dir) {
  std::uint64_t s = 0;
  const std::size_t n = face_len(z, dir);
  for (std::size_t j = 0; j < n; ++j) s += u[face_point(z, dir, j)];
  return s;
}

/// Fills a zone's `n` points with an LCG stream seeded per zone. Like the
/// sweep it is one dependent chain, so set-up time does not follow the
/// host's hyperthread load either. Its multiplier differs from the sweep's,
/// so a sweep step does not just shift the stream by one point.
void fill_initial(std::uint64_t seed, int zone, std::uint64_t* u,
                  std::size_t n) {
  constexpr std::uint64_t kFillA = 0xd1342543de82ef95ULL;
  std::uint64_t x =
      mfc::SplitMix64(seed ^ (static_cast<std::uint64_t>(zone) << 40)).next();
  for (std::size_t i = 0; i < n; ++i) {
    u[i] = x;
    x = kFillA * x + 1;
  }
}

/// Ghost-message tag, unique per (receiving zone, receiving direction).
int edge_tag(int recv_zone, int recv_dir) { return recv_zone * 4 + recv_dir; }

/// The sweep: u <- A*u + add, kSweeps times over the zone. It is most of
/// the workload's CPU time, so its speed must not depend on the host:
/// - Each point takes its kSweeps steps as one dependent chain, so the loop
///   waits on multiply latency. A loop bound by multiply throughput instead
///   (the whole zone, kSweeps times over) ran at speeds 2.7x apart on the
///   vCPUs of one host within minutes; the chain's stayed within 10%.
/// - It is out of line, and compiled with loop heads aligned to 64 bytes
///   (CMakeLists.txt), so an unrelated change in another file cannot move
///   it across a cache line: a 23-byte inner loop that straddled one made
///   the whole workload 40% slower.
[[gnu::noinline]] void sweep(std::uint64_t* u, std::size_t n,
                             std::uint64_t add) {
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t x = u[i];
    for (int k = 0; k < kSweeps; ++k) x = kA * x + add;
    u[i] = x;
  }
}

bool checksum_ok(std::uint64_t got, std::uint64_t expected) {
  return got == expected;
}

/// One input of the workload, generated from its own seed: the
/// largest/smallest zone ratio (BT-MZ uses ~20) and the order in which zones
/// are dealt out in blocks to the ranks. The total point count is the same
/// for every seed.
struct Input {
  explicit Input(std::uint64_t s) : seed(s) {
    mfc::SplitMix64 rng(seed);
    grid = nasmz::ZoneGrid::make('B', rng.next_in(14.0, 26.0));
    const int nzones = static_cast<int>(grid.zones.size());
    std::vector<std::size_t> order(static_cast<std::size_t>(nzones));
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    for (std::size_t i = order.size() - 1; i > 0; --i) {
      std::swap(order[i], order[rng.next_below(i + 1)]);
    }
    const std::vector<int> blocked =
        nasmz::assign_zones_blocked(nzones, kRanks);
    owner.resize(order.size());
    for (std::size_t j = 0; j < order.size(); ++j) {
      owner[order[j]] = blocked[j];
    }
    expected = reference_checksum();
  }

  /// The expected sum of every point after kIters iterations, from
  /// per-zone total and face sums (all transform by the same affine map).
  std::uint64_t reference_checksum() const {
    std::uint64_t ak = 1, gk = 0;  // A^K and sum_{j<K} A^j
    for (int k = 0; k < kSweeps; ++k) {
      gk += ak;
      ak *= kA;
    }
    const std::size_t nz = grid.zones.size();
    std::vector<std::uint64_t> total(nz, 0);
    std::vector<std::array<std::uint64_t, 4>> face(nz);
    for (const nasmz::Zone& z : grid.zones) {
      std::vector<std::uint64_t> u(z.points());
      fill_initial(seed, z.id, u.data(), u.size());
      for (const std::uint64_t v : u) {
        total[static_cast<std::size_t>(z.id)] += v;
      }
      for (int d = 0; d < 4; ++d) {
        face[static_cast<std::size_t>(z.id)][static_cast<std::size_t>(d)] =
            face_sum(z, u.data(), d);
      }
    }
    std::vector<std::uint64_t> g(nz);
    for (int it = 0; it < kIters; ++it) {
      for (const nasmz::Zone& z : grid.zones) {
        std::uint64_t s = 0;
        for (int d = 0; d < 4; ++d) {
          const int n = neighbour(z, d);
          if (n >= 0) {
            s += face[static_cast<std::size_t>(n)]
                     [static_cast<std::size_t>(kOpposite[d])];
          }
        }
        g[static_cast<std::size_t>(z.id)] = s;
      }
      for (const nasmz::Zone& z : grid.zones) {
        const auto id = static_cast<std::size_t>(z.id);
        const std::uint64_t add = (kC + g[id]) * gk;
        total[id] = ak * total[id] + z.points() * add;
        for (int d = 0; d < 4; ++d) {
          face[id][static_cast<std::size_t>(d)] =
              ak * face[id][static_cast<std::size_t>(d)] + face_len(z, d) * add;
        }
      }
    }
    std::uint64_t sum = 0;
    for (std::uint64_t t : total) sum += t;
    return sum;
  }

  std::uint64_t seed;
  nasmz::ZoneGrid grid;
  std::vector<int> owner;  ///< zone -> rank
  std::uint64_t expected = 0;  ///< checksum after kIters iterations
};

/// Inputs per run. Episode n runs input n mod kInputs, so every run's
/// medians cover the same spread of balance problems whatever its seed:
/// one input per run made the post-LB balance, and with it every time,
/// depend on the seed.
constexpr std::size_t kInputs = 16;

class BtmzLb final : public Workload {
 public:
  explicit BtmzLb(const Config& cfg) {
    mfc::SplitMix64 rng(cfg.seed);
    inputs_.reserve(kInputs);
    for (std::size_t i = 0; i < kInputs; ++i) {
      inputs_.emplace_back(rng.next());
    }
  }

  int flows() const override { return kRanks; }

  void run(Episode& ep) override {
    in_ = &inputs_[episodes_++ % inputs_.size()];
    ampi::Options opt;
    opt.nranks = kRanks;
    opt.npes = kPes;
    double imbalance_before = 0;
    opt.lb_strategy = [&](const std::vector<double>& loads,
                          const lb::Mapping& current, int npes) {
      // Runs inside rank 0's ampi::migrate(), so it records on rank 0.
      Span sp(ep.tracer(0), Op::kLbStrategy);
      imbalance_before = lb::mapping_imbalance(loads, current, npes);
      return lb::greedy_lb(loads, current, npes);
    };
    ep.iter_us.reserve(kIters);
    Counters before, after;
    std::uint64_t dispatches = 0;
    double t0 = 0, cpu0 = 0, imbalance_after = 0;
    int moved = 0;
    // Heap slot bytes per rank, and those shipped by the LB step (computed
    // from the heap footprints, not measured on the wire).
    std::size_t slot_bytes[kRanks] = {};
    std::size_t shipped[kRanks] = {};

    const double t_boot = wall_s();
    ampi::run(opt, [&] {
      pin_pe_thread(ampi::my_pe());
      const int me = ampi::rank();
      Tracer* tr = ep.tracer(me);
      Checks& ck = ep.checks[static_cast<std::size_t>(me)];
      mfc::iso::ThreadHeap* heap = mfc::iso::current_heap();
      if (heap == nullptr) std::abort();  // ranks always run on a heap

      // Rank state lives in the isomalloc heap, so it travels on migrate().
      struct Mine {
        int zone;
        std::uint64_t* u;
        std::uint64_t* ghost[4];  ///< receive buffers, null if not remote
        std::uint64_t* face;      ///< send staging, longest face
      };
      std::vector<Mine> mine;
      for (const nasmz::Zone& z : in_->grid.zones) {
        if (owner(z.id) != me) continue;
        Mine m{z.id, nullptr, {}, nullptr};
        const auto alloc = [&](std::size_t words) {
          Span sp(tr, Op::kIsoMalloc);
          return static_cast<std::uint64_t*>(heap->malloc(words * 8));
        };
        m.u = alloc(z.points());
        fill_initial(in_->seed, z.id, m.u, z.points());
        for (int d = 0; d < 4; ++d) {
          const int n = neighbour(z, d);
          if (n >= 0 && owner(n) != me) {
            m.ghost[d] = alloc(face_len(z, d));
          }
        }
        m.face = alloc(std::max(face_len(z, kWest), face_len(z, kSouth)));
        mine.push_back(m);
      }
      slot_bytes[me] = heap->footprint();

      const std::uint64_t d0 = ampi_pe_dispatches();
      ampi::barrier();
      if (me == 0) {
        ep.setup_s = wall_s() - t_boot;
        before = Counters::read();
        cpu0 = process_cpu_s();
        t0 = wall_s();
      }
      double t_prev = t0;
      std::vector<ampi::Request> reqs;
      std::vector<std::uint64_t> g(mine.size());  // ghost sum per zone
      for (int it = 0; it < kIters; ++it) {
        Span iter(me == 0 ? tr : nullptr, Op::kIter);
        if (it == kLbAt) {
          const int pe_before = ampi::my_pe();
          {
            Span sp(tr, Op::kAmpiLbStep);
            const int n = ampi::migrate();
            if (me == 0) moved = n;
          }
          if (ampi::my_pe() != pe_before) shipped[me] = slot_bytes[me];
        }
        std::fill(g.begin(), g.end(), 0);
        {
          Span ex(tr, Op::kNasmzExchange);
          reqs.clear();
          for (const Mine& m : mine) {
            const nasmz::Zone& z = zone(m.zone);
            for (int d = 0; d < 4; ++d) {
              if (m.ghost[d] == nullptr) continue;
              Span sp(tr, Op::kAmpiIrecv);
              reqs.push_back(ampi::irecv(
                  m.ghost[d], face_len(z, d), ampi::Dtype::kUint64,
                  owner(neighbour(z, d)),
                  edge_tag(m.zone, d)));
            }
          }
          for (const Mine& m : mine) {
            const nasmz::Zone& z = zone(m.zone);
            for (int d = 0; d < 4; ++d) {
              const int n = neighbour(z, d);
              if (n < 0 || owner(n) == me) continue;
              const std::size_t len = face_len(z, d);
              for (std::size_t j = 0; j < len; ++j) {
                m.face[j] = m.u[face_point(z, d, j)];
              }
              Span sp(tr, Op::kAmpiSend);
              ampi::send(m.face, len, ampi::Dtype::kUint64,
                         owner(n),
                         edge_tag(n, kOpposite[d]));
            }
          }
          {
            Span sp(tr, Op::kAmpiWait);
            ampi::wait_all(reqs);
          }
          for (std::size_t k = 0; k < mine.size(); ++k) {
            const Mine& m = mine[k];
            const nasmz::Zone& z = zone(m.zone);
            for (int d = 0; d < 4; ++d) {
              const int n = neighbour(z, d);
              if (n < 0) continue;
              if (m.ghost[d] != nullptr) {
                const std::size_t len = face_len(z, d);
                for (std::size_t j = 0; j < len; ++j) g[k] += m.ghost[d][j];
                continue;
              }
              // Same-rank neighbour: read its facing face directly.
              for (const Mine& o : mine) {
                if (o.zone != n) continue;
                g[k] += face_sum(zone(n), o.u,
                                 kOpposite[d]);
              }
            }
          }
        }
        {
          Span sp(tr, Op::kNasmzCompute);
          for (std::size_t k = 0; k < mine.size(); ++k) {
            const nasmz::Zone& z = zone(mine[k].zone);
            sweep(mine[k].u, z.points(), kC + g[k]);
          }
        }
        if (me == 0) {
          const double t = wall_s();
          ep.iter_us.push_back((t - t_prev) * 1e6);
          t_prev = t;
        }
      }
      ampi::barrier();
      if (me == 0) {
        ep.loop_s = wall_s() - t0;
        ep.cpu_s = process_cpu_s() - cpu0;
        after = Counters::read();
      }
      const std::uint64_t d1 = ampi_pe_dispatches();
      if (me == 0) dispatches = d1 - d0;

      // Balance reached after the LB step, from the loads measured since.
      const double load = ampi::my_load();
      std::vector<double> loads(static_cast<std::size_t>(kRanks));
      ampi::gather(&load, 1, ampi::Dtype::kDouble, loads.data(), 0);
      if (me == 0) {
        imbalance_after =
            lb::mapping_imbalance(loads, ampi::rank_placement(), kPes);
      }

      std::uint64_t local = 0;
      for (const Mine& m : mine) {
        const nasmz::Zone& z = zone(m.zone);
        for (std::size_t i = 0; i < z.points(); ++i) local += m.u[i];
      }
      const auto total =
          ampi::allreduce_one<std::uint64_t>(local, ampi::Op::kSum);
      if (me == 0) {
        ck.expect(checksum_ok(total, in_->expected),
                  "btmz_lb: seeded checksum");
      }
      for (const Mine& m : mine) {
        mfc::iso::ThreadHeap* h = mfc::iso::current_heap();
        h->free(m.u);
        h->free(m.face);
        for (std::uint64_t* gh : m.ghost) {
          if (gh != nullptr) h->free(gh);
        }
      }
    });

    record_machine_layers(ep, before, after, dispatches, kIters);
    if (ep.traced) {
      ep.layer["ampi.send_ns_p50"] = pooled_p50_ns(ep.tracers, Op::kAmpiSend);
      ep.layer["ampi.wait_us_p50"] =
          pooled_p50_ns(ep.tracers, Op::kAmpiWait) / 1e3;
      ep.layer["ampi.lb_step_ms"] =
          pooled_p50_ns(ep.tracers, Op::kAmpiLbStep) / 1e6;
      ep.layer["iso.heap_malloc_us"] =
          pooled_p50_ns(ep.tracers, Op::kIsoMalloc) / 1e3;
      ep.layer["lb.strategy_us"] =
          pooled_p50_ns(ep.tracers, Op::kLbStrategy) / 1e3;
      ep.layer["lb.imbalance_before"] = imbalance_before;
      ep.layer["lb.imbalance_after"] = imbalance_after;
      ep.layer["lb.migrations"] = moved;
      double bytes = 0;
      for (const std::size_t b : shipped) bytes += static_cast<double>(b);
      const double lb_us = ep.layer["ampi.lb_step_ms"] * 1e3;
      ep.layer["migrate.bytes_per_step"] = bytes;
      ep.layer["migrate.MBps"] = lb_us > 0 ? bytes / lb_us : 0;
      std::sort(std::begin(slot_bytes), std::end(slot_bytes));
      ep.layer["iso.heap_slot_bytes"] =
          static_cast<double>(slot_bytes[kRanks / 2]);
      ep.layer["nasmz.compute_ms_per_iter"] =
          pooled_total_ns(ep.tracers, Op::kNasmzCompute) / kIters / 1e6;
      ep.layer["nasmz.exchange_ms_per_iter"] =
          pooled_total_ns(ep.tracers, Op::kNasmzExchange) / kIters / 1e6;
    }
  }

  int self_test() const override {
    int missed = 0;
    const Input& in = inputs_.front();
    if (!checksum_ok(in.expected, in.expected)) ++missed;
    if (checksum_ok(in.expected + 1, in.expected)) ++missed;
    // The reference itself must depend on the seed.
    const Input other(in.seed + 1);
    if (checksum_ok(other.expected, in.expected)) ++missed;
    return missed;
  }

 private:
  const nasmz::Zone& zone(int id) const {
    return in_->grid.zones[static_cast<std::size_t>(id)];
  }
  int owner(int zone_id) const {
    return in_->owner[static_cast<std::size_t>(zone_id)];
  }

  std::vector<Input> inputs_;
  std::size_t episodes_ = 0;    ///< episodes run so far
  const Input* in_ = nullptr;  ///< the current episode's input
};

}  // namespace

std::unique_ptr<Workload> make_btmz_lb(const Config& cfg) {
  return std::make_unique<BtmzLb>(cfg);
}

}  // namespace perfbench
