#include "charm/lb_manager.h"

#include <mutex>
#include <utility>

#include "trace/probe.h"
#include "util/check.h"

namespace mfc::charm {

namespace {

struct ReportMsg {
  int array_id = 0;
  int pe = 0;
  std::vector<std::pair<int, double>> loads;  ///< (element index, seconds)
  void pup(pup::Er& p) { p | array_id | pe | loads; }
};

struct OrdersMsg {
  int array_id = 0;
  int migrations_total = 0;
  double imbalance_before = 0;
  double imbalance_after = 0;
  std::vector<std::pair<int, int>> moves;  ///< (element index, dest pe)
  void pup(pup::Er& p) {
    p | array_id | migrations_total | imbalance_before | imbalance_after |
        moves;
  }
};

/// Per-PE state for the rebalance episode in progress.
struct PendingRebalance {
  ult::Thread* waiter = nullptr;
  RebalanceResult result;
};
thread_local PendingRebalance* t_pending = nullptr;

/// PE0-only collection state, keyed by array id.
thread_local std::unordered_map<int, std::vector<ReportMsg>> t_reports;

converse::HandlerId h_lb_report, h_lb_orders;

/// The strategy for the in-flight episode. Collective call: every PE passed
/// the same strategy object semantics; PE 0's copy decides.
thread_local const lb::Strategy* t_strategy = nullptr;

void decide_and_issue(ArrayBase& array, std::vector<ReportMsg> reports) {
  const int npes = converse::num_pes();
  const auto count = static_cast<std::size_t>(array.count());
  std::vector<double> loads(count, 0.0);
  lb::Mapping current(count, 0);
  std::size_t seen = 0;
  for (const ReportMsg& r : reports) {
    for (const auto& [index, load] : r.loads) {
      loads[static_cast<std::size_t>(index)] = load;
      current[static_cast<std::size_t>(index)] = r.pe;
      ++seen;
    }
  }
  MFC_CHECK_MSG(seen == count, "rebalance: element reports incomplete");

  MFC_CHECK_MSG(t_strategy != nullptr && *t_strategy,
                "rebalance: strategy missing on PE 0");
  const lb::Mapping next = (*t_strategy)(loads, current, npes);

  OrdersMsg base;
  base.array_id = array.id();
  base.migrations_total = lb::migration_count(current, next);
  base.imbalance_before = lb::mapping_imbalance(loads, current, npes);
  base.imbalance_after = lb::mapping_imbalance(loads, next, npes);

  // The decision instant on PE0's track (a = migrations, which the probe
  // also counts): size carries the post-balance imbalance scaled to
  // per-mille so the record stays integer-only.
  probe::emit(probe::Ev::kLbDecision, 0,
              static_cast<std::uint32_t>(base.migrations_total),
              static_cast<std::uint32_t>(base.imbalance_after * 1000.0));

  // One orders message per PE, containing only that PE's departures.
  for (int pe = 0; pe < npes; ++pe) {
    OrdersMsg orders = base;
    for (std::size_t i = 0; i < count; ++i) {
      if (current[i] == pe && next[i] != current[i]) {
        orders.moves.emplace_back(static_cast<int>(i), next[i]);
      }
    }
    converse::send_value(pe, h_lb_orders, orders);
  }
}

void register_lb_handlers() {
  static std::once_flag once;
  std::call_once(once, [] {
    h_lb_report = converse::register_handler([](converse::Message&& m) {
      auto report = m.as<ReportMsg>();
      const int array_id = report.array_id;
      auto& bucket = t_reports[array_id];
      bucket.push_back(std::move(report));
      if (static_cast<int>(bucket.size()) == converse::num_pes()) {
        ArrayBase* array = find_array(array_id);
        MFC_CHECK(array != nullptr);
        auto reports = std::move(bucket);
        t_reports.erase(array_id);
        decide_and_issue(*array, std::move(reports));
      }
    });
    h_lb_orders = converse::register_handler([](converse::Message&& m) {
      auto orders = m.as<OrdersMsg>();
      ArrayBase* array = find_array(orders.array_id);
      MFC_CHECK(array != nullptr);
      for (const auto& [index, dest] : orders.moves) {
        array->migrate(index, dest);
      }
      MFC_CHECK_MSG(t_pending != nullptr, "rebalance orders without waiter");
      t_pending->result.migrations = orders.migrations_total;
      t_pending->result.imbalance_before = orders.imbalance_before;
      t_pending->result.imbalance_after = orders.imbalance_after;
      converse::ready_thread(t_pending->waiter);
    });
  });
}

}  // namespace

RebalanceResult rebalance(ArrayBase& array, const lb::Strategy& strategy) {
  register_lb_handlers();
  MFC_CHECK_MSG(converse::pe_scheduler().in_thread(),
                "rebalance() must run inside a ULT (the PE main)");
  MFC_CHECK_MSG(t_pending == nullptr, "rebalance() already in progress");

  PendingRebalance pending;
  t_pending = &pending;
  t_strategy = &strategy;

  ReportMsg report;
  report.array_id = array.id();
  report.pe = converse::my_pe();
  for (int index : array.local_indices()) {
    Element* e = array.local_element(index);
    report.loads.emplace_back(index, e->accumulated_load());
    e->reset_load();
  }
  converse::send_value(0, h_lb_report, report);

  pending.waiter = converse::pe_scheduler().running();
  converse::pe_scheduler().suspend();  // resumed by the orders handler
  t_pending = nullptr;
  t_strategy = nullptr;

  // Close the episode machine-wide: when the barrier releases, every PE has
  // executed its orders (the barrier message follows them in FIFO order).
  converse::barrier();
  return pending.result;
}

}  // namespace mfc::charm
