#include "charm/array.h"

#include <algorithm>
#include <mutex>

#include "trace/probe.h"
#include "util/check.h"
#include "util/digest.h"
#include "util/timer.h"

namespace mfc::charm {

// Friend shim giving the (anonymous-namespace) handler lambdas access to the
// private protocol methods.
struct ArrayHandlers {
  static void route(ArrayBase& a, int index, int tag, int origin, int hops,
                    std::vector<char> p) {
    a.handle_route(index, tag, origin, hops, std::move(p));
  }
  static void locate(ArrayBase& a, int index, int pe, std::uint32_t epoch) {
    a.handle_locate(index, pe, epoch);
  }
  static void departed(ArrayBase& a, int index, std::uint32_t epoch) {
    a.handle_departed(index, epoch);
  }
  static void arrive(ArrayBase& a, int index, std::uint32_t epoch,
                     const std::vector<char>& s) {
    a.handle_arrive(index, epoch, s);
  }
  static void settled(ArrayBase& a, int index, int pe, std::uint32_t epoch) {
    a.handle_settled(index, pe, epoch);
  }
  static void contribute(ArrayBase& a, int red_id, double v) {
    a.handle_contribute(red_id, v);
  }
};

namespace {

thread_local std::unordered_map<int, ArrayBase*> t_arrays;

// `origin` is the sending PE; `hops` counts the forwards so far.
struct RouteMsg {
  int array_id = 0, index = 0, tag = 0, origin = 0, hops = 0;
  std::vector<char> inner;
  void pup(pup::Er& p) { p | array_id | index | tag | origin | hops | inner; }
};
// Tells a message's origin where the element was found, and at which hop.
struct LocateMsg {
  int array_id = 0, index = 0, pe = 0;
  std::uint32_t epoch = 0;
  void pup(pup::Er& p) { p | array_id | index | pe | epoch; }
};
struct DepartMsg {
  int array_id = 0, index = 0;
  std::uint32_t epoch = 0;
  void pup(pup::Er& p) { p | array_id | index | epoch; }
};
struct ArriveMsg {
  int array_id = 0, index = 0;
  std::uint32_t epoch = 0;
  std::vector<char> state;
  void pup(pup::Er& p) { p | array_id | index | epoch | state; }
};
struct SettleMsg {
  int array_id = 0, index = 0, pe = 0;
  std::uint32_t epoch = 0;
  void pup(pup::Er& p) { p | array_id | index | pe | epoch; }
};
struct ContribMsg {
  int array_id = 0, reduction_id = 0;
  double value = 0;
  void pup(pup::Er& p) { p | array_id | reduction_id | value; }
};

converse::HandlerId h_route, h_locate, h_departed, h_arrive, h_settled,
    h_contribute;

/// Array message kinds, the late-drop record's `c`.
enum LateKind : std::uint8_t { kLocate, kRoute, kDepart, kArrive, kSettle,
                               kContrib };

/// The array `id` on this PE, or null once this PE destroyed it. Traffic
/// still in flight then is dropped: a LocateMsg silently (it is only a
/// hint), anything else counted with a flight-recorder note.
ArrayBase* array_for(int id, LateKind kind) {
  auto it = t_arrays.find(id);
  if (it != t_arrays.end()) return it->second;
  if (kind != kLocate) {
    probe::emit(probe::Ev::kElemLateDrop, 0, static_cast<std::uint32_t>(id),
                0, -1, kind);
  }
  return nullptr;
}

void register_array_handlers() {
  static std::once_flag once;
  std::call_once(once, [] {
    h_route = converse::register_handler([](converse::Message&& m) {
      auto msg = m.as<RouteMsg>();
      if (ArrayBase* a = array_for(msg.array_id, kRoute)) {
        ArrayHandlers::route(*a, msg.index, msg.tag, msg.origin, msg.hops,
                             std::move(msg.inner));
      }
    });
    h_locate = converse::register_handler([](converse::Message&& m) {
      auto msg = m.as<LocateMsg>();
      if (ArrayBase* a = array_for(msg.array_id, kLocate)) {
        ArrayHandlers::locate(*a, msg.index, msg.pe, msg.epoch);
      }
    });
    h_departed = converse::register_handler([](converse::Message&& m) {
      auto msg = m.as<DepartMsg>();
      if (ArrayBase* a = array_for(msg.array_id, kDepart)) {
        ArrayHandlers::departed(*a, msg.index, msg.epoch);
      }
    });
    h_arrive = converse::register_handler([](converse::Message&& m) {
      auto msg = m.as<ArriveMsg>();
      if (ArrayBase* a = array_for(msg.array_id, kArrive)) {
        ArrayHandlers::arrive(*a, msg.index, msg.epoch, msg.state);
      }
    });
    h_settled = converse::register_handler([](converse::Message&& m) {
      auto msg = m.as<SettleMsg>();
      if (ArrayBase* a = array_for(msg.array_id, kSettle)) {
        ArrayHandlers::settled(*a, msg.index, msg.pe, msg.epoch);
      }
    });
    h_contribute = converse::register_handler([](converse::Message&& m) {
      auto msg = m.as<ContribMsg>();
      if (ArrayBase* a = array_for(msg.array_id, kContrib)) {
        ArrayHandlers::contribute(*a, msg.reduction_id, msg.value);
      }
    });
  });
}

/// Flow id tying an element's departure to its arrival: both PEs derive
/// the same id from (array, index, hop epoch). The high bit-62 namespace
/// keeps element flows disjoint from message and thread-migration flows.
std::uint64_t elem_flow_id(int array_id, int index, std::uint32_t epoch) {
  std::uint64_t h = fnv1a_mix(kFnvOffset, static_cast<std::uint64_t>(array_id));
  h = fnv1a_mix(h, static_cast<std::uint64_t>(index));
  h = fnv1a_mix(h, epoch);
  return (std::uint64_t{1} << 62) | (h & ((std::uint64_t{1} << 62) - 1));
}

// Deferred self-migration: an element that calls migrate() on itself from
// inside on_message is moved after the method returns. The request belongs
// to the running method, so a delivery nested inside it (an inline
// self-send to another resident element) keeps its own.
thread_local int t_running_index = -1;
thread_local int t_running_array = -1;
thread_local int t_pending_dest = -1;  ///< -1: no self-migration requested

// Ev::kElemReroute's `c`: which routing counter the step moves.
constexpr std::uint8_t kRerouteForward = 1;
constexpr std::uint8_t kRerouteLocate = 2;

}  // namespace

ArrayBase* find_array(int id) {
  auto it = t_arrays.find(id);
  return it == t_arrays.end() ? nullptr : it->second;
}

ArrayBase::ArrayBase(int id, int count, ElementFactory factory)
    : id_(id),
      count_(count),
      factory_(std::move(factory)),
      hints_(static_cast<std::size_t>(count)) {
  register_array_handlers();
  MFC_CHECK_MSG(!t_arrays.contains(id_), "array id already in use on this PE");
  t_arrays[id_] = this;

  const int me = converse::my_pe();
  const int npes = converse::num_pes();
  for (int index = 0; index < count_; ++index) {
    if (index % npes != me) continue;
    // Initial placement: every element is born on its home PE.
    home_[index] = HomeEntry{me, 0, 0, {}};
    hints_[index] = Hint{me, 0};
    auto elem = factory_(index);
    elem->index_ = index;
    elem->array_id_ = id_;
    local_[index] = std::move(elem);
  }
}

ArrayBase::~ArrayBase() { t_arrays.erase(id_); }

int ArrayBase::home_pe(int index) const {
  MFC_CHECK(index >= 0 && index < count_);
  return index % converse::num_pes();
}

void ArrayBase::send(int index, int tag, std::vector<char> payload) {
  const int home = home_pe(index);
  const int hinted = hints_[index].pe;
  RouteMsg msg{id_, index, tag, converse::my_pe(), 0, std::move(payload)};
  converse::send_value(hinted >= 0 ? hinted : home, h_route, msg);
}

void ArrayBase::broadcast(int tag, const std::vector<char>& payload) {
  for (int index = 0; index < count_; ++index) send(index, tag, payload);
}

void ArrayBase::deliver_local(int index, int tag, std::vector<char> payload) {
  auto it = local_.find(index);
  MFC_CHECK(it != local_.end());
  Element* elem = it->second.get();

  const int prev_index = t_running_index;
  const int prev_array = t_running_array;
  const int prev_dest = t_pending_dest;
  t_running_index = index;
  t_running_array = id_;
  t_pending_dest = -1;
  const double start = wall_time();
  elem->on_message(tag, std::move(payload));
  elem->load_ += wall_time() - start;
  const int dest = t_pending_dest;
  t_running_index = prev_index;
  t_running_array = prev_array;
  t_pending_dest = prev_dest;

  if (dest >= 0) migrate(index, dest);
}

void ArrayBase::handle_route(int index, int tag, int origin, int hops,
                             std::vector<char> payload) {
  const int me = converse::my_pe();
  if (auto it = local_.find(index); it != local_.end()) {
    if (hops > 0 && origin != me) {
      // The origin's hint sent this astray: tell it where the element is.
      probe::emit(probe::Ev::kElemReroute, static_cast<std::uint64_t>(hops),
                  static_cast<std::uint32_t>(index), 0,
                  static_cast<std::int16_t>(origin), kRerouteLocate);
      LocateMsg locate{id_, index, me, it->second->hop_epoch_};
      converse::send_value(origin, h_locate, locate);
    }
    deliver_local(index, tag, std::move(payload));
    return;
  }
  RouteMsg msg{id_, index, tag, origin, hops + 1, std::move(payload)};
  const int home = home_pe(index);
  int next = home;  // -1: buffered at the home until the element settles
  if (home == me) {
    const HomeEntry& entry = home_.at(index);
    next = entry.depart_epoch > entry.settle_epoch ? -1 : entry.location;
  } else if (const Hint& hint = hints_[index];
             hops == 0 && hint.pe >= 0 && hint.pe != me) {
    // Stale delivery on the first hop: follow this PE's departure hint.
    // Later hops bounce through the home, so hint chasing stays bounded.
    next = hint.pe;
  }
  probe::emit(probe::Ev::kElemReroute, static_cast<std::uint64_t>(hops),
              static_cast<std::uint32_t>(index), 0,
              static_cast<std::int16_t>(next), kRerouteForward);
  if (next >= 0) {
    converse::send_value(next, h_route, msg);
    return;
  }
  converse::Message buffered;
  buffered.handler = h_route;
  buffered.payload.adopt(pup::to_bytes(msg));
  home_.at(index).buffered.push_back(std::move(buffered));
}

void ArrayBase::handle_locate(int index, int pe, std::uint32_t epoch) {
  // Locates for different hops race; the newest placement wins. A local
  // element's own hint is exact and never yields to a report.
  if (local_.contains(index)) return;
  Hint& hint = hints_[index];
  if (hint.pe < 0 || epoch > hint.epoch) hint = Hint{pe, epoch};
}

void ArrayBase::migrate(int index, int dest_pe) {
  MFC_CHECK(dest_pe >= 0 && dest_pe < converse::num_pes());
  if (t_running_index == index && t_running_array == id_) {
    // Self-migration from inside on_message: defer until the method returns.
    t_pending_dest = dest_pe;
    return;
  }
  auto it = local_.find(index);
  MFC_CHECK_MSG(it != local_.end(), "migrate() of a non-local element");
  if (dest_pe == converse::my_pe()) return;

  const std::uint32_t epoch = it->second->hop_epoch_ + 1;
  ArriveMsg arrive{id_, index, epoch, pup::to_bytes(*it->second)};
  local_.erase(it);
  hints_[index] = Hint{dest_pe, epoch};
  probe::emit(probe::Ev::kElemDepart, elem_flow_id(id_, index, epoch),
              static_cast<std::uint32_t>(index),
              static_cast<std::uint32_t>(arrive.state.size()),
              static_cast<std::int16_t>(dest_pe));
  DepartMsg depart{id_, index, epoch};
  converse::send_value(home_pe(index), h_departed, depart);
  converse::send_value(dest_pe, h_arrive, arrive);
}

void ArrayBase::handle_departed(int index, std::uint32_t epoch) {
  HomeEntry& entry = home_.at(index);
  // A depart notice can be delivered after the matching (or a later) settle
  // — they come from different PEs. Only a notice newer than everything the
  // home has already seen opens (or extends) the in-transit window.
  if (epoch > entry.depart_epoch) entry.depart_epoch = epoch;
}

void ArrayBase::handle_arrive(int index, std::uint32_t epoch,
                              const std::vector<char>& state) {
  probe::emit(probe::Ev::kElemArrive, elem_flow_id(id_, index, epoch),
              static_cast<std::uint32_t>(index),
              static_cast<std::uint32_t>(state.size()));
  auto elem = factory_(index);
  pup::MemUnpacker u(state.data(), state.size());
  elem->pup(u);
  elem->index_ = index;
  elem->array_id_ = id_;
  elem->hop_epoch_ = epoch;
  local_[index] = std::move(elem);
  hints_[index] = Hint{converse::my_pe(), epoch};
  SettleMsg settle{id_, index, converse::my_pe(), epoch};
  converse::send_value(home_pe(index), h_settled, settle);
}

void ArrayBase::handle_settled(int index, int pe, std::uint32_t epoch) {
  HomeEntry& entry = home_.at(index);
  // Settles for different hops can also arrive out of order when the element
  // migrates again quickly; the location must come from the newest hop.
  if (epoch > entry.settle_epoch) {
    entry.settle_epoch = epoch;
    entry.location = pe;
  }
  if (entry.settle_epoch >= entry.depart_epoch) {
    // Detach the buffer first: a send to this PE may be dispatched inline
    // and move the element again, and that re-buffers what follows.
    std::vector<converse::Message> flush = std::move(entry.buffered);
    entry.buffered.clear();
    for (auto& m : flush)
      converse::send(entry.location, h_route, m.payload.take());
  }
}

void ArrayBase::contribute(int reduction_id, double value) {
  ContribMsg msg{id_, reduction_id, value};
  converse::send_value(0, h_contribute, msg);
}

void ArrayBase::handle_contribute(int reduction_id, double value) {
  MFC_CHECK_MSG(converse::my_pe() == 0, "reduction root is PE 0");
  Reduction& red = reductions_[reduction_id];
  red.accum += value;
  if (++red.contributions == count_) {
    const double result = red.accum;
    reductions_.erase(reduction_id);
    MFC_CHECK_MSG(reduction_cb_ != nullptr, "reduction completed without "
                                            "an on_reduction callback");
    reduction_cb_(result);
  }
}

namespace {

// Checkpoint wire structs for one PE's array slice (ft layer).
struct ElemCkpt {
  std::int32_t index = 0;
  std::uint32_t hop_epoch = 0;
  double load = 0.0;
  std::vector<char> state;
  void pup(pup::Er& p) { p | index | hop_epoch | load | state; }
};
struct HomeCkpt {
  std::int32_t index = 0;
  std::int32_t location = -1;
  std::uint32_t depart_epoch = 0;
  std::uint32_t settle_epoch = 0;
  void pup(pup::Er& p) { p | index | location | depart_epoch | settle_epoch; }
};
struct SliceCkpt {
  std::vector<ElemCkpt> elems;
  std::vector<HomeCkpt> homes;
  void pup(pup::Er& p) { p | elems | homes; }
};

std::vector<int> sorted_keys_of(const auto& map) {
  std::vector<int> keys;
  keys.reserve(map.size());
  for (const auto& [k, _] : map) keys.push_back(k);
  std::sort(keys.begin(), keys.end());
  return keys;
}

}  // namespace

std::vector<char> ArrayBase::checkpoint_local() const {
  SliceCkpt s;
  for (int index : sorted_keys_of(local_)) {
    const Element& elem = *local_.at(index);
    ElemCkpt e;
    e.index = index;
    e.hop_epoch = elem.hop_epoch_;
    e.load = elem.load_;
    e.state = pup::to_bytes(elem);
    s.elems.push_back(std::move(e));
  }
  for (int index : sorted_keys_of(home_)) {
    const HomeEntry& entry = home_.at(index);
    MFC_CHECK_MSG(entry.buffered.empty(),
                  "array checkpoint requires quiescence (home entry still "
                  "buffering in-transit traffic)");
    s.homes.push_back(HomeCkpt{index, entry.location, entry.depart_epoch,
                               entry.settle_epoch});
  }
  return pup::to_bytes(s);
}

void ArrayBase::wipe_local() {
  local_.clear();
  home_.clear();
  std::fill(hints_.begin(), hints_.end(), Hint{});
}

void ArrayBase::restore_local(const std::vector<char>& bytes) {
  wipe_local();
  SliceCkpt s;
  pup::from_bytes(bytes, s);
  for (ElemCkpt& e : s.elems) {
    MFC_CHECK(e.index >= 0 && e.index < count_);
    auto elem = factory_(e.index);
    pup::MemUnpacker u(e.state.data(), e.state.size());
    elem->pup(u);
    elem->index_ = e.index;
    elem->array_id_ = id_;
    elem->hop_epoch_ = e.hop_epoch;
    elem->load_ = e.load;
    local_[e.index] = std::move(elem);
    hints_[e.index] = Hint{converse::my_pe(), e.hop_epoch};
  }
  for (const HomeCkpt& h : s.homes) {
    home_[h.index] = HomeEntry{h.location, h.depart_epoch, h.settle_epoch, {}};
  }
}

std::vector<int> ArrayBase::local_indices() const {
  std::vector<int> indices;
  indices.reserve(local_.size());
  for (const auto& [index, _] : local_) indices.push_back(index);
  return indices;
}

Element* ArrayBase::local_element(int index) {
  auto it = local_.find(index);
  return it == local_.end() ? nullptr : it->second.get();
}

}  // namespace mfc::charm
