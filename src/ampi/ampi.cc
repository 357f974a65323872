#include "ampi/ampi.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "iso/heap.h"
#include "migrate/iso_thread.h"
#include "util/check.h"
#include "util/timer.h"

namespace mfc::ampi {

namespace {

using converse::Message;

// ---- Wire formats ----------------------------------------------------------

/// A point-to-point message is this header plus the user bytes, packed
/// straight into the pooled envelope and read in place on arrival.
struct P2PHeader {
  std::int32_t src, dest, tag;
};

P2PHeader header_of(const Message& m) {
  P2PHeader h;
  std::memcpy(&h, m.payload.data(), sizeof h);
  return h;
}

struct MoveMsg {
  std::int32_t rank = -1;
  void pup(pup::Er& p) { p | rank; }
};

/// Everything a rank is: its thread image (stack + heap slots) plus the
/// runtime bookkeeping that must follow it (unexpected envelope payloads and
/// the rank→PE directory for the destination).
struct RankImage {
  std::int32_t rank = -1;
  std::uint64_t coll_seq = 0;  ///< collective tag counter must keep counting
  std::vector<int> mapping;
  std::vector<converse::Payload> unexpected;
  migrate::ThreadImage thread;
  void pup(pup::Er& p) { p | rank | coll_seq | mapping | unexpected | thread; }
};

// ---- Runtime state ----------------------------------------------------------

struct PostedRecv {
  void* buf;
  std::size_t max_bytes;
  int src, tag;
  Request req;
};

/// Runtime-owned: grows only in handler context or under SystemHeapScope.
struct RankState {
  int rank = -1;
  migrate::IsoThread* thread = nullptr;
  std::vector<Message*> unexpected;  ///< retained envelopes
  std::vector<PostedRecv> posted;
  ult::Thread* blocked = nullptr;  ///< thread parked in block_until
  std::uint64_t coll_seq = 0;      ///< collective-call sequence number
  int pending_dest = -1;           ///< set while a directed move is queued
  ~RankState() {
    for (Message* m : unexpected) converse::detail::release_message(m);
  }
};

struct PeState {
  std::unordered_map<int, std::unique_ptr<RankState>> ranks;
  std::unordered_map<const ult::Thread*, RankState*> by_thread;
  std::vector<int> rank_to_pe;  ///< this PE's view of the rank directory
  /// Envelopes for ranks this directory says live here but have not yet
  /// arrived (migration transit window).
  std::unordered_map<int, std::vector<Message*>> held;
  ult::Thread* main_thread = nullptr;
  bool all_done = false;
};

struct GlobalState {
  Options options;
  std::function<void()> program;
  std::atomic<int> ranks_done{0};
};

GlobalState* g_ampi = nullptr;
thread_local PeState* t_state = nullptr;

converse::HandlerId h_p2p, h_move, h_rank_arrive, h_all_done;

/// Eager buffered sends complete at once; every isend shares this request.
ReqState g_send_done{true, {}};

// ---- Matching ----------------------------------------------------------------

/// kAnyTag matches user tags only, never a collective's internal one.
bool matches(int src, int tag, const P2PHeader& h) {
  return (src == kAnySource || src == h.src) &&
         (tag == kAnyTag ? h.tag >= 0 : tag == h.tag);
}

/// The receive side's one copy: envelope payload into the posted buffer.
void copy_out(const Message& m, void* buf, std::size_t max_bytes,
              ReqState& req) {
  const P2PHeader h = header_of(m);
  const std::size_t n = m.payload.size() - sizeof h;
  MFC_CHECK_MSG(n <= max_bytes, "ampi: message longer than receive buffer");
  if (n != 0) std::memcpy(buf, m.payload.data() + sizeof h, n);
  req.status = Status{h.src, h.tag, n};
  req.done = true;
}

/// Completes the first posted receive that matches `m` and wakes the rank;
/// false when none does (the caller keeps the envelope as unexpected).
bool match_posted(RankState& rs, const Message& m) {
  const P2PHeader h = header_of(m);
  for (auto it = rs.posted.begin(); it != rs.posted.end(); ++it) {
    if (matches(it->src, it->tag, h)) {
      copy_out(m, it->buf, it->max_bytes, *it->req);
      rs.posted.erase(it);
      if (ult::Thread* t = std::exchange(rs.blocked, nullptr)) {
        converse::ready_thread(t);
      }
      return true;
    }
  }
  return false;
}

RankState& cur() {
  MFC_CHECK_MSG(t_state != nullptr, "AMPI call outside the runtime");
  const ult::Thread* running = converse::pe_scheduler().running();
  auto it = t_state->by_thread.find(running);
  MFC_CHECK_MSG(it != t_state->by_thread.end(),
                "AMPI call from a non-rank thread");
  return *it->second;
}

/// Parks the calling rank until pred() holds; handlers wake it on every
/// completion, and it re-checks.
template <typename Pred>
void block_until(RankState& rs, Pred pred) {
  while (!pred()) {
    MFC_CHECK_MSG(rs.blocked == nullptr, "rank blocked twice");
    rs.blocked = converse::pe_scheduler().running();
    converse::pe_scheduler().suspend();
  }
}

bool all_done(const std::vector<Request>& reqs) {
  return std::all_of(reqs.begin(), reqs.end(),
                     [](const Request& r) { return r->done; });
}

// ---- Handlers ----------------------------------------------------------------

void handle_p2p(Message&& m) {
  PeState& ps = *t_state;
  const P2PHeader h = header_of(m);
  auto it = ps.ranks.find(h.dest);
  if (it != ps.ranks.end() && match_posted(*it->second, m)) return;
  Message* kept = converse::detail::retain_message(m);
  const int believed = ps.rank_to_pe[static_cast<std::size_t>(h.dest)];
  if (it != ps.ranks.end()) {
    it->second->unexpected.push_back(kept);
  } else if (believed == converse::my_pe()) {
    // The rank is on its way here; hold the message for its arrival.
    ps.held[h.dest].push_back(kept);
  } else {
    converse::detail::send_message(believed, h_p2p, kept);
  }
}

void handle_move(Message&& m) {
  // Runs on the source PE after the rank suspended itself inside
  // migrate()/migrate_to(): pack thread + runtime state, ship, dismantle.
  PeState& ps = *t_state;
  const auto req = m.as<MoveMsg>();
  auto it = ps.ranks.find(req.rank);
  MFC_CHECK(it != ps.ranks.end());
  RankState& rs = *it->second;
  MFC_CHECK_MSG(rs.posted.empty(),
                "ampi: outstanding irecv across migrate() is unsupported");
  const int dest = rs.pending_dest;
  MFC_CHECK(dest >= 0);

  RankImage image;
  image.rank = rs.rank;
  image.coll_seq = rs.coll_seq;
  image.mapping = ps.rank_to_pe;
  for (const Message* u : rs.unexpected) image.unexpected.push_back(u->payload);
  image.thread = rs.thread->pack();

  ps.by_thread.erase(rs.thread);
  delete rs.thread;
  ps.ranks.erase(it);

  converse::send_value(dest, h_rank_arrive, image);
}

void handle_rank_arrive(Message&& m) {
  PeState& ps = *t_state;
  auto image = m.as<RankImage>();

  auto* thread = static_cast<migrate::IsoThread*>(
      migrate::MigratableThread::unpack(std::move(image.thread),
                                        converse::my_pe()));
  auto rs = std::make_unique<RankState>();
  rs->rank = image.rank;
  rs->coll_seq = image.coll_seq;
  rs->thread = thread;
  for (converse::Payload& bytes : image.unexpected) {
    Message* u = converse::detail::acquire_message(0);
    u->payload = std::move(bytes);
    rs->unexpected.push_back(u);
  }
  // Adopt the (newer) directory that traveled with the rank — this is how a
  // previously rank-less PE learns the mapping.
  ps.rank_to_pe = image.mapping;

  RankState* raw = rs.get();
  ps.by_thread[thread] = raw;
  ps.ranks[image.rank] = std::move(rs);

  // Anything that arrived ahead of the rank queues behind what it carried
  // (a rank never migrates with posted receives, so nothing matches yet).
  if (auto held = ps.held.extract(image.rank)) {
    raw->unexpected.insert(raw->unexpected.end(), held.mapped().begin(),
                           held.mapped().end());
  }
  converse::ready_thread(thread);
}

void handle_all_done(Message&&) {
  PeState& ps = *t_state;
  ps.all_done = true;
  if (ps.main_thread != nullptr &&
      ps.main_thread->state() == ult::State::kSuspended) {
    converse::ready_thread(ps.main_thread);
  }
}

void register_ampi_handlers() {
  static std::once_flag once;
  std::call_once(once, [] {
    h_p2p = converse::register_handler(handle_p2p);
    h_move = converse::register_handler(handle_move);
    h_rank_arrive = converse::register_handler(handle_rank_arrive);
    h_all_done = converse::register_handler(handle_all_done);
  });
}

// ---- Internal collective plumbing ---------------------------------------------

/// Internal tags live in the negative space below kAnyTag so they can never
/// collide with user tags (>= 0). Collectives are called in the same order
/// by every rank (an MPI requirement), so the per-rank sequence numbers
/// agree and successive collectives cannot cross-match.
int internal_tag(std::uint64_t seq, int opcode) {
  return -static_cast<int>(1000 + (seq % 100000000ULL) * 8 +
                           static_cast<std::uint64_t>(opcode));
}

void combine(Op op, Dtype dt, void* acc, const void* in, std::size_t count) {
  auto fold = [&](auto* a, const auto* b) {
    for (std::size_t i = 0; i < count; ++i) {
      switch (op) {
        case Op::kSum: a[i] = a[i] + b[i]; break;
        case Op::kMax: a[i] = a[i] > b[i] ? a[i] : b[i]; break;
        case Op::kMin: a[i] = a[i] < b[i] ? a[i] : b[i]; break;
      }
    }
  };
  switch (dt) {
    case Dtype::kByte:
      fold(static_cast<char*>(acc), static_cast<const char*>(in));
      break;
    case Dtype::kInt:
      fold(static_cast<int*>(acc), static_cast<const int*>(in));
      break;
    case Dtype::kLong:
      fold(static_cast<long*>(acc), static_cast<const long*>(in));
      break;
    case Dtype::kUint64:
      fold(static_cast<std::uint64_t*>(acc),
           static_cast<const std::uint64_t*>(in));
      break;
    case Dtype::kDouble:
      fold(static_cast<double*>(acc), static_cast<const double*>(in));
      break;
  }
}

/// Shared move phase: directory update, pre/post barriers, and the
/// pack-and-ship detour for ranks that change PEs.
int do_migration(const std::vector<int>& new_mapping) {
  RankState& rs = cur();
  PeState& ps = *t_state;
  // All ranks are inside the collective; no user messages will be sent
  // until it completes, so the directory can be swapped safely.
  const std::vector<int> old_mapping = ps.rank_to_pe;
  int moved = 0;
  for (std::size_t r = 0; r < new_mapping.size(); ++r) {
    if (new_mapping[r] != old_mapping[r]) ++moved;
  }
  ps.rank_to_pe = new_mapping;  // same size: no reallocation on the rank heap

  const int dest = new_mapping[static_cast<std::size_t>(rs.rank)];
  if (dest != converse::my_pe()) {
    rs.pending_dest = dest;
    converse::send_value(converse::my_pe(), h_move, MoveMsg{rs.rank});
    converse::pe_scheduler().suspend();
    // ---- resumed on the destination PE ----
    cur().pending_dest = -1;
  }
  barrier();
  return moved;
}

}  // namespace

std::size_t dtype_size(Dtype dt) {
  switch (dt) {
    case Dtype::kByte: return 1;
    case Dtype::kInt: return sizeof(int);
    case Dtype::kLong: return sizeof(long);
    case Dtype::kUint64: return sizeof(std::uint64_t);
    case Dtype::kDouble: return sizeof(double);
  }
  return 1;
}

void run(const Options& options, std::function<void()> program) {
  MFC_CHECK_MSG(g_ampi == nullptr, "ampi::run is not reentrant");
  MFC_CHECK(options.nranks >= 1);
  register_ampi_handlers();

  GlobalState global;
  global.options = options;
  if (!global.options.lb_strategy) global.options.lb_strategy = lb::greedy_lb;
  global.program = std::move(program);
  g_ampi = &global;

  converse::Machine::Config cfg;
  cfg.npes = options.npes;
  cfg.iso_slots_per_pe = options.iso_slots_per_pe;
  cfg.iso_slot_bytes = options.iso_slot_bytes;

  converse::Machine::run(cfg, [](int pe) {
    PeState state;
    t_state = &state;
    const int nranks = g_ampi->options.nranks;
    const int npes = converse::num_pes();
    state.rank_to_pe.resize(static_cast<std::size_t>(nranks));
    for (int r = 0; r < nranks; ++r) state.rank_to_pe[static_cast<std::size_t>(r)] = r % npes;

    for (int r = 0; r < nranks; ++r) {
      if (r % npes != pe) continue;
      auto rs = std::make_unique<RankState>();
      rs->rank = r;
      rs->thread = new migrate::IsoThread(
          [] {
            g_ampi->program();
            if (g_ampi->ranks_done.fetch_add(1) + 1 ==
                g_ampi->options.nranks) {
              converse::broadcast(h_all_done, {});
            }
          },
          pe, g_ampi->options.stack_bytes);
      state.by_thread[rs->thread] = rs.get();
      state.ranks[r] = std::move(rs);
    }

    // Rendezvous before any rank runs: a rank's first send must find every
    // PE's state and rank registry in place.
    converse::barrier();
    for (auto& [_, rs] : state.ranks) converse::ready_thread(rs->thread);

    state.main_thread = converse::pe_scheduler().running();
    while (!state.all_done) converse::pe_scheduler().suspend();

    // Tear down whatever ranks ended their lives on this PE.
    MFC_CHECK_MSG(state.held.empty(), "ampi: held for a rank that never came");
    for (auto& [_, rs] : state.ranks) delete rs->thread;
    t_state = nullptr;
  });

  g_ampi = nullptr;
}

int rank() { return cur().rank; }

int size() { return g_ampi->options.nranks; }

int my_pe() {
  cur();  // validate context
  return converse::my_pe();
}

double wtime() { return wall_time(); }

namespace {

/// The send side's one copy: header and user bytes straight into a pooled
/// envelope. Also carries the internal (negative) collective tags.
void send_internal(RankState& rs, const void* buf, std::size_t bytes,
                   int dest, int tag) {
  Message* m = converse::detail::acquire_message(sizeof(P2PHeader) + bytes);
  const P2PHeader h{rs.rank, dest, tag};
  std::memcpy(m->payload.data(), &h, sizeof h);
  if (bytes != 0) std::memcpy(m->payload.data() + sizeof h, buf, bytes);
  const int pe = t_state->rank_to_pe[static_cast<std::size_t>(dest)];
  converse::detail::send_message(pe, h_p2p, m);
}

/// Matches the unexpected queue first (MPI arrival order), else posts. A
/// blocking receive passes `local`, a request on the rank's own stack.
Request irecv_impl(RankState& rs, void* buf, std::size_t max_bytes, int source,
                   int tag, ReqState* local = nullptr) {
  iso::SystemHeapScope system_heap;
  Request req = local != nullptr ? Request(Request(), local)
                                 : std::make_shared<ReqState>();
  for (auto it = rs.unexpected.begin(); it != rs.unexpected.end(); ++it) {
    if (matches(source, tag, header_of(**it))) {
      copy_out(**it, buf, max_bytes, *req);
      converse::detail::release_message(*it);
      rs.unexpected.erase(it);
      return req;
    }
  }
  rs.posted.push_back(PostedRecv{buf, max_bytes, source, tag, req});
  return req;
}

void recv_internal(RankState& rs, void* buf, std::size_t max_bytes, int source,
                   int tag, Status* status) {
  ReqState req;
  irecv_impl(rs, buf, max_bytes, source, tag, &req);
  block_until(rs, [&] { return req.done; });
  if (status != nullptr) *status = req.status;
}

}  // namespace

void send(const void* buf, std::size_t count, Dtype dt, int dest, int tag) {
  RankState& rs = cur();
  MFC_CHECK(dest >= 0 && dest < size());
  MFC_CHECK_MSG(tag >= 0, "user tags must be non-negative");
  send_internal(rs, buf, count * dtype_size(dt), dest, tag);
}

void recv(void* buf, std::size_t count, Dtype dt, int source, int tag,
          Status* status) {
  recv_internal(cur(), buf, count * dtype_size(dt), source, tag, status);
}

Request isend(const void* buf, std::size_t count, Dtype dt, int dest,
              int tag) {
  send(buf, count, dt, dest, tag);
  return Request(Request(), &g_send_done);
}

Request irecv(void* buf, std::size_t count, Dtype dt, int source, int tag) {
  return irecv_impl(cur(), buf, count * dtype_size(dt), source, tag);
}

void wait(const Request& request, Status* status) {
  RankState& rs = cur();
  block_until(rs, [&] { return request->done; });
  if (status != nullptr) *status = request->status;
}

void wait_all(std::vector<Request>& requests) {
  block_until(cur(), [&] { return all_done(requests); });
}

bool test(const Request& request, Status* status) {
  cur();
  if (request->done && status != nullptr) *status = request->status;
  return request->done;
}

void sendrecv(const void* sendbuf, std::size_t sendcount, Dtype dt, int dest,
              int sendtag, void* recvbuf, std::size_t recvcount, int source,
              int recvtag, Status* status) {
  RankState& rs = cur();
  ReqState rreq;
  irecv_impl(rs, recvbuf, recvcount * dtype_size(dt), source, recvtag, &rreq);
  send(sendbuf, sendcount, dt, dest, sendtag);
  block_until(rs, [&] { return rreq.done; });
  if (status != nullptr) *status = rreq.status;
}

void barrier() {
  RankState& rs = cur();
  const int tag = internal_tag(rs.coll_seq++, 0);
  const int n = size();
  char token = 0;
  if (rs.rank == 0) {
    for (int i = 1; i < n; ++i) {
      recv_internal(rs, &token, 1, kAnySource, tag, nullptr);
    }
    for (int i = 1; i < n; ++i) send_internal(rs, &token, 1, i, tag);
  } else {
    send_internal(rs, &token, 1, 0, tag);
    recv_internal(rs, &token, 1, 0, tag, nullptr);
  }
}

void bcast(void* buf, std::size_t count, Dtype dt, int root) {
  RankState& rs = cur();
  const int tag = internal_tag(rs.coll_seq++, 1);
  const std::size_t bytes = count * dtype_size(dt);
  if (rs.rank == root) {
    for (int r = 0; r < size(); ++r) {
      if (r != root) send_internal(rs, buf, bytes, r, tag);
    }
  } else {
    recv_internal(rs, buf, bytes, root, tag, nullptr);
  }
}

void reduce(const void* sendbuf, void* recvbuf, std::size_t count, Dtype dt,
            Op op, int root) {
  RankState& rs = cur();
  const int tag = internal_tag(rs.coll_seq++, 2);
  const std::size_t bytes = count * dtype_size(dt);
  if (rs.rank == root) {
    std::memcpy(recvbuf, sendbuf, bytes);
    std::vector<char> scratch(bytes);
    for (int r = 0; r < size(); ++r) {
      if (r == root) continue;
      recv_internal(rs, scratch.data(), bytes, r, tag, nullptr);
      combine(op, dt, recvbuf, scratch.data(), count);
    }
  } else {
    send_internal(rs, sendbuf, bytes, root, tag);
  }
}

void allreduce(const void* sendbuf, void* recvbuf, std::size_t count,
               Dtype dt, Op op) {
  reduce(sendbuf, recvbuf, count, dt, op, 0);
  bcast(recvbuf, count, dt, 0);
}

void gather(const void* sendbuf, std::size_t count, Dtype dt, void* recvbuf,
            int root) {
  RankState& rs = cur();
  const int tag = internal_tag(rs.coll_seq++, 3);
  const std::size_t bytes = count * dtype_size(dt);
  if (rs.rank == root) {
    auto* out = static_cast<char*>(recvbuf);
    std::memcpy(out + static_cast<std::size_t>(root) * bytes, sendbuf, bytes);
    for (int r = 0; r < size(); ++r) {
      if (r == root) continue;
      recv_internal(rs, out + static_cast<std::size_t>(r) * bytes, bytes, r,
                    tag, nullptr);
    }
  } else {
    send_internal(rs, sendbuf, bytes, root, tag);
  }
}

void allgather(const void* sendbuf, std::size_t count, Dtype dt,
               void* recvbuf) {
  gather(sendbuf, count, dt, recvbuf, 0);
  bcast(recvbuf, count * static_cast<std::size_t>(size()), dt, 0);
}

void scatter(const void* sendbuf, std::size_t count, Dtype dt, void* recvbuf,
             int root) {
  RankState& rs = cur();
  const int tag = internal_tag(rs.coll_seq++, 4);
  const std::size_t bytes = count * dtype_size(dt);
  if (rs.rank == root) {
    const auto* in = static_cast<const char*>(sendbuf);
    std::memcpy(recvbuf, in + static_cast<std::size_t>(root) * bytes, bytes);
    for (int r = 0; r < size(); ++r) {
      if (r == root) continue;
      send_internal(rs, in + static_cast<std::size_t>(r) * bytes, bytes, r,
                    tag);
    }
  } else {
    recv_internal(rs, recvbuf, bytes, root, tag, nullptr);
  }
}

void alltoall(const void* sendbuf, std::size_t count, Dtype dt,
              void* recvbuf) {
  RankState& rs = cur();
  const int tag = internal_tag(rs.coll_seq++, 5);
  const std::size_t bytes = count * dtype_size(dt);
  const auto* in = static_cast<const char*>(sendbuf);
  auto* out = static_cast<char*>(recvbuf);
  const int n = size();
  // Post all receives, send all blocks, then drain — deadlock-free and
  // exercises the matching engine with n-1 concurrent requests per rank.
  std::vector<Request> reqs;
  reqs.reserve(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    if (r == rs.rank) continue;
    reqs.push_back(irecv_impl(rs, out + static_cast<std::size_t>(r) * bytes,
                              bytes, r, tag));
  }
  std::memcpy(out + static_cast<std::size_t>(rs.rank) * bytes,
              in + static_cast<std::size_t>(rs.rank) * bytes, bytes);
  for (int r = 0; r < n; ++r) {
    if (r == rs.rank) continue;
    send_internal(rs, in + static_cast<std::size_t>(r) * bytes, bytes, r, tag);
  }
  block_until(rs, [&] { return all_done(reqs); });
}

void yield() {
  cur();  // validate rank context
  converse::pe_scheduler().yield();
}

double my_load() { return cur().thread->accumulated_load(); }

std::vector<int> rank_placement() {
  cur();
  return t_state->rank_to_pe;
}

int migrate() {
  RankState& rs = cur();
  const int n = size();
  const int npes = converse::num_pes();

  // Gather per-rank loads (wall-while-scheduled, the paper's measurement)
  // accumulated since the last balancing step.
  double my_load = rs.thread->accumulated_load();
  std::vector<double> loads(static_cast<std::size_t>(n), 0.0);
  gather(&my_load, 1, Dtype::kDouble, loads.data(), 0);

  std::vector<int> mapping(static_cast<std::size_t>(n), 0);
  if (rs.rank == 0) {
    mapping = g_ampi->options.lb_strategy(loads, t_state->rank_to_pe, npes);
  }
  bcast(mapping.data(), static_cast<std::size_t>(n), Dtype::kInt, 0);

  barrier();  // everyone has the mapping; no user traffic beyond this point
  cur().thread->reset_load();
  return do_migration(mapping);
}

void migrate_to(int dest_pe) {
  cur();
  MFC_CHECK(dest_pe >= 0 && dest_pe < converse::num_pes());
  // Collect everyone's destination so all PEs learn the same new mapping.
  std::vector<int> mapping(static_cast<std::size_t>(size()), 0);
  allgather(&dest_pe, 1, Dtype::kInt, mapping.data());
  barrier();
  do_migration(mapping);
}

void evacuate(int failing_pe) {
  cur();
  const int npes = converse::num_pes();
  MFC_CHECK(failing_pe >= 0 && failing_pe < npes);
  MFC_CHECK_MSG(npes > 1, "cannot evacuate the only PE");
  // Deterministic replacement: displaced rank k (k-th resident of the
  // failing PE, by rank order) moves to the k-th PE of the survivors,
  // round-robin. Every rank computes the same mapping locally.
  std::vector<int> mapping = t_state->rank_to_pe;
  int displaced = 0;
  for (std::size_t r = 0; r < mapping.size(); ++r) {
    if (mapping[r] != failing_pe) continue;
    int slot = displaced++ % (npes - 1);
    if (slot >= failing_pe) ++slot;  // skip the failing PE
    mapping[r] = slot;
  }
  barrier();  // everyone computed the mapping from the same directory
  do_migration(mapping);
}

}  // namespace mfc::ampi
