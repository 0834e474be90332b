#include "core/scenario/scale_scenario.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "core/detect/graph/entity_graph.hpp"
#include "core/detect/graph/graph_detector.hpp"
#include "core/fault/fault.hpp"
#include "core/invariant/invariant.hpp"
#include "core/recover/atomic_file.hpp"
#include "core/recover/manifest.hpp"
#include "sim/rng.hpp"
#include "sim/sharded_simulation.hpp"
#include "sim/simulation.hpp"
#include "util/archive.hpp"
#include "util/format.hpp"
#include "util/hash.hpp"
#include "util/table.hpp"

namespace fraudsim::scenario {

namespace {

// Cross-shard message types.
constexpr std::uint32_t kMsgHoldRequest = 1;  // a=user, b=flight, c=intent_pay
constexpr std::uint32_t kMsgHoldGranted = 2;  // a=user, b=hold idx, c=intent_pay, d=gen; src=owner
constexpr std::uint32_t kMsgHoldDenied = 3;   // a=user
constexpr std::uint32_t kMsgPayRequest = 4;   // a=hold idx, b=hold generation

constexpr std::uint64_t kCheckpointMagic = 0x3176'4353'5346ULL;  // "FSSCv1"

// Closure payload packing: every event closure captures exactly (World*,
// u64) — 16 trivially-copyable bytes, inside std::function's small-buffer
// optimisation, so the hot path never allocates per event.
//   pay decision: [user shard:12][flight shard:12][hold idx:20][generation:20]
//   expiry:       [shard:12][hold idx:20] (no generation — pay cancels the
//                 expiry event, so a firing expiry always matches its hold)
constexpr std::uint64_t pack_pay(std::uint32_t us, std::uint32_t fs, std::uint64_t hidx,
                                 std::uint32_t gen) {
  return (static_cast<std::uint64_t>(us) << 52) | (static_cast<std::uint64_t>(fs) << 40) |
         ((hidx & 0xFFFFF) << 20) | (gen & 0xFFFFF);
}
constexpr std::uint64_t pack_expiry(std::uint32_t shard, std::uint64_t hidx) {
  return (static_cast<std::uint64_t>(shard) << 20) | (hidx & 0xFFFFF);
}

struct UserState {
  std::uint64_t draws = 0;  // stateless-randomness cursor
  sim::EventId pending_event = 0;
  sim::SimTime pending_at = 0;
  std::uint32_t holds = 0;
  std::uint32_t denials = 0;
  std::uint32_t pays = 0;
};

// Aligned so flights owned by different shards never share a cache line
// (64 B per flight: 16 KB at the default 256 flights). UserState is left
// unpadded: padding it bought ~2% throughput for ~13% more peak memory.
struct alignas(64) FlightState {
  std::uint32_t held = 0;
  std::uint32_t paid = 0;
  std::uint32_t capacity = 0;
  std::uint32_t fare = 0;  // drawn from the owner shard's forked Rng at init
};

struct HoldRec {
  std::uint64_t user = 0;
  std::uint64_t flight = 0;
  sim::EventId expiry_event = 0;
  sim::SimTime expiry_at = 0;
  std::uint32_t gen = 0;  // bumped on every reuse of this slot
  bool live = false;
};

struct ShardCounters {
  std::uint64_t activities = 0;
  std::uint64_t holds = 0;
  std::uint64_t denials = 0;
  std::uint64_t pays = 0;
  std::uint64_t pay_late = 0;
  std::uint64_t expiries = 0;
  std::uint64_t graph_events = 0;
};

struct GraphOp {
  std::uint64_t user = 0;
  std::uint64_t flight = 0;
  sim::SimTime at = 0;
  std::uint8_t kind = 0;  // 0 = hold, 1 = pay
};

struct ShardState {
  explicit ShardState(const detect::graph::GraphConfig& gcfg) : graph(gcfg) {}

  std::vector<HoldRec> holds;
  std::vector<std::uint32_t> free_holds;  // LIFO — order is checkpointed
  // Pay decisions scheduled but not yet fired, keyed by packed payload
  // (unique per live grant). A decision scheduled in the last pay_delay of an
  // epoch is still pending when a checkpoint runs, so these descriptors must
  // survive a resume like activity timers and hold expiries do. std::map for
  // deterministic serialisation order.
  std::map<std::uint64_t, std::pair<sim::EventId, sim::SimTime>> pending_pays;
  ShardCounters counters;
  // Collected on the shard's thread during an epoch, applied to `graph` on
  // the main thread at the barrier (the graph consults the thread_local
  // fault registry, so ingest must never run on a worker).
  std::vector<GraphOp> graph_ops;
  // Users (owned by other shards) whose pay this shard applied from a
  // message; their per-user pay counts are bumped on the main thread at the
  // barrier, before any checkpoint, so the list is empty in every checkpoint.
  std::vector<std::uint64_t> remote_pays;
  detect::graph::EntityGraph graph;
};

// The scheduling/messaging seam the workload runs against. One
// implementation wraps the serial engine, one the sharded engine; everything
// above this interface is shared, which is what makes "serial vs K=1
// byte-identical" a property of the engines rather than of two workloads.
class Transport {
 public:
  virtual ~Transport() = default;
  virtual sim::EventId schedule(std::uint32_t shard, sim::SimTime at, sim::EventFn fn) = 0;
  virtual bool cancel(std::uint32_t shard, sim::EventId id) = 0;
  [[nodiscard]] virtual sim::SimTime now(std::uint32_t shard) const = 0;
  virtual void send(std::uint32_t src, std::uint32_t dst, std::uint32_t type, std::uint64_t a,
                    std::uint64_t b, std::uint64_t c, std::uint64_t d) = 0;
  [[nodiscard]] virtual std::uint32_t user_shard(std::uint64_t user) const = 0;
  [[nodiscard]] virtual std::uint32_t flight_shard(std::uint64_t flight) const = 0;
};

class SerialTransport final : public Transport {
 public:
  sim::EventId schedule(std::uint32_t, sim::SimTime at, sim::EventFn fn) override {
    return sim_.schedule_at(at, std::move(fn));
  }
  bool cancel(std::uint32_t, sim::EventId id) override { return sim_.cancel(id); }
  [[nodiscard]] sim::SimTime now(std::uint32_t) const override { return sim_.now(); }
  void send(std::uint32_t, std::uint32_t, std::uint32_t, std::uint64_t, std::uint64_t,
            std::uint64_t, std::uint64_t) override {
    assert(false && "serial run owns every flight locally — nothing to send");
  }
  [[nodiscard]] std::uint32_t user_shard(std::uint64_t) const override { return 0; }
  [[nodiscard]] std::uint32_t flight_shard(std::uint64_t) const override { return 0; }

  sim::Simulation sim_;
};

class ShardedTransport final : public Transport {
 public:
  explicit ShardedTransport(const sim::ShardedSimulation::Config& cfg) : engine_(cfg) {}

  sim::EventId schedule(std::uint32_t shard, sim::SimTime at, sim::EventFn fn) override {
    return engine_.shard(shard).schedule_at(at, std::move(fn));
  }
  bool cancel(std::uint32_t shard, sim::EventId id) override {
    return engine_.shard(shard).cancel(id);
  }
  [[nodiscard]] sim::SimTime now(std::uint32_t shard) const override {
    return engine_.shard(shard).now();
  }
  void send(std::uint32_t src, std::uint32_t dst, std::uint32_t type, std::uint64_t a,
            std::uint64_t b, std::uint64_t c, std::uint64_t d) override {
    engine_.send(src, dst, type, a, b, c, d);
  }
  // Disjoint key domains (2u vs 2f+1) so a user and a flight with the same
  // numeric id land on independently-hashed shards.
  [[nodiscard]] std::uint32_t user_shard(std::uint64_t user) const override {
    return engine_.shard_of(2 * user);
  }
  [[nodiscard]] std::uint32_t flight_shard(std::uint64_t flight) const override {
    return engine_.shard_of(2 * flight + 1);
  }

  sim::ShardedSimulation engine_;
};

struct World {
  const ScaleConfig* cfg = nullptr;
  Transport* transport = nullptr;
  std::vector<UserState> users;
  std::vector<FlightState> flights;
  std::vector<std::unique_ptr<ShardState>> shards;

  [[nodiscard]] std::uint64_t user_seed(std::uint64_t u) const {
    return util::splitmix64(cfg->seed ^ (0x9E3779B97F4A7C15ULL * (u + 1)));
  }
  // Stateless per-user randomness: draw n of user u is a pure hash, so the
  // behaviour stream is identical on any shard, any thread, any K.
  [[nodiscard]] std::uint64_t next_draw(std::uint64_t u) {
    UserState& s = users[u];
    ++s.draws;
    return util::splitmix64(user_seed(u) + 0x9E3779B97F4A7C15ULL * s.draws);
  }
  [[nodiscard]] bool sampled(std::uint64_t u) const {
    return cfg->graph_sample > 0 && u % cfg->graph_sample == 0;
  }
};

[[nodiscard]] detect::graph::GraphConfig scale_graph_config(const ScaleConfig& cfg) {
  // Sized so the sampled population never triggers cap evictions — eviction
  // is deterministic, but cap-free graphs keep the scenario's byte-identity
  // reasoning simple.
  detect::graph::GraphConfig gcfg;
  const std::uint64_t sampled =
      cfg.graph_sample > 0 ? cfg.users / cfg.graph_sample + 1 : cfg.users;
  gcfg.max_nodes = std::max<std::size_t>(4096, 2 * sampled + cfg.flights + 16);
  gcfg.max_edges = gcfg.max_nodes * 4;
  gcfg.component_cap = gcfg.max_nodes;  // rings are scored, not capped, here
  return gcfg;
}

void on_activity(World* w, std::uint64_t u);
void on_expiry(World* w, std::uint64_t packed);
void on_pay_decision(World* w, std::uint64_t packed);

void schedule_activity(World* w, std::uint64_t u, sim::SimTime at) {
  UserState& user = w->users[u];
  user.pending_at = at;
  user.pending_event = w->transport->schedule(w->transport->user_shard(u), at,
                                              [w, u] { on_activity(w, u); });
}

std::uint64_t alloc_hold(ShardState& ss) {
  std::uint64_t idx;
  if (!ss.free_holds.empty()) {
    idx = ss.free_holds.back();
    ss.free_holds.pop_back();
  } else {
    idx = ss.holds.size();
    ss.holds.emplace_back();
  }
  assert(idx < (1ULL << 20) && "hold index must fit the closure packing");
  ++ss.holds[idx].gen;
  return idx;
}

void free_hold(ShardState& ss, std::uint64_t idx) {
  ss.free_holds.push_back(static_cast<std::uint32_t>(idx));
}

// `remote`: the pay came as a message, so the paying user lives on another
// shard and its count is bumped at the barrier (see ShardState::remote_pays).
void apply_pay(World* w, std::uint32_t fs, std::uint64_t hidx, std::uint32_t gen, bool remote) {
  ShardState& ss = *w->shards[fs];
  if (hidx >= ss.holds.size()) return;
  HoldRec& h = ss.holds[hidx];
  // Generation check: the hold may have expired — and its slot been reused
  // for a different hold — between the pay decision and this apply.
  if (!h.live || (h.gen & 0xFFFFF) != (gen & 0xFFFFF)) {
    ++ss.counters.pay_late;
    return;
  }
  h.live = false;
  w->transport->cancel(fs, h.expiry_event);  // exercises cancel + compaction
  FlightState& fl = w->flights[h.flight];
  --fl.held;
  ++fl.paid;
  ++ss.counters.pays;
  if (remote) {
    ss.remote_pays.push_back(h.user);
  } else {
    ++w->users[h.user].pays;
  }
  if (w->sampled(h.user)) {
    ss.graph_ops.push_back({h.user, h.flight, w->transport->now(fs), 1});
  }
  free_hold(ss, hidx);
}

void on_pay_decision(World* w, std::uint64_t packed) {
  const auto us = static_cast<std::uint32_t>(packed >> 52);
  const auto fs = static_cast<std::uint32_t>((packed >> 40) & 0xFFF);
  const std::uint64_t hidx = (packed >> 20) & 0xFFFFF;
  const auto gen = static_cast<std::uint32_t>(packed & 0xFFFFF);
  w->shards[us]->pending_pays.erase(packed);
  if (us == fs) {
    apply_pay(w, fs, hidx, gen, /*remote=*/false);
  } else {
    w->transport->send(us, fs, kMsgPayRequest, hidx, gen, 0, 0);
  }
}

// All pay decisions go through here so the pending-descriptor map stays in
// lockstep with the queue — a decision still pending at a checkpoint must be
// re-registrable on resume.
void schedule_pay(World* w, sim::SimTime at, std::uint64_t packed) {
  const auto us = static_cast<std::uint32_t>(packed >> 52);
  const sim::EventId id =
      w->transport->schedule(us, at, [w, packed] { on_pay_decision(w, packed); });
  w->shards[us]->pending_pays.emplace(packed, std::make_pair(id, at));
}

void on_expiry(World* w, std::uint64_t packed) {
  const auto s = static_cast<std::uint32_t>(packed >> 20);
  const std::uint64_t hidx = packed & 0xFFFFF;
  ShardState& ss = *w->shards[s];
  HoldRec& h = ss.holds[hidx];
  if (!h.live) return;
  h.live = false;
  --w->flights[h.flight].held;
  ++ss.counters.expiries;
  free_hold(ss, hidx);
}

void apply_hold(World* w, std::uint32_t fs, sim::SimTime now, std::uint64_t u, std::uint64_t f,
                bool intent_pay, bool remote) {
  ShardState& ss = *w->shards[fs];
  FlightState& fl = w->flights[f];
  if (fl.held + fl.paid >= fl.capacity) {
    ++ss.counters.denials;
    if (remote) {
      w->transport->send(fs, w->transport->user_shard(u), kMsgHoldDenied, u, 0, 0, 0);
    } else {
      ++w->users[u].denials;
    }
    return;
  }
  ++fl.held;
  const std::uint64_t hidx = alloc_hold(ss);
  HoldRec& h = ss.holds[hidx];
  h.user = u;
  h.flight = f;
  h.live = true;
  h.expiry_at = now + w->cfg->hold_ttl;
  const std::uint64_t packed = pack_expiry(fs, hidx);
  h.expiry_event =
      w->transport->schedule(fs, h.expiry_at, [w, packed] { on_expiry(w, packed); });
  ++ss.counters.holds;
  if (w->sampled(u)) ss.graph_ops.push_back({u, f, now, 0});
  if (remote) {
    w->transport->send(fs, w->transport->user_shard(u), kMsgHoldGranted, u, hidx,
                       intent_pay ? 1 : 0, h.gen);
  } else {
    ++w->users[u].holds;
    if (intent_pay) schedule_pay(w, now + w->cfg->pay_delay, pack_pay(fs, fs, hidx, h.gen));
  }
}

void on_activity(World* w, std::uint64_t u) {
  const std::uint32_t us = w->transport->user_shard(u);
  ShardState& ss = *w->shards[us];
  const sim::SimTime now = w->transport->now(us);
  ++ss.counters.activities;
  const std::uint64_t r = w->next_draw(u);
  const std::uint64_t f = r % w->cfg->flights;
  const bool intent_pay = ((r >> 24) % 100) < w->cfg->pay_percent;
  const sim::SimDuration dt =
      w->cfg->think_min +
      static_cast<sim::SimDuration>((r >> 32) %
                                    static_cast<std::uint64_t>(w->cfg->think_spread + 1));
  const sim::SimTime next_at = now + dt;
  if (next_at < w->cfg->horizon) {
    schedule_activity(w, u, next_at);
  } else {
    w->users[u].pending_event = 0;
    w->users[u].pending_at = 0;
  }
  const std::uint32_t fs = w->transport->flight_shard(f);
  if (fs == us) {
    apply_hold(w, fs, now, u, f, intent_pay, /*remote=*/false);
  } else {
    w->transport->send(us, fs, kMsgHoldRequest, u, f, intent_pay ? 1 : 0, 0);
  }
}

// Barrier message handler. It runs on the worker that owns `dst`, in
// parallel with the other destinations, so it touches only `dst`'s shard,
// users and flights. The grant carries the hold's generation: its slot cannot
// be reused before the grant is delivered, since its expiry fires next epoch.
void on_message(World* w, std::uint32_t dst, const sim::ShardMessage& msg) {
  switch (msg.type) {
    case kMsgHoldRequest:
      apply_hold(w, dst, w->transport->now(dst), msg.a, msg.b, msg.c != 0, /*remote=*/true);
      break;
    case kMsgHoldGranted: {
      ++w->users[msg.a].holds;
      if (msg.c != 0) {
        schedule_pay(w, w->transport->now(dst) + w->cfg->pay_delay,
                     pack_pay(dst, msg.src, msg.b, static_cast<std::uint32_t>(msg.d)));
      }
      break;
    }
    case kMsgHoldDenied:
      ++w->users[msg.a].denials;
      break;
    case kMsgPayRequest:
      apply_pay(w, dst, msg.a, static_cast<std::uint32_t>(msg.b), /*remote=*/true);
      break;
    default:
      assert(false && "unknown shard message type");
  }
}

// --- Init --------------------------------------------------------------------

// Static state: capacities and fares. Fares are the per-shard forked-Rng
// probe — each owner shard draws from its own fork, in global flight order,
// so the assignment is a pure function of (seed, K) and identical on resume.
void init_static(World& w) {
  w.users.assign(w.cfg->users, UserState{});
  w.flights.assign(w.cfg->flights, FlightState{});
  std::vector<sim::Rng> forks;
  forks.reserve(w.shards.size());
  const sim::Rng root(w.cfg->seed);
  for (std::size_t k = 0; k < w.shards.size(); ++k) {
    forks.push_back(root.fork("shard/" + std::to_string(k)));
  }
  for (std::uint64_t f = 0; f < w.cfg->flights; ++f) {
    FlightState& fl = w.flights[f];
    fl.capacity = w.cfg->seats_per_flight;
    fl.fare = static_cast<std::uint32_t>(
        forks[w.transport->flight_shard(f)].uniform_int(50, 500));
  }
}

// Fresh-run only: first activity per user, in global id order.
void init_schedule(World& w) {
  const sim::SimDuration window = w.cfg->think_min + w.cfg->think_spread;
  for (std::uint64_t u = 0; u < w.cfg->users; ++u) {
    const std::uint64_t r = w.next_draw(u);
    const sim::SimTime t0 = 1 + static_cast<sim::SimTime>(
                                    r % static_cast<std::uint64_t>(std::max<sim::SimDuration>(
                                            window, 1)));
    if (t0 < w.cfg->horizon) schedule_activity(&w, u, t0);
  }
}

// --- Barrier work ------------------------------------------------------------

// Credits the pays that shards applied from messages to their users, in
// shard order, on the main thread at the barrier.
void apply_remote_pays(World& w) {
  for (auto& shard : w.shards) {
    for (const std::uint64_t u : shard->remote_pays) ++w.users[u].pays;
    shard->remote_pays.clear();
  }
}

// Applies the epoch's collected graph ops to each shard's private graph, in
// shard order — on the main thread, where the thread_local fault registry
// (graph.ingest) is the armed one.
void apply_graph_ops(World& w) {
  for (auto& shard : w.shards) {
    ShardState& ss = *shard;
    for (const GraphOp& op : ss.graph_ops) {
      if (!ss.graph.begin_event(op.at)) continue;
      ++ss.counters.graph_events;
      const auto a = ss.graph.touch(op.at, detect::graph::NodeType::Session,
                                    "u" + std::to_string(op.user));
      const auto b = ss.graph.touch(op.at, detect::graph::NodeType::Booking,
                                    "f" + std::to_string(op.flight));
      ss.graph.connect(op.at, a, b);
      ss.graph.add_signal(op.at, a,
                          op.kind == 0 ? detect::graph::Signal::Holds
                                       : detect::graph::Signal::Pays,
                          1.0);
    }
    ss.graph_ops.clear();
  }
}

// Merges the per-shard graphs into one population-scale graph via the
// canonical partition. Rebuilt fresh at each barrier — the partition is a
// pure function of the merged edge set, so shard merge order cannot change
// the components. (EntityGraph is not assignable — it pins a fault-point
// reference — hence the emplace-into-optional shape.)
void rebuild_merged(std::optional<detect::graph::EntityGraph>& merged, const World& w,
                    sim::SimTime at) {
  merged.emplace(scale_graph_config(*w.cfg));
  for (const auto& shard : w.shards) merged->merge_from(shard->graph, at);
}

// --- Checkpoint --------------------------------------------------------------

[[nodiscard]] std::string shard_dir(const ScaleConfig& cfg, std::uint32_t k) {
  std::string n = std::to_string(k);
  while (n.size() < 3) n.insert(n.begin(), '0');
  return cfg.out_dir + "/shards/shard-" + n;
}

[[nodiscard]] std::string checkpoint_name(std::uint64_t barrier_index) {
  return "checkpoint-" + std::to_string(barrier_index) + ".fsc";
}

[[nodiscard]] bool parse_checkpoint_name(const std::string& rel, std::uint64_t& idx) {
  constexpr std::string_view prefix = "checkpoint-";
  constexpr std::string_view suffix = ".fsc";
  if (rel.size() <= prefix.size() + suffix.size()) return false;
  if (rel.compare(0, prefix.size(), prefix) != 0) return false;
  if (rel.compare(rel.size() - suffix.size(), suffix.size(), suffix) != 0) return false;
  idx = 0;
  for (std::size_t i = prefix.size(); i < rel.size() - suffix.size(); ++i) {
    if (rel[i] < '0' || rel[i] > '9') return false;
    idx = idx * 10 + static_cast<std::uint64_t>(rel[i] - '0');
  }
  return true;
}

// Serialises one shard's slice of the world: its counters, hold table, the
// state of every user/flight it owns (global id order), its entity graph,
// and the event-queue descriptors needed to re-register pending events under
// their original ids. Shard 0 additionally carries the engine bookkeeping.
[[nodiscard]] std::string checkpoint_shard(const World& w, sim::ShardedSimulation& engine,
                                           std::uint32_t k, std::uint64_t barrier_index) {
  util::ByteWriter out;
  out.u64(kCheckpointMagic);
  out.u64(w.cfg->digest());
  out.u64(barrier_index);
  out.i64(engine.now());
  if (k == 0) engine.checkpoint(out);

  const ShardState& ss = *w.shards[k];
  out.u64(ss.counters.activities);
  out.u64(ss.counters.holds);
  out.u64(ss.counters.denials);
  out.u64(ss.counters.pays);
  out.u64(ss.counters.pay_late);
  out.u64(ss.counters.expiries);
  out.u64(ss.counters.graph_events);

  out.u64(ss.holds.size());
  for (const HoldRec& h : ss.holds) {
    out.boolean(h.live);
    out.u32(h.gen);
    out.u64(h.user);
    out.u64(h.flight);
    out.u64(h.expiry_event);
    out.i64(h.expiry_at);
  }
  out.u64(ss.free_holds.size());
  for (const std::uint32_t idx : ss.free_holds) out.u32(idx);

  // Pay decisions scheduled but not yet fired. Rare (only grants landing in
  // the last pay_delay of an epoch leave one pending at a barrier) but losing
  // a single one forks the timeline, so they are first-class checkpoint state.
  out.u64(ss.pending_pays.size());
  for (const auto& [packed, ev] : ss.pending_pays) {
    out.u64(packed);
    out.u64(ev.first);
    out.i64(ev.second);
  }

  std::uint64_t owned_users = 0;
  for (std::uint64_t u = 0; u < w.cfg->users; ++u) {
    if (w.transport->user_shard(u) == k) ++owned_users;
  }
  out.u64(owned_users);
  for (std::uint64_t u = 0; u < w.cfg->users; ++u) {
    if (w.transport->user_shard(u) != k) continue;
    const UserState& s = w.users[u];
    out.u64(u);
    out.u64(s.draws);
    out.u64(s.pending_event);
    out.i64(s.pending_at);
    out.u32(s.holds);
    out.u32(s.denials);
    out.u32(s.pays);
  }
  std::uint64_t owned_flights = 0;
  for (std::uint64_t f = 0; f < w.cfg->flights; ++f) {
    if (w.transport->flight_shard(f) == k) ++owned_flights;
  }
  out.u64(owned_flights);
  for (std::uint64_t f = 0; f < w.cfg->flights; ++f) {
    if (w.transport->flight_shard(f) != k) continue;
    out.u64(f);
    out.u32(w.flights[f].held);
    out.u32(w.flights[f].paid);
  }

  ss.graph.checkpoint(out);
  out.u64(engine.shard(k).queue().next_id());
  return out.take();
}

// Restores one shard from its blob, re-registering pending events (activity
// timers, hold expiries, pay decisions) under their ORIGINAL event ids so the
// resumed queue drains in the exact order the uninterrupted run would have
// used. Ids the queue rejects (0, one already live, a next id at or below a
// live one) fail the restore like any other malformed field.
[[nodiscard]] bool restore_shard(World& w, sim::ShardedSimulation& engine, std::uint32_t k,
                                 const std::string& blob, std::uint64_t expect_index) {
  util::ByteReader in(blob);
  if (in.u64() != kCheckpointMagic) return false;
  if (in.u64() != w.cfg->digest()) return false;
  if (in.u64() != expect_index) return false;
  (void)in.i64();  // barrier time — carried by the engine blob
  if (k == 0) engine.restore(in);

  ShardState& ss = *w.shards[k];
  ss.counters.activities = in.u64();
  ss.counters.holds = in.u64();
  ss.counters.denials = in.u64();
  ss.counters.pays = in.u64();
  ss.counters.pay_late = in.u64();
  ss.counters.expiries = in.u64();
  ss.counters.graph_events = in.u64();

  World* wp = &w;
  ss.holds.assign(in.u64(), HoldRec{});
  for (std::uint64_t i = 0; i < ss.holds.size(); ++i) {
    HoldRec& h = ss.holds[i];
    h.live = in.boolean();
    h.gen = in.u32();
    h.user = in.u64();
    h.flight = in.u64();
    h.expiry_event = in.u64();
    h.expiry_at = in.i64();
    if (h.live) {
      const std::uint64_t packed = pack_expiry(k, i);
      if (!engine.shard(k).queue().restore_entry(h.expiry_at, h.expiry_event,
                                                 [wp, packed] { on_expiry(wp, packed); })) {
        return false;
      }
    }
  }
  ss.free_holds.assign(in.u64(), 0);
  for (std::uint32_t& idx : ss.free_holds) idx = in.u32();

  ss.pending_pays.clear();
  const std::uint64_t pending_pays = in.u64();
  for (std::uint64_t i = 0; i < pending_pays; ++i) {
    const std::uint64_t packed = in.u64();
    const std::uint64_t id = in.u64();
    const sim::SimTime at = in.i64();
    if (!engine.shard(k).queue().restore_entry(at, id,
                                               [wp, packed] { on_pay_decision(wp, packed); })) {
      return false;
    }
    ss.pending_pays.emplace(packed, std::make_pair(id, at));
  }

  const std::uint64_t owned_users = in.u64();
  for (std::uint64_t i = 0; i < owned_users; ++i) {
    const std::uint64_t u = in.u64();
    if (u >= w.users.size()) return false;
    UserState& s = w.users[u];
    s.draws = in.u64();
    s.pending_event = in.u64();
    s.pending_at = in.i64();
    s.holds = in.u32();
    s.denials = in.u32();
    s.pays = in.u32();
    if (s.pending_event != 0 &&
        !engine.shard(k).queue().restore_entry(s.pending_at, s.pending_event,
                                               [wp, u] { on_activity(wp, u); })) {
      return false;
    }
  }
  const std::uint64_t owned_flights = in.u64();
  for (std::uint64_t i = 0; i < owned_flights; ++i) {
    const std::uint64_t f = in.u64();
    if (f >= w.flights.size()) return false;
    w.flights[f].held = in.u32();
    w.flights[f].paid = in.u32();
  }

  ss.graph.restore(in);
  return engine.shard(k).queue().set_next_id(in.u64()) && in.ok();
}

// --- Artifacts ---------------------------------------------------------------

[[nodiscard]] std::uint64_t state_digest(const World& w, std::uint64_t sent,
                                         std::uint64_t delivered) {
  std::uint64_t d = util::fnv1a("scale.v1");
  for (const UserState& u : w.users) {
    d = util::hash_combine(d, u.draws);
    d = util::hash_combine(d, (static_cast<std::uint64_t>(u.holds) << 32) | u.denials);
    d = util::hash_combine(d, u.pays);
  }
  for (const FlightState& f : w.flights) {
    d = util::hash_combine(d, (static_cast<std::uint64_t>(f.held) << 32) | f.paid);
    d = util::hash_combine(d, f.fare);
  }
  d = util::hash_combine(d, sent);
  d = util::hash_combine(d, delivered);
  return d;
}

struct EngineTotals {
  std::uint64_t fired = 0;
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t retries = 0;
  std::uint64_t barriers = 0;
  // Per shard, in shard order: fired / sent / delivered.
  std::vector<std::array<std::uint64_t, 3>> per_shard;
};

[[nodiscard]] ScaleArtifacts build_artifacts(const World& w, const EngineTotals& totals,
                                             const detect::graph::EntityGraph& merged,
                                             const invariant::InvariantRegistry& registry) {
  ScaleArtifacts art;
  ShardCounters sum;
  for (const auto& shard : w.shards) {
    const ShardCounters& c = shard->counters;
    sum.activities += c.activities;
    sum.holds += c.holds;
    sum.denials += c.denials;
    sum.pays += c.pays;
    sum.pay_late += c.pay_late;
    sum.expiries += c.expiries;
    sum.graph_events += c.graph_events;
  }
  art.events_fired = totals.fired;
  art.activities = sum.activities;
  art.holds = sum.holds;
  art.denials = sum.denials;
  art.pays = sum.pays;
  art.pay_late = sum.pay_late;
  art.expiries = sum.expiries;
  art.messages_sent = totals.sent;
  art.messages_delivered = totals.delivered;
  art.exchange_retries = totals.retries;
  art.barriers = totals.barriers;
  art.graph_events = sum.graph_events;
  art.state_digest = state_digest(w, totals.sent, totals.delivered);
  art.invariant_violations = registry.violations().size();
  // Rendered from the violation list, not render_report(): that report embeds
  // the lifetime check counter, which a resumed run (whose registry only saw
  // post-resume barriers) could not reproduce byte-for-byte.
  if (registry.clean()) {
    art.invariant_report = "all invariants held\n";
  } else {
    art.invariant_report = std::to_string(registry.violations().size()) +
                           " invariant violation(s):\n";
    for (const auto& v : registry.violations()) {
      art.invariant_report += "  " + v.render() + "\n";
    }
  }

  // Shards CSV: one row per shard. Serial runs emit their single row as
  // "shard 0" — byte-identical to the K=1 sharded run by construction.
  std::string csv = "shard,users,flights,fired,sent,delivered,holds,denials,pays,expiries\n";
  std::vector<std::uint64_t> users_on(w.shards.size(), 0);
  std::vector<std::uint64_t> flights_on(w.shards.size(), 0);
  for (std::uint64_t u = 0; u < w.cfg->users; ++u) ++users_on[w.transport->user_shard(u)];
  for (std::uint64_t f = 0; f < w.cfg->flights; ++f) ++flights_on[w.transport->flight_shard(f)];
  for (std::size_t k = 0; k < w.shards.size(); ++k) {
    const ShardCounters& c = w.shards[k]->counters;
    csv += std::to_string(k) + "," + std::to_string(users_on[k]) + "," +
           std::to_string(flights_on[k]) + "," + std::to_string(totals.per_shard[k][0]) + "," +
           std::to_string(totals.per_shard[k][1]) + "," +
           std::to_string(totals.per_shard[k][2]) + "," + std::to_string(c.holds) + "," +
           std::to_string(c.denials) + "," + std::to_string(c.pays) + "," +
           std::to_string(c.expiries) + "\n";
  }
  art.shards_csv = std::move(csv);

  // Graph CSV from the merged, canonically-partitioned graph.
  const detect::graph::GraphDetector detector(merged, {});
  std::string gcsv = "component,size,sessions,bookings,sharing,signal_mass,score,flagged\n";
  for (const auto& v : detector.scored_components(w.cfg->horizon)) {
    gcsv += std::to_string(v.summary.id) + "," + std::to_string(v.summary.size) + "," +
            std::to_string(v.summary.sessions) + "," + std::to_string(v.summary.bookings) +
            "," + util::format_fixed(v.sharing, 2) + "," +
            util::format_fixed(v.signal_mass, 4) + "," + util::format_fixed(v.score, 4) + "," +
            (v.flagged ? "1" : "0") + "\n";
  }
  art.graph_csv = std::move(gcsv);

  util::AsciiTable table({"metric", "value"});
  const auto row = [&table](const char* name, std::uint64_t v) {
    table.add_row({name, std::to_string(v)});
  };
  row("users", w.cfg->users);
  row("flights", w.cfg->flights);
  row("shards", w.shards.size());
  row("barriers", totals.barriers);
  row("events_fired", totals.fired);
  row("activities", sum.activities);
  row("holds", sum.holds);
  row("denials", sum.denials);
  row("pays", sum.pays);
  row("pay_late", sum.pay_late);
  row("expiries", sum.expiries);
  row("messages_sent", totals.sent);
  row("messages_delivered", totals.delivered);
  row("exchange_retries", totals.retries);
  row("graph_events", sum.graph_events);
  row("graph_nodes", merged.node_count());
  row("graph_edges", merged.edge_count());
  std::string report = table.render();
  report += "state_digest: " + std::to_string(art.state_digest) + "\n";
  report += art.invariant_report;
  art.report = std::move(report);
  return art;
}

}  // namespace

std::uint64_t ScaleConfig::digest() const {
  // Every field that changes behaviour — and NOT `threads`, which must not:
  // a digest mismatch across thread counts would be a determinism bug, not a
  // different configuration.
  std::uint64_t d = util::fnv1a("scale.config.v1");
  d = util::hash_combine(d, seed);
  d = util::hash_combine(d, users);
  d = util::hash_combine(d, flights);
  d = util::hash_combine(d, seats_per_flight);
  d = util::hash_combine(d, static_cast<std::uint64_t>(horizon));
  d = util::hash_combine(d, static_cast<std::uint64_t>(epoch));
  d = util::hash_combine(d, static_cast<std::uint64_t>(think_min));
  d = util::hash_combine(d, static_cast<std::uint64_t>(think_spread));
  d = util::hash_combine(d, static_cast<std::uint64_t>(hold_ttl));
  d = util::hash_combine(d, static_cast<std::uint64_t>(pay_delay));
  d = util::hash_combine(d, pay_percent);
  d = util::hash_combine(d, graph_sample);
  d = util::hash_combine(d, shards);
  return d;
}

ScaleArtifacts run_scale_serial(const ScaleConfig& cfg) {
  SerialTransport transport;
  World w;
  w.cfg = &cfg;
  w.transport = &transport;
  w.shards.push_back(std::make_unique<ShardState>(scale_graph_config(cfg)));
  init_static(w);
  init_schedule(w);

  invariant::InvariantRegistry registry;
  // The serial mirror registers the same invariant NAMES over its (vacuous)
  // message accounting, so its report is byte-identical to a clean K=1 run.
  registry.add("shard-conservation",
               [](sim::SimTime) -> std::optional<std::string> { return std::nullopt; });
  sim::Simulation& s = transport.sim_;
  registry.add("shard-clock-alignment",
               [&s](sim::SimTime now) -> std::optional<std::string> {
                 if (s.now() != now) {
                   return "shard 0 clock at " + std::to_string(s.now()) + ", barrier at " +
                          std::to_string(now);
                 }
                 return std::nullopt;
               });

  std::optional<detect::graph::EntityGraph> merged;
  merged.emplace(scale_graph_config(cfg));
  std::uint64_t barriers = 0;
  sim::SimTime t = 0;
  while (t < cfg.horizon) {
    const sim::SimTime barrier = std::min<sim::SimTime>(t + std::max<sim::SimDuration>(cfg.epoch, 1),
                                                        cfg.horizon);
    s.run_before(barrier);
    apply_graph_ops(w);
    rebuild_merged(merged, w, barrier);
    registry.check_all(barrier);
    t = barrier;
    ++barriers;
  }

  EngineTotals totals;
  totals.fired = s.fired_events();
  totals.barriers = barriers;
  totals.per_shard.push_back({s.fired_events(), 0, 0});
  return build_artifacts(w, totals, *merged, registry);
}

namespace {

// Shared core of run_scale_sharded / resume_scale_sharded.
ScaleArtifacts run_sharded_impl(const ScaleConfig& cfg, bool try_resume) {
  sim::ShardedSimulation::Config ecfg;
  ecfg.shards = std::max<std::uint32_t>(cfg.shards, 1);
  ecfg.epoch = std::max<sim::SimDuration>(cfg.epoch, 1);
  ecfg.threads = std::max(cfg.threads, 1u);
  ShardedTransport transport(ecfg);
  sim::ShardedSimulation& engine = transport.engine_;

  World w;
  w.cfg = &cfg;
  w.transport = &transport;
  for (std::uint32_t k = 0; k < engine.shards(); ++k) {
    w.shards.push_back(std::make_unique<ShardState>(scale_graph_config(cfg)));
  }
  init_static(w);

  World* wp = &w;
  engine.set_message_handler(
      [wp](std::uint32_t dst, const sim::ShardMessage& msg) { on_message(wp, dst, msg); });
  engine.set_exchange_guard([](sim::SimTime now) {
    return fault::FaultRegistry::global().point("shard.exchange").should_fail(now);
  });

  invariant::InvariantRegistry registry;
  invariant::register_shard_invariants(registry, engine);

  // Resume: newest barrier index whose checkpoint EVERY shard can prove
  // intact via its own manifest. Shard-local recovery — one shard's torn
  // write only rolls the fleet back to the last epoch all shards committed.
  std::uint64_t resumed_index = 0;
  bool resumed = false;
  if (try_resume && !cfg.out_dir.empty()) {
    std::set<std::uint64_t> common;
    bool first = true;
    for (std::uint32_t k = 0; k < engine.shards() && (first || !common.empty()); ++k) {
      const std::string dir = shard_dir(cfg, k);
      std::set<std::uint64_t> intact;
      if (auto manifest = recover::Manifest::load(dir + "/" + recover::kManifestFilename);
          manifest.has_value() && manifest.value().seed == cfg.seed &&
          manifest.value().config_digest == cfg.digest()) {
        const auto audit = recover::audit_artifacts(manifest.value(), dir);
        for (const std::string& rel : audit.intact) {
          std::uint64_t idx = 0;
          if (parse_checkpoint_name(rel, idx)) intact.insert(idx);
        }
      }
      if (first) {
        common = std::move(intact);
        first = false;
      } else {
        std::set<std::uint64_t> merged_set;
        std::set_intersection(common.begin(), common.end(), intact.begin(), intact.end(),
                              std::inserter(merged_set, merged_set.begin()));
        common = std::move(merged_set);
      }
    }
    if (!common.empty()) {
      const std::uint64_t idx = *common.rbegin();
      bool ok = true;
      for (std::uint32_t k = 0; k < engine.shards() && ok; ++k) {
        std::ifstream file(shard_dir(cfg, k) + "/" + checkpoint_name(idx), std::ios::binary);
        std::string blob((std::istreambuf_iterator<char>(file)),
                         std::istreambuf_iterator<char>());
        ok = file.good() && restore_shard(w, engine, k, blob, idx);
      }
      // A blob failed to parse despite an intact manifest. The shards before
      // it already restored their queues and engine counters, so start clean
      // from a fresh engine and world.
      if (!ok) return run_sharded_impl(cfg, /*try_resume=*/false);
      resumed = true;
      resumed_index = idx;
    }
  }
  if (!resumed) init_schedule(w);

  std::optional<detect::graph::EntityGraph> merged;
  merged.emplace(scale_graph_config(cfg));
  std::uint64_t barrier_index = resumed ? resumed_index : 0;
  // Per-shard manifests accumulate every checkpoint this process writes.
  std::vector<recover::Manifest> manifests(engine.shards());
  for (auto& m : manifests) {
    m.seed = cfg.seed;
    m.config_digest = cfg.digest();
  }

  engine.add_barrier_hook([&](sim::SimTime barrier) {
    apply_remote_pays(w);
    apply_graph_ops(w);
    rebuild_merged(merged, w, barrier);
    registry.check_all(barrier);
    ++barrier_index;
    if (cfg.checkpoint_every > 0 && !cfg.out_dir.empty() &&
        barrier_index % cfg.checkpoint_every == 0 && barrier < cfg.horizon) {
      for (std::uint32_t k = 0; k < engine.shards(); ++k) {
        const std::string dir = shard_dir(cfg, k);
        std::filesystem::create_directories(dir);
        const std::string rel = checkpoint_name(barrier_index);
        const std::string blob = checkpoint_shard(w, engine, k, barrier_index);
        if (auto written = recover::AtomicFile::write(dir + "/" + rel, blob, barrier);
            written.has_value()) {
          manifests[k].add(written.value(), rel);
          (void)manifests[k].write(dir, barrier);
        }
      }
    }
  });

  engine.run_until(cfg.horizon);

  EngineTotals totals;
  totals.fired = engine.fired_events();
  totals.sent = engine.messages_sent();
  totals.delivered = engine.messages_delivered();
  totals.retries = engine.exchange_retries();
  totals.barriers = barrier_index;
  for (std::uint32_t k = 0; k < engine.shards(); ++k) {
    totals.per_shard.push_back({engine.shard(k).fired_events(), 0, 0});
  }
  // Per-shard sent/delivered split is not exposed by the engine; the CSV
  // carries the global columns on shard rows via per-shard sent only when
  // K == 1 (where they equal the totals).
  if (engine.shards() == 1) {
    totals.per_shard[0][1] = totals.sent;
    totals.per_shard[0][2] = totals.delivered;
  }
  return build_artifacts(w, totals, *merged, registry);
}

}  // namespace

ScaleArtifacts run_scale_sharded(const ScaleConfig& cfg) {
  return run_sharded_impl(cfg, /*try_resume=*/false);
}

ScaleArtifacts resume_scale_sharded(const ScaleConfig& cfg) {
  return run_sharded_impl(cfg, /*try_resume=*/true);
}

}  // namespace fraudsim::scenario
