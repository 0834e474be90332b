// Incremental entity graph for organized-abuse (ring) detection.
//
// The paper's case studies show campaigns whose individual requests stay
// under every per-entity control: NiP caps, rate limits, SMS quotas each see
// only a weak signal. The industrial answer (PAPERS.md, Grab) is structural:
// link the entities a campaign cannot help but share — exit IPs, device
// fingerprints, payment instruments, passenger-name patterns — and aggregate
// the weak signals over each connected component, so that many sub-threshold
// members become one strong component-level detection.
//
// Design constraints, in order:
//   * Deterministic. The graph is a pure function of the admitted event
//     stream: no wall clock, no iteration over unordered containers, no
//     pointer-order dependence. Connected components are recomputed lazily
//     from the (sorted) edge set, so a checkpoint/restore or a replay lands
//     on the identical partition as the original incremental run.
//   * Memory-bounded. Hard caps on nodes and edges are enforced at insert
//     (oldest-by-last-seen evicted first), and sim-time TTL aging retires
//     idle entities on a fixed maintenance cadence — the graph never outgrows
//     its configuration no matter how long the platform runs.
//   * Checkpointable. Byte-stable serialization (nodes in intern-id order,
//     edges in key order) keeps journal record/replay and fleet resume
//     byte-identical, including intern-id assignment (util::InternTable
//     reproduces its free list exactly).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/fault/fault.hpp"
#include "sim/time.hpp"
#include "util/archive.hpp"
#include "util/intern.hpp"

namespace fraudsim::detect::graph {

// Typed nodes. The type is folded into the interned key (one-byte prefix),
// so one InternTable serves every namespace without collisions.
enum class NodeType : std::uint8_t {
  Session,       // web session cookie
  Fingerprint,   // browser fingerprint digest
  Ip,            // exit IPv4 address
  Asn,           // /16 prefix standing in for the announcing AS (hub: the
                 // partition never unions across ASN edges — a busy consumer
                 // block would weld unrelated users into one component)
  PaymentToken,  // tokenized payment instrument
  NamePattern,   // lead-passenger name key (identity modulo birthdate)
  Booking,       // PNR (links the holding / paying / SMS-ing sessions)
};

[[nodiscard]] const char* to_string(NodeType t);

// Weak-signal classes accumulated per node as sim-time EWMAs and summed per
// component at scoring time. Each is fed by sub-threshold activity the
// per-entity detectors individually ignore.
enum class Signal : std::uint8_t { Requests, Holds, Sms, Pays };

inline constexpr std::size_t kSignalCount = 4;

struct GraphConfig {
  // Hard caps, enforced at insert time (oldest entity evicted first).
  std::size_t max_nodes = 65536;
  std::size_t max_edges = 262144;
  // Union-find refuses merges that would grow a component past this size, so
  // one mega-component (a shared NAT, a hot booking flow) cannot swallow the
  // graph. Sized so a multi-hour ring campaign — whose component accretes a
  // booking and a name-pattern node per hold — still fits in one piece.
  std::size_t component_cap = 1024;
  // Sim-time TTL aging, applied on the maintenance cadence below.
  sim::SimDuration node_ttl = sim::hours(12);
  sim::SimDuration edge_ttl = sim::hours(12);
  sim::SimDuration maintenance_every = sim::minutes(30);
  // Half-life of the per-node weak-signal EWMAs.
  sim::SimDuration signal_half_life = sim::hours(2);
};

struct GraphNode {
  NodeType type = NodeType::Session;
  sim::SimTime first_seen = 0;
  sim::SimTime last_seen = 0;
  // EWMA tallies, decayed functionally: `signals` holds the value as of
  // `signals_updated`; readers decay to their own `now`.
  double signals[kSignalCount] = {0, 0, 0, 0};
  sim::SimTime signals_updated = 0;

  template <class Ar>
  void visit(Ar& ar) {
    ar(type, first_seen, last_seen, signals, signals_updated);
  }
};

// Cumulative lifetime counters (serialized). The platform invariants check
// the conservation laws: live nodes == created - evicted, same for edges.
struct GraphStats {
  std::uint64_t events_seen = 0;     // ingest events offered to the graph
  std::uint64_t events_dropped = 0;  // ... skipped by the graph.ingest fault
  std::uint64_t nodes_created = 0;
  std::uint64_t nodes_evicted = 0;
  std::uint64_t edges_created = 0;
  std::uint64_t edges_evicted = 0;
  std::uint64_t maintenance_runs = 0;

  template <class Ar>
  void visit(Ar& ar) {
    ar(events_seen, events_dropped, nodes_created, nodes_evicted, edges_created, edges_evicted,
       maintenance_runs);
  }
};

// Per-component aggregate produced for the detector: structural counts by
// node type plus the decayed weak-signal sums.
struct ComponentSummary {
  std::uint32_t id = 0;      // canonical id: smallest member intern id
  std::size_t size = 0;      // member nodes of any type
  std::size_t sessions = 0;
  std::size_t fingerprints = 0;
  std::size_t ips = 0;
  std::size_t asns = 0;
  std::size_t tokens = 0;
  std::size_t names = 0;
  std::size_t bookings = 0;
  double signals[kSignalCount] = {0, 0, 0, 0};  // decayed to the query time
};

class EntityGraph : public util::Checkpointed<EntityGraph> {
 public:
  using NodeId = util::InternTable::Id;  // 0 = no node

  explicit EntityGraph(GraphConfig config = {});

  // --- Ingest ---------------------------------------------------------------
  // Called once per observed application event, before any updates for it:
  // counts the event, runs due TTL maintenance, and consults the
  // "graph.ingest" fault point. Returns false when the event must be dropped
  // (injected ingest outage) — the caller skips its updates for this event.
  [[nodiscard]] bool begin_event(sim::SimTime now);

  // Insert-or-refresh the node for (type, key); returns its id.
  NodeId touch(sim::SimTime now, NodeType type, std::string_view key);

  // Insert-or-refresh the undirected edge {a, b}. Ignores dead/equal ids.
  void connect(sim::SimTime now, NodeId a, NodeId b);

  // Accumulate weak-signal mass on a live node's EWMA.
  void add_signal(sim::SimTime now, NodeId node, Signal signal, double weight);

  // TTL aging pass (begin_event runs this on the configured cadence; exposed
  // for tests).
  void maintain(sim::SimTime now);

  // --- Queries --------------------------------------------------------------
  [[nodiscard]] const GraphConfig& config() const { return config_; }
  [[nodiscard]] const GraphStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t node_count() const { return intern_.size(); }
  [[nodiscard]] std::size_t edge_count() const { return edges_.size(); }
  [[nodiscard]] const util::InternTable& interner() const { return intern_; }

  // Lookup without inserting; 0 when the entity is not (or no longer) live.
  [[nodiscard]] NodeId find(NodeType type, std::string_view key) const;
  [[nodiscard]] bool alive(NodeId id) const;
  [[nodiscard]] const GraphNode* node(NodeId id) const;

  // Canonical component id of a live node (smallest member id); 0 for dead
  // ids. Stable across checkpoint/restore because the partition is recomputed
  // from the sorted edge set, never carried as incremental state.
  [[nodiscard]] std::uint32_t component_of(NodeId id) const;
  [[nodiscard]] std::size_t component_size(NodeId id) const;

  // All components with their aggregates, signals decayed to `at`, ordered by
  // canonical id.
  [[nodiscard]] std::vector<ComponentSummary> components(sim::SimTime at) const;

  // Merges refused by the component cap during the last partition rebuild.
  [[nodiscard]] std::size_t unions_refused() const;

  // Largest component size in the current partition (invariant support).
  [[nodiscard]] std::size_t max_component_size() const;

  // --- Shard merge ----------------------------------------------------------
  // Deterministic iteration: live nodes in intern-id order, edges in key
  // order — the orders the checkpoint serialization already relies on.
  template <typename Fn>
  void for_each_node(Fn&& fn) const {
    for (NodeId id = 1; id < nodes_.size(); ++id) {
      if (nodes_[id].has_value()) fn(id, *nodes_[id]);
    }
  }
  template <typename Fn>
  void for_each_edge(Fn&& fn) const {
    for (const auto& [key, last_seen] : edges_) fn(key.first, key.second, last_seen);
  }

  // Raw (un-prefixed) key of a live node; empty for dead ids.
  [[nodiscard]] std::string_view key_of(NodeId id) const;

  // Folds `other`'s live nodes, edges and decayed signal mass into this
  // graph at time `now`. Sharded runs keep one graph per shard (each ingests
  // only its shard's events, so ingest order is deterministic regardless of
  // worker threads) and merge them at epoch barriers; the merged graph's
  // canonical partition is a pure function of the resulting edge set, so the
  // merge order of shards cannot change the components — only intern-id
  // labels, which the canonical (smallest-member) component ids absorb.
  void merge_from(const EntityGraph& other, sim::SimTime now);

  // --- Checkpoint -----------------------------------------------------------
  // Byte-stable: intern table, then live nodes in id order, then edges in
  // key order, then counters. restore() reproduces the exact state (and the
  // exact intern-id assignment), so re-checkpointing restored state is
  // byte-identical.
  template <class Ar>
  void visit(Ar& ar);

 private:
  [[nodiscard]] static std::string compose_key(NodeType type, std::string_view key);
  // Evicts live `ids` (ascending) and every edge touching them in one pass.
  void evict_nodes(const std::vector<NodeId>& ids);
  void evict_oldest_node();
  void evict_oldest_edge();
  void rebuild_partition() const;
  [[nodiscard]] std::uint32_t root(std::uint32_t id) const;

  GraphConfig config_;
  util::InternTable intern_;
  // Indexed by intern id (slot 0 unused); nullopt = dead/free id.
  std::vector<std::optional<GraphNode>> nodes_;
  // Undirected edges keyed (min id, max id) -> last_seen. std::map gives the
  // deterministic iteration order the partition rebuild and the checkpoint
  // serialization both rely on.
  std::map<std::pair<NodeId, NodeId>, sim::SimTime> edges_;
  GraphStats stats_;
  sim::SimTime next_maintenance_ = 0;
  fault::FaultPoint& ingest_fault_;

  // Lazy canonical partition: a pure function of (live nodes, edge set).
  // Union by size over edges in key order, merges refused at component_cap.
  mutable bool partition_dirty_ = true;
  mutable std::vector<std::uint32_t> parent_;
  mutable std::vector<std::uint32_t> rank_size_;
  mutable std::vector<std::uint32_t> canonical_;
  mutable std::size_t unions_refused_ = 0;
};

}  // namespace fraudsim::detect::graph
