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
//   * Constant cost per event, below the caps and at them. Edges sit in a
//     flat open-addressing table keyed by the packed pair (lo << 32) | hi,
//     and each node threads an intrusive list of its incident edges, so
//     evicting a node costs O(its degree). Live nodes and edges are also
//     kept in age order, oldest last_seen first and ties to the smallest id
//     (key): events arrive in time order, so a touch relinks at the newest
//     end in O(1), a TTL pass visits only the expired prefix, and cap
//     eviction takes the head, from a min-heap over the oldest timestamp's
//     group, O(log g) for g entities that share a millisecond. An actor
//     minting identities to fill the graph thus costs the defender O(1) per
//     event, O(log burst) in same-millisecond bursts.
//   * Checkpointable. Byte-stable serialization (nodes in intern-id order,
//     edges in key order) keeps journal record/replay and fleet resume
//     byte-identical, including intern-id assignment (util::InternTable
//     reproduces its free list exactly). Table order is never observable:
//     the checkpoint, for_each_edge and the partition rebuild all walk the
//     edges sorted by key.
#pragma once

#include <cstdint>
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
  [[nodiscard]] std::size_t edge_count() const { return edge_count_; }
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
    for (const EdgeRef& r : edge_order()) {
      fn(lo_of(r.key), hi_of(r.key), edges_[r.slot].last_seen);
    }
  }

  // Raw (un-prefixed) key of a live node; empty for dead ids. The view points
  // into the interner: it is valid until the graph next adds or evicts a
  // node.
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
  // byte-identical. Hostile bytes: a node list that disagrees with the
  // intern table's live ids fails the reader; an edge that names a dead node,
  // repeats a key or is not written lo < hi is dropped, which the
  // conservation invariant reports.
  template <class Ar>
  void visit(Ar& ar);

 private:
  static constexpr std::uint32_t kNil = UINT32_MAX;

  // An entry's neighbours in an age list (node ids or edge slots).
  struct AgeLinks {
    std::uint32_t older = kNil;
    std::uint32_t newer = kNil;
  };

  // An entry in an AgeList's heap: `older` holds its heap position.
  static constexpr std::uint32_t kHeaped = kNil - 1;

  // Live entries in age order, (last_seen, rank) with rank a node's id or an
  // edge's key. They are threaded oldest to newest by last_seen, ties in
  // arrival order, except the oldest timestamp's group: front() splits it off
  // into a min-heap by rank, so the cap's victims come off it in O(log g)
  // for a group of g, and a burst of entries that share a timestamp still
  // appends in O(1). `Access` reads an entry's links, last_seen and rank.
  class AgeList {
   public:
    [[nodiscard]] bool empty() const { return oldest_ == kNil && heap_.empty(); }
    // The oldest entry by (last_seen, rank), the cap's victim; kNil if empty.
    template <class Access>
    std::uint32_t front(const Access& a);
    // Links unlinked entry `i` at its place.
    template <class Access>
    void place(std::uint32_t i, const Access& a);
    template <class Access>
    void unlink(std::uint32_t i, const Access& a);
    // Appends every entry with last_seen <= limit to `out`, in no set order.
    template <class Access>
    void expired(sim::SimTime limit, const Access& a, std::vector<std::uint32_t>& out) const;
    void clear() {
      oldest_ = newest_ = kNil;
      heap_.clear();
    }

   private:
    // Moves heap_[pos] up or down to its place.
    template <class Access>
    void sift(std::size_t pos, const Access& a);

    std::uint32_t oldest_ = kNil;
    std::uint32_t newest_ = kNil;
    // The group split off the list; each entry's last_seen is heap_at_, and
    // every entry still in the list is newer.
    std::vector<std::uint32_t> heap_;
    sim::SimTime heap_at_ = 0;
  };

  // A node's links, kept beside nodes_ so the passes over nodes stay dense.
  struct NodeLinks {
    AgeLinks age;
    std::uint32_t first_edge = kNil;  // head of the incidence list
  };

  // The endpoints of a packed edge key.
  [[nodiscard]] static NodeId lo_of(std::uint64_t key) { return static_cast<NodeId>(key >> 32); }
  [[nodiscard]] static NodeId hi_of(std::uint64_t key) { return static_cast<NodeId>(key); }

  // The undirected edge {lo, hi}, lo < hi. It threads two incidence lists:
  // side 0 is lo's, side 1 is hi's. A free slot has key 0 and chains the free
  // list through age.older.
  struct EdgeSlot {
    std::uint64_t key = 0;  // (lo << 32) | hi
    sim::SimTime last_seen = 0;
    AgeLinks age;
    std::uint32_t next[2] = {kNil, kNil};
    std::uint32_t prev[2] = {kNil, kNil};
  };

  // One edge as the checkpoint encodes it: lo and hi as u32, then last_seen.
  struct EdgeEntry {
    std::uint64_t key = 0;
    sim::SimTime last_seen = 0;
    template <class Ar>
    void visit(Ar& ar) {
      NodeId l = lo_of(key);
      NodeId h = hi_of(key);
      ar(l, h, last_seen);
      key = (std::uint64_t{l} << 32) | h;
    }
  };

  // "<type-prefix>:<key>", composed in key_buf_: valid until the next call.
  [[nodiscard]] std::string_view compose_key(NodeType type, std::string_view key) const;
  // AgeList access to nodes (rank: id) and edges (rank: key).
  struct NodeAges {
    EntityGraph& g;
    AgeLinks& links(NodeId id) const { return g.node_links_[id].age; }
    sim::SimTime time(NodeId id) const { return g.nodes_[id]->last_seen; }
    std::uint64_t rank(NodeId id) const { return id; }
  };
  struct EdgeAges {
    EntityGraph& g;
    AgeLinks& links(std::uint32_t slot) const { return g.edges_[slot].age; }
    sim::SimTime time(std::uint32_t slot) const { return g.edges_[slot].last_seen; }
    std::uint64_t rank(std::uint32_t slot) const { return g.edges_[slot].key; }
  };
  // Moves a live node or edge to its new place in age order.
  void refresh_node(NodeId id, sim::SimTime now);
  void refresh_edge(std::uint32_t slot, sim::SimTime now);
  // Evicts a live node and every edge touching it.
  void evict_node(NodeId id);
  // Edge table: the slot holding `key`, or kNil.
  [[nodiscard]] std::uint32_t find_edge(std::uint64_t key) const;
  // Indexes and links a new edge; returns its slot, not yet in age order.
  std::uint32_t add_edge(std::uint64_t key, sim::SimTime last_seen);
  void erase_edge(std::uint32_t slot);
  void index_edge(std::uint32_t slot);
  // Adds an edge to, or removes it from, both endpoints' incidence lists.
  void link_incidence(std::uint32_t slot);
  void unlink_incidence(std::uint32_t slot);
  // Which of edge `slot`'s incidence lists is `node`'s: 0 for lo, 1 for hi.
  [[nodiscard]] int side_of(std::uint32_t slot, NodeId node) const {
    return lo_of(edges_[slot].key) == node ? 0 : 1;
  }
  // An edge's key and slot, the unit edge_order() sorts.
  struct EdgeRef {
    std::uint64_t key = 0;
    std::uint32_t slot = 0;
  };
  // Live edges in key order, sorted again only after the edge set changed.
  [[nodiscard]] const std::vector<EdgeRef>& edge_order() const;
  void rebuild_partition() const;
  [[nodiscard]] std::uint32_t root(std::uint32_t id) const;

  GraphConfig config_;
  util::InternTable intern_;
  // Indexed by intern id (slot 0 unused); nullopt = dead/free id.
  std::vector<std::optional<GraphNode>> nodes_;
  std::vector<NodeLinks> node_links_;
  AgeList node_age_;
  // Edge slots, and an open-addressing table of their indices (linear
  // probing, power-of-two size, load at most 1/2, backward-shift erase).
  std::vector<EdgeSlot> edges_;
  std::vector<std::uint32_t> edge_index_;
  std::uint32_t free_edge_ = kNil;
  std::size_t edge_count_ = 0;
  AgeList edge_age_;
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
  // edge_order()'s cache: a partition rebuild after node-only changes, and
  // a checkpoint or for_each_edge after it, reuse one sort.
  mutable std::vector<EdgeRef> edge_order_;
  mutable bool edge_order_stale_ = true;
  // Reused by compose_key, so a lookup builds no string per call. Like the
  // lazy partition above, it makes const queries unsafe to run concurrently.
  mutable std::string key_buf_;
};

}  // namespace fraudsim::detect::graph
