#include "core/detect/graph/entity_graph.hpp"

#include <algorithm>
#include <cmath>
#include <map>

namespace fraudsim::detect::graph {

namespace {

// One-byte key namespaces, stable across versions (they are serialized
// indirectly through the intern table's strings).
char type_prefix(NodeType t) {
  switch (t) {
    case NodeType::Session:
      return 's';
    case NodeType::Fingerprint:
      return 'f';
    case NodeType::Ip:
      return 'i';
    case NodeType::Asn:
      return 'a';
    case NodeType::PaymentToken:
      return 'p';
    case NodeType::NamePattern:
      return 'n';
    case NodeType::Booking:
      return 'b';
  }
  return '?';
}

double decay_factor(sim::SimDuration elapsed, sim::SimDuration half_life) {
  if (elapsed <= 0 || half_life <= 0) return 1.0;
  return std::exp2(-static_cast<double>(elapsed) / static_cast<double>(half_life));
}

std::uint64_t edge_key(std::uint32_t a, std::uint32_t b) {
  const auto [lo, hi] = std::minmax(a, b);
  return (std::uint64_t{lo} << 32) | hi;
}

// Home slot of an edge key in a table of mask + 1 slots (murmur3's 64-bit
// finalizer: both ids reach every bit).
std::size_t edge_home(std::uint64_t key, std::size_t mask) {
  key ^= key >> 33;
  key *= 0xff51afd7ed558ccdULL;
  key ^= key >> 33;
  return static_cast<std::size_t>(key) & mask;
}

}  // namespace

const char* to_string(NodeType t) {
  switch (t) {
    case NodeType::Session:
      return "session";
    case NodeType::Fingerprint:
      return "fingerprint";
    case NodeType::Ip:
      return "ip";
    case NodeType::Asn:
      return "asn";
    case NodeType::PaymentToken:
      return "payment-token";
    case NodeType::NamePattern:
      return "name-pattern";
    case NodeType::Booking:
      return "booking";
  }
  return "?";
}

template <class Access>
std::uint32_t EntityGraph::AgeList::front(const Access& a) {
  if (heap_.empty() && oldest_ != kNil) {
    // Split the oldest timestamp's group off the list into the heap.
    heap_at_ = a.time(oldest_);
    while (oldest_ != kNil && a.time(oldest_) == heap_at_) {
      const std::uint32_t i = oldest_;
      oldest_ = a.links(i).newer;
      heap_.push_back(i);
      sift(heap_.size() - 1, a);
    }
    (oldest_ == kNil ? newest_ : a.links(oldest_).older) = kNil;
  }
  return heap_.empty() ? kNil : heap_.front();
}

template <class Access>
void EntityGraph::AgeList::place(std::uint32_t i, const Access& a) {
  const sim::SimTime at = a.time(i);
  if (!heap_.empty() && at == heap_at_) {
    heap_.push_back(i);
    sift(heap_.size() - 1, a);
    return;
  }
  if (!heap_.empty() && at < heap_at_) {
    // Older than the heap's group (a touch back in time): thread the group
    // back in at the head of the list, where front() finds it again.
    for (const std::uint32_t h : heap_) {
      a.links(h) = AgeLinks{kNil, oldest_};
      (oldest_ == kNil ? newest_ : a.links(oldest_).older) = h;
      oldest_ = h;
    }
    heap_.clear();
  }
  // Link i after the newest entry no newer than it: O(1) for a touch in time
  // order, however many entries share its timestamp.
  std::uint32_t prev = newest_;
  while (prev != kNil && a.time(prev) > at) prev = a.links(prev).older;
  AgeLinks& links = a.links(i);
  links.older = prev;
  links.newer = prev == kNil ? oldest_ : a.links(prev).newer;
  (links.older == kNil ? oldest_ : a.links(links.older).newer) = i;
  (links.newer == kNil ? newest_ : a.links(links.newer).older) = i;
}

template <class Access>
void EntityGraph::AgeList::unlink(std::uint32_t i, const Access& a) {
  AgeLinks& links = a.links(i);
  if (links.newer == kHeaped) {
    const std::size_t pos = links.older;
    const std::uint32_t last = heap_.back();
    heap_.pop_back();
    if (pos < heap_.size()) {
      heap_[pos] = last;
      sift(pos, a);
    }
  } else {
    (links.older == kNil ? oldest_ : a.links(links.older).newer) = links.newer;
    (links.newer == kNil ? newest_ : a.links(links.newer).older) = links.older;
  }
  links = AgeLinks{};
}

template <class Access>
void EntityGraph::AgeList::expired(sim::SimTime limit, const Access& a,
                                   std::vector<std::uint32_t>& out) const {
  if (!heap_.empty() && heap_at_ <= limit) out.insert(out.end(), heap_.begin(), heap_.end());
  for (std::uint32_t i = oldest_; i != kNil && a.time(i) <= limit; i = a.links(i).newer) {
    out.push_back(i);
  }
}

template <class Access>
void EntityGraph::AgeList::sift(std::size_t pos, const Access& a) {
  // Up while smaller than the parent, else down while a child is smaller.
  const std::uint32_t i = heap_[pos];
  const auto put = [&](std::size_t at, std::uint32_t entry) {
    heap_[at] = entry;
    a.links(entry) = AgeLinks{static_cast<std::uint32_t>(at), kHeaped};
  };
  while (pos > 0 && a.rank(i) < a.rank(heap_[(pos - 1) / 2])) {
    put(pos, heap_[(pos - 1) / 2]);
    pos = (pos - 1) / 2;
  }
  for (std::size_t child = 2 * pos + 1; child < heap_.size(); child = 2 * pos + 1) {
    if (child + 1 < heap_.size() && a.rank(heap_[child + 1]) < a.rank(heap_[child])) ++child;
    if (!(a.rank(heap_[child]) < a.rank(i))) break;
    put(pos, heap_[child]);
    pos = child;
  }
  put(pos, i);
}

EntityGraph::EntityGraph(GraphConfig config)
    : config_(config),
      next_maintenance_(config.maintenance_every),
      ingest_fault_(fault::FaultRegistry::global().point("graph.ingest")) {}

std::string_view EntityGraph::compose_key(NodeType type, std::string_view key) const {
  key_buf_.assign({type_prefix(type), ':'});
  key_buf_.append(key);
  return key_buf_;
}

bool EntityGraph::begin_event(sim::SimTime now) {
  ++stats_.events_seen;
  while (config_.maintenance_every > 0 && now >= next_maintenance_) {
    maintain(next_maintenance_);
    next_maintenance_ += config_.maintenance_every;
  }
  if (ingest_fault_.should_fail(now)) {
    ++stats_.events_dropped;
    return false;
  }
  return true;
}

EntityGraph::NodeId EntityGraph::touch(sim::SimTime now, NodeType type, std::string_view key) {
  const NodeId id = intern_.intern(compose_key(type, key));
  if (nodes_.size() <= id) {
    nodes_.resize(id + 1);
    node_links_.resize(id + 1);
  }
  if (nodes_[id].has_value()) {
    refresh_node(id, now);
    return id;
  }
  // New entity: make room first so the cap holds at every instant.
  while (intern_.size() > config_.max_nodes && !node_age_.empty()) {
    evict_node(node_age_.front(NodeAges{*this}));
  }
  GraphNode& n = nodes_[id].emplace();
  n.type = type;
  n.first_seen = now;
  n.last_seen = now;
  n.signals_updated = now;
  node_age_.place(id, NodeAges{*this});
  ++stats_.nodes_created;
  partition_dirty_ = true;
  return id;
}

void EntityGraph::connect(sim::SimTime now, NodeId a, NodeId b) {
  if (a == 0 || b == 0 || a == b || !alive(a) || !alive(b)) return;
  const std::uint64_t key = edge_key(a, b);
  const std::uint32_t slot = find_edge(key);
  if (slot != kNil) {
    refresh_edge(slot, now);
    return;
  }
  while (edge_count_ >= config_.max_edges && !edge_age_.empty()) {
    erase_edge(edge_age_.front(EdgeAges{*this}));
  }
  edge_age_.place(add_edge(key, now), EdgeAges{*this});
  ++stats_.edges_created;
  partition_dirty_ = true;
}

void EntityGraph::add_signal(sim::SimTime now, NodeId node, Signal signal, double weight) {
  if (!alive(node)) return;
  GraphNode& n = *nodes_[node];
  const double factor = decay_factor(now - n.signals_updated, config_.signal_half_life);
  for (double& s : n.signals) s *= factor;
  n.signals[static_cast<std::size_t>(signal)] += weight;
  n.signals_updated = now;
}

std::string_view EntityGraph::key_of(NodeId id) const {
  if (!alive(id)) return {};
  // Composed key is "<type-prefix>:<raw key>"; strip the two-byte prefix.
  return intern_.str(id).substr(2);
}

void EntityGraph::merge_from(const EntityGraph& other, sim::SimTime now) {
  // Nodes in `other`'s intern-id order — deterministic, and gives stable
  // intern-id assignment in the merged graph for a fixed merge sequence.
  std::vector<NodeId> remap(other.nodes_.size(), 0);
  other.for_each_node([&](NodeId id, const GraphNode& n) {
    const NodeId mine = touch(now, n.type, other.key_of(id));
    remap[id] = mine;
    const double factor = decay_factor(now - n.signals_updated, other.config_.signal_half_life);
    for (std::size_t k = 0; k < kSignalCount; ++k) {
      const double mass = n.signals[k] * factor;
      if (mass > 0.0) add_signal(now, mine, static_cast<Signal>(k), mass);
    }
  });
  other.for_each_edge([&](NodeId a, NodeId b, sim::SimTime) {
    connect(now, remap[a], remap[b]);
  });
}

void EntityGraph::maintain(sim::SimTime now) {
  ++stats_.maintenance_runs;
  // Edges first: an aged edge disappears even when both endpoints stay warm.
  std::vector<std::uint32_t> expired;
  edge_age_.expired(now - config_.edge_ttl, EdgeAges{*this}, expired);
  for (const std::uint32_t slot : expired) erase_edge(slot);
  expired.clear();
  node_age_.expired(now - config_.node_ttl, NodeAges{*this}, expired);
  // Ascending id order: the intern free list is rebuilt exactly as a sweep
  // over ids would leave it.
  std::sort(expired.begin(), expired.end());
  for (const NodeId id : expired) evict_node(id);
}

void EntityGraph::refresh_node(NodeId id, sim::SimTime now) {
  GraphNode& n = *nodes_[id];
  if (n.last_seen == now) return;
  node_age_.unlink(id, NodeAges{*this});
  n.last_seen = now;
  node_age_.place(id, NodeAges{*this});
}

void EntityGraph::refresh_edge(std::uint32_t slot, sim::SimTime now) {
  EdgeSlot& e = edges_[slot];
  if (e.last_seen == now) return;
  edge_age_.unlink(slot, EdgeAges{*this});
  e.last_seen = now;
  edge_age_.place(slot, EdgeAges{*this});
}

void EntityGraph::evict_node(NodeId id) {
  while (node_links_[id].first_edge != kNil) erase_edge(node_links_[id].first_edge);
  node_age_.unlink(id, NodeAges{*this});
  intern_.erase(id);
  nodes_[id].reset();
  ++stats_.nodes_evicted;
  partition_dirty_ = true;
}

std::uint32_t EntityGraph::find_edge(std::uint64_t key) const {
  if (edge_index_.empty()) return kNil;
  const std::size_t mask = edge_index_.size() - 1;
  for (std::size_t at = edge_home(key, mask);; at = (at + 1) & mask) {
    const std::uint32_t slot = edge_index_[at];
    if (slot == kNil || edges_[slot].key == key) return slot;
  }
}

void EntityGraph::index_edge(std::uint32_t slot) {
  const std::size_t mask = edge_index_.size() - 1;
  std::size_t at = edge_home(edges_[slot].key, mask);
  while (edge_index_[at] != kNil) at = (at + 1) & mask;
  edge_index_[at] = slot;
}

std::uint32_t EntityGraph::add_edge(std::uint64_t key, sim::SimTime last_seen) {
  if (2 * (edge_count_ + 1) > edge_index_.size()) {
    edge_index_.assign(std::max<std::size_t>(16, 2 * edge_index_.size()), kNil);
    for (std::uint32_t s = 0; s < edges_.size(); ++s) {
      if (edges_[s].key != 0) index_edge(s);
    }
  }
  std::uint32_t slot = free_edge_;
  if (slot == kNil) {
    slot = static_cast<std::uint32_t>(edges_.size());
    edges_.emplace_back();
  } else {
    free_edge_ = edges_[slot].age.older;
  }
  EdgeSlot& e = edges_[slot];
  e = EdgeSlot{};
  e.key = key;
  e.last_seen = last_seen;
  index_edge(slot);
  link_incidence(slot);
  ++edge_count_;
  edge_order_stale_ = true;
  return slot;
}

void EntityGraph::erase_edge(std::uint32_t slot) {
  const std::uint64_t key = edges_[slot].key;
  // Backward-shift delete from the table: pull each later entry of the probe
  // run into the hole unless its home lies cyclically in (hole, entry].
  const std::size_t mask = edge_index_.size() - 1;
  std::size_t hole = edge_home(key, mask);
  while (edge_index_[hole] != slot) hole = (hole + 1) & mask;
  for (std::size_t at = (hole + 1) & mask; edge_index_[at] != kNil; at = (at + 1) & mask) {
    const std::size_t home = edge_home(edges_[edge_index_[at]].key, mask);
    const bool stays = hole <= at ? (hole < home && home <= at) : (hole < home || home <= at);
    if (stays) continue;
    edge_index_[hole] = edge_index_[at];
    hole = at;
  }
  edge_index_[hole] = kNil;

  edge_age_.unlink(slot, EdgeAges{*this});
  unlink_incidence(slot);
  EdgeSlot& e = edges_[slot];
  e = EdgeSlot{};
  e.age.older = free_edge_;
  free_edge_ = slot;
  --edge_count_;
  edge_order_stale_ = true;
  ++stats_.edges_evicted;
  partition_dirty_ = true;
}

void EntityGraph::link_incidence(std::uint32_t slot) {
  for (const int side : {0, 1}) {
    const NodeId node = side == 0 ? lo_of(edges_[slot].key) : hi_of(edges_[slot].key);
    const std::uint32_t next = node_links_[node].first_edge;
    edges_[slot].next[side] = next;
    edges_[slot].prev[side] = kNil;
    if (next != kNil) edges_[next].prev[side_of(next, node)] = slot;
    node_links_[node].first_edge = slot;
  }
}

void EntityGraph::unlink_incidence(std::uint32_t slot) {
  for (const int side : {0, 1}) {
    const NodeId node = side == 0 ? lo_of(edges_[slot].key) : hi_of(edges_[slot].key);
    const std::uint32_t next = edges_[slot].next[side];
    const std::uint32_t prev = edges_[slot].prev[side];
    (prev == kNil ? node_links_[node].first_edge : edges_[prev].next[side_of(prev, node)]) = next;
    if (next != kNil) edges_[next].prev[side_of(next, node)] = prev;
  }
}

const std::vector<EntityGraph::EdgeRef>& EntityGraph::edge_order() const {
  if (!edge_order_stale_) return edge_order_;
  std::vector<EdgeRef>& out = edge_order_;
  out.clear();
  for (std::uint32_t slot = 0; slot < edges_.size(); ++slot) {
    if (edges_[slot].key != 0) out.push_back({edges_[slot].key, slot});
  }
  std::sort(out.begin(), out.end(),
            [](const EdgeRef& x, const EdgeRef& y) { return x.key < y.key; });
  edge_order_stale_ = false;
  return out;
}

EntityGraph::NodeId EntityGraph::find(NodeType type, std::string_view key) const {
  return intern_.find(compose_key(type, key));
}

bool EntityGraph::alive(NodeId id) const {
  return id != 0 && id < nodes_.size() && nodes_[id].has_value();
}

const GraphNode* EntityGraph::node(NodeId id) const {
  return alive(id) ? &*nodes_[id] : nullptr;
}

std::uint32_t EntityGraph::root(std::uint32_t id) const {
  while (parent_[id] != id) {
    parent_[id] = parent_[parent_[id]];  // path halving
    id = parent_[id];
  }
  return id;
}

void EntityGraph::rebuild_partition() const {
  if (!partition_dirty_) return;
  parent_.assign(nodes_.size(), 0);
  rank_size_.assign(nodes_.size(), 0);
  canonical_.assign(nodes_.size(), 0);
  for (NodeId id = 1; id < nodes_.size(); ++id) {
    if (nodes_[id].has_value()) {
      parent_[id] = id;
      rank_size_[id] = 1;
    }
  }
  unions_refused_ = 0;
  // Union by size over edges in sorted key order: the partition is a pure
  // function of the edge set, so incremental runs, restored checkpoints and
  // replays all land on identical components. Merges that would exceed the
  // component cap are refused (counted, not applied).
  //
  // ASN (/16) nodes are hubs: a busy consumer block links thousands of
  // unrelated users, and one such edge would weld strangers — and any ring
  // hiding among them — into a single washed-out component. ASN edges stay
  // in the graph (context for SOC drill-down) but never union; only exact
  // shared entities (fingerprint, IP, token, name, booking) tie components.
  const auto is_hub = [&](NodeId id) { return nodes_[id]->type == NodeType::Asn; };
  for (const EdgeRef& r : edge_order()) {
    if (is_hub(lo_of(r.key)) || is_hub(hi_of(r.key))) continue;
    std::uint32_t ra = root(lo_of(r.key));
    std::uint32_t rb = root(hi_of(r.key));
    if (ra == rb) continue;
    if (rank_size_[ra] + rank_size_[rb] > config_.component_cap) {
      ++unions_refused_;
      continue;
    }
    if (rank_size_[ra] < rank_size_[rb]) std::swap(ra, rb);
    parent_[rb] = ra;
    rank_size_[ra] += rank_size_[rb];
  }
  // Canonical id per root: the smallest member id (ids ascend, first wins).
  for (NodeId id = 1; id < nodes_.size(); ++id) {
    if (!nodes_[id].has_value()) continue;
    const std::uint32_t r = root(id);
    if (canonical_[r] == 0) canonical_[r] = id;
  }
  partition_dirty_ = false;
}

std::uint32_t EntityGraph::component_of(NodeId id) const {
  if (!alive(id)) return 0;
  rebuild_partition();
  return canonical_[root(id)];
}

std::size_t EntityGraph::component_size(NodeId id) const {
  if (!alive(id)) return 0;
  rebuild_partition();
  return rank_size_[root(id)];
}

std::size_t EntityGraph::unions_refused() const {
  rebuild_partition();
  return unions_refused_;
}

std::size_t EntityGraph::max_component_size() const {
  rebuild_partition();
  std::size_t best = 0;
  for (NodeId id = 1; id < nodes_.size(); ++id) {
    if (nodes_[id].has_value() && parent_[id] == id) {
      best = std::max<std::size_t>(best, rank_size_[id]);
    }
  }
  return best;
}

std::vector<ComponentSummary> EntityGraph::components(sim::SimTime at) const {
  rebuild_partition();
  // std::map keyed by canonical id: deterministic output order.
  std::map<std::uint32_t, ComponentSummary> acc;
  for (NodeId id = 1; id < nodes_.size(); ++id) {
    if (!nodes_[id].has_value()) continue;
    const GraphNode& n = *nodes_[id];
    const std::uint32_t cid = canonical_[root(id)];
    ComponentSummary& c = acc[cid];
    c.id = cid;
    ++c.size;
    switch (n.type) {
      case NodeType::Session:
        ++c.sessions;
        break;
      case NodeType::Fingerprint:
        ++c.fingerprints;
        break;
      case NodeType::Ip:
        ++c.ips;
        break;
      case NodeType::Asn:
        ++c.asns;
        break;
      case NodeType::PaymentToken:
        ++c.tokens;
        break;
      case NodeType::NamePattern:
        ++c.names;
        break;
      case NodeType::Booking:
        ++c.bookings;
        break;
    }
    const double factor = decay_factor(at - n.signals_updated, config_.signal_half_life);
    for (std::size_t k = 0; k < kSignalCount; ++k) c.signals[k] += n.signals[k] * factor;
  }
  std::vector<ComponentSummary> out;
  out.reserve(acc.size());
  for (auto& [cid, summary] : acc) out.push_back(summary);
  return out;
}

template <class Ar>
void EntityGraph::visit(Ar& ar) {
  // Live nodes are a sparse (id, node) list in id order, not the nodes_
  // vector itself.
  ar(intern_);
  std::uint64_t live = intern_.size();
  ar(live);
  if constexpr (Ar::reading) {
    nodes_.assign(intern_.capacity() + 1, std::nullopt);
    node_links_.assign(nodes_.size(), NodeLinks{});
    for (std::uint64_t i = 0; i < live && ar.ok(); ++i) {
      NodeId id = 0;
      GraphNode n;
      ar(id, n);
      // Hostile bytes: each record names a distinct live intern id, or
      // node_count() and the nodes a walk finds would disagree.
      if (!intern_.contains(id) || nodes_[id].has_value()) ar.fail();
      if (ar.ok()) nodes_[id] = n;
    }
    if (live != intern_.size()) ar.fail();
  } else {
    for (NodeId id = 1; id < nodes_.size(); ++id) {
      if (nodes_[id].has_value()) ar(id, *nodes_[id]);
    }
  }
  if constexpr (!Ar::reading) {
    // The encoding of a std::vector<EdgeEntry> in key order.
    const std::vector<EdgeRef>& order = edge_order();
    ar(std::uint64_t{order.size()});
    for (const EdgeRef& r : order) ar(EdgeEntry{r.key, edges_[r.slot].last_seen});
    ar(stats_, next_maintenance_);
  } else {
    std::vector<EdgeEntry> edges;
    ar(edges, stats_, next_maintenance_);
    // Rebuild the edge table and the age lists. Hostile bytes: an edge must
    // join two live nodes, be written lo < hi and name its key once (the
    // first copy stays), or a pass that indexes nodes_ by endpoint would read
    // out of bounds and an endpoint's eviction could leave it behind.
    // Dropping it leaves edges_created - edges_evicted != edge_count, which
    // the conservation invariant reports.
    edges_.clear();
    edge_index_.clear();
    free_edge_ = kNil;
    edge_count_ = 0;
    edge_order_stale_ = true;
    std::vector<std::uint32_t> edge_slots;
    for (const EdgeEntry& e : edges) {
      const NodeId lo = lo_of(e.key);
      const NodeId hi = hi_of(e.key);
      if (lo < hi && alive(lo) && alive(hi) && find_edge(e.key) == kNil) {
        edge_slots.push_back(add_edge(e.key, e.last_seen));
      }
    }
    // Linked oldest first, each entry lands at the newest end in O(1).
    std::sort(edge_slots.begin(), edge_slots.end(), [&](std::uint32_t a, std::uint32_t b) {
      return edges_[a].last_seen < edges_[b].last_seen;
    });
    edge_age_.clear();
    for (const std::uint32_t slot : edge_slots) edge_age_.place(slot, EdgeAges{*this});

    std::vector<NodeId> node_ids;
    for (NodeId id = 1; id < nodes_.size(); ++id) {
      if (nodes_[id].has_value()) node_ids.push_back(id);
    }
    std::sort(node_ids.begin(), node_ids.end(),
              [&](NodeId a, NodeId b) { return nodes_[a]->last_seen < nodes_[b]->last_seen; });
    node_age_.clear();
    for (const NodeId id : node_ids) node_age_.place(id, NodeAges{*this});
    partition_dirty_ = true;
  }
}
template void EntityGraph::visit(util::ByteWriter&);
template void EntityGraph::visit(util::ByteReader&);

}  // namespace fraudsim::detect::graph
