#include "core/detect/graph/entity_graph.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

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

EntityGraph::EntityGraph(GraphConfig config)
    : config_(config),
      next_maintenance_(config.maintenance_every),
      ingest_fault_(fault::FaultRegistry::global().point("graph.ingest")) {}

std::string EntityGraph::compose_key(NodeType type, std::string_view key) {
  std::string composed;
  composed.reserve(key.size() + 2);
  composed.push_back(type_prefix(type));
  composed.push_back(':');
  composed.append(key);
  return composed;
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
  if (nodes_.size() <= id) nodes_.resize(id + 1);
  if (!nodes_[id].has_value()) {
    // New entity: make room first so the cap holds at every instant.
    while (intern_.size() > config_.max_nodes) evict_oldest_node();
    GraphNode n;
    n.type = type;
    n.first_seen = now;
    n.last_seen = now;
    n.signals_updated = now;
    nodes_[id] = n;
    ++stats_.nodes_created;
    partition_dirty_ = true;
  } else {
    nodes_[id]->last_seen = now;
  }
  return id;
}

void EntityGraph::connect(sim::SimTime now, NodeId a, NodeId b) {
  if (a == 0 || b == 0 || a == b || !alive(a) || !alive(b)) return;
  const auto key = std::minmax(a, b);
  const auto it = edges_.find(key);
  if (it != edges_.end()) {
    it->second = now;
    return;
  }
  while (edges_.size() >= config_.max_edges) evict_oldest_edge();
  edges_.emplace(key, now);
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
  const std::string& composed = intern_.str(id);
  return std::string_view(composed).substr(2);
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
  for (auto it = edges_.begin(); it != edges_.end();) {
    if (it->second + config_.edge_ttl <= now) {
      it = edges_.erase(it);
      ++stats_.edges_evicted;
      partition_dirty_ = true;
    } else {
      ++it;
    }
  }
  std::vector<NodeId> expired;
  for (NodeId id = 1; id < nodes_.size(); ++id) {
    if (nodes_[id].has_value() && nodes_[id]->last_seen + config_.node_ttl <= now) {
      expired.push_back(id);
    }
  }
  evict_nodes(expired);
}

void EntityGraph::evict_nodes(const std::vector<NodeId>& ids) {
  if (ids.empty()) return;
  // One pass over the edge map however many nodes die: O(E + N), not k x E.
  std::vector<bool> doomed(nodes_.size(), false);
  for (const NodeId id : ids) doomed[id] = true;
  for (auto it = edges_.begin(); it != edges_.end();) {
    if (doomed[it->first.first] || doomed[it->first.second]) {
      it = edges_.erase(it);
      ++stats_.edges_evicted;
    } else {
      ++it;
    }
  }
  // Ascending id order: the intern free list is rebuilt exactly as a
  // node-at-a-time eviction loop would leave it.
  for (const NodeId id : ids) {
    intern_.erase(id);
    nodes_[id].reset();
    ++stats_.nodes_evicted;
  }
  partition_dirty_ = true;
}

void EntityGraph::evict_oldest_node() {
  NodeId victim = 0;
  sim::SimTime oldest = std::numeric_limits<sim::SimTime>::max();
  for (NodeId id = 1; id < nodes_.size(); ++id) {
    if (nodes_[id].has_value() && nodes_[id]->last_seen < oldest) {
      oldest = nodes_[id]->last_seen;
      victim = id;
    }
  }
  if (victim != 0) evict_nodes({victim});
}

void EntityGraph::evict_oldest_edge() {
  auto victim = edges_.end();
  sim::SimTime oldest = std::numeric_limits<sim::SimTime>::max();
  for (auto it = edges_.begin(); it != edges_.end(); ++it) {
    if (it->second < oldest) {
      oldest = it->second;
      victim = it;
    }
  }
  if (victim != edges_.end()) {
    edges_.erase(victim);
    ++stats_.edges_evicted;
    partition_dirty_ = true;
  }
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
  for (const auto& [key, last_seen] : edges_) {
    (void)last_seen;
    const auto is_hub = [&](NodeId id) {
      return nodes_[id].has_value() && nodes_[id]->type == NodeType::Asn;
    };
    if (is_hub(key.first) || is_hub(key.second)) continue;
    std::uint32_t ra = root(key.first);
    std::uint32_t rb = root(key.second);
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
    nodes_.clear();
    nodes_.resize(intern_.capacity() + 1);
    for (std::uint64_t i = 0; i < live && ar.ok(); ++i) {
      NodeId id = 0;
      GraphNode n;
      ar(id, n);
      if (id != 0 && id < nodes_.size()) nodes_[id] = n;
    }
  } else {
    for (NodeId id = 1; id < nodes_.size(); ++id) {
      if (nodes_[id].has_value()) ar(id, *nodes_[id]);
    }
  }
  ar(edges_, stats_, next_maintenance_);
  if constexpr (Ar::reading) {
    // Hostile bytes: an edge must join two live nodes, or every pass that
    // indexes nodes_ by endpoint would read out of bounds. Dropping it leaves
    // edges_created - edges_evicted != edge_count, which the conservation
    // invariant reports.
    std::erase_if(edges_, [&](const auto& edge) {
      return !alive(edge.first.first) || !alive(edge.first.second);
    });
    partition_dirty_ = true;
  }
}
template void EntityGraph::visit(util::ByteWriter&);
template void EntityGraph::visit(util::ByteReader&);

}  // namespace fraudsim::detect::graph
