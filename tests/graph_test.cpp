// Entity graph (core/detect/graph): determinism, bounds and detection.
//
// The properties pinned here are the subsystem's contract:
//   * connected components are canonical — a pure function of the edge set,
//     with the smallest member id as the component id — and ASN hub nodes
//     never union (a busy /16 must not weld strangers together);
//   * hard caps hold under arbitrary churn (nodes, edges, component size) and
//     the conservation laws (live == created - evicted) with them;
//   * TTL maintenance retires idle entities, EWMAs decay with the configured
//     half-life;
//   * checkpoint/restore reproduces the exact state — intern ids, partition,
//     stats — byte-for-byte, mid-run and at rest;
//   * the component detector flags a ring-shaped component but not diffuse
//     legitimate traffic, and its alert bytes are pinned;
//   * with the graph enabled end-to-end, record -> replay -> resume stays
//     byte-identical, and with it disabled the artifacts keep the historical
//     shape (no component_id column).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "attack/ring_orchestrator.hpp"
#include "core/detect/detector.hpp"
#include "core/detect/graph/entity_graph.hpp"
#include "core/detect/graph/graph_detector.hpp"
#include "core/detect/graph/graph_ingest.hpp"
#include "core/detect/pipeline.hpp"
#include "core/invariant/invariant.hpp"
#include "core/journal/journal.hpp"
#include "core/scenario/env.hpp"
#include "core/scenario/replay_harness.hpp"
#include "sim/rng.hpp"
#include "util/archive.hpp"
#include "util/hash.hpp"

namespace fraudsim {
namespace {

using detect::graph::ComponentSummary;
using detect::graph::EntityGraph;
using detect::graph::GraphConfig;
using detect::graph::GraphDetector;
using detect::graph::NodeType;
using detect::graph::Signal;

std::string checkpoint_bytes(const EntityGraph& graph) {
  util::ByteWriter out;
  graph.checkpoint(out);
  return out.take();
}

std::string render_alerts(const std::vector<detect::Alert>& alerts) {
  std::ostringstream out;
  for (const auto& a : alerts) {
    out << a.time << '|' << a.detector << '|' << detect::to_string(a.severity) << '|'
        << a.explanation;
    if (a.session) out << "|s=" << a.session->value();
    if (a.actor) out << "|actor=" << a.actor->value();
    out << '\n';
  }
  return out.str();
}

// --- Components -------------------------------------------------------------

TEST(EntityGraph, SharedEntityUnionsAndCanonicalIdIsSmallestMember) {
  EntityGraph graph;
  ASSERT_TRUE(graph.begin_event(0));
  const auto s1 = graph.touch(0, NodeType::Session, "s-1");
  const auto s2 = graph.touch(0, NodeType::Session, "s-2");
  const auto fp = graph.touch(0, NodeType::Fingerprint, "fp-a");
  EXPECT_EQ(graph.component_of(s1), s1);  // singleton: its own id
  graph.connect(0, s1, fp);
  graph.connect(0, s2, fp);
  EXPECT_EQ(graph.component_of(s1), graph.component_of(s2));
  EXPECT_EQ(graph.component_of(s1), std::min({s1, s2, fp}));
  EXPECT_EQ(graph.component_size(s2), 3u);

  const auto components = graph.components(0);
  ASSERT_EQ(components.size(), 1u);
  EXPECT_EQ(components[0].sessions, 2u);
  EXPECT_EQ(components[0].fingerprints, 1u);
}

TEST(EntityGraph, AsnHubEdgesNeverUnion) {
  EntityGraph graph;
  const auto s1 = graph.touch(0, NodeType::Session, "s-1");
  const auto s2 = graph.touch(0, NodeType::Session, "s-2");
  const auto asn = graph.touch(0, NodeType::Asn, "10.0.0.0/16");
  graph.connect(0, s1, asn);
  graph.connect(0, s2, asn);
  // Both sessions hang off the same /16, yet stay separate components: the
  // hub edge is kept (SOC context) but excluded from the partition.
  EXPECT_EQ(graph.edge_count(), 2u);
  EXPECT_NE(graph.component_of(s1), graph.component_of(s2));
  EXPECT_EQ(graph.component_size(s1), 1u);

  // An exact shared entity still ties them.
  const auto ip = graph.touch(0, NodeType::Ip, "10.0.7.7");
  graph.connect(0, s1, ip);
  graph.connect(0, s2, ip);
  EXPECT_EQ(graph.component_of(s1), graph.component_of(s2));
}

TEST(EntityGraph, ComponentCapRefusesFurtherMerges) {
  GraphConfig config;
  config.component_cap = 4;
  EntityGraph graph(config);
  const auto fp = graph.touch(0, NodeType::Fingerprint, "fp");
  for (int i = 0; i < 10; ++i) {
    const auto s = graph.touch(0, NodeType::Session, "s-" + std::to_string(i));
    graph.connect(0, fp, s);
  }
  EXPECT_LE(graph.max_component_size(), 4u);
  EXPECT_GT(graph.unions_refused(), 0u);
}

// --- Bounds under churn ------------------------------------------------------

// Both caps and the TTL in play: 32 nodes, 48 edges, one-hour edges and
// two-hour nodes swept every ten minutes, one event every 30 s.
GraphConfig churn_config() {
  GraphConfig config;
  config.max_nodes = 32;
  config.max_edges = 48;
  config.node_ttl = sim::hours(2);
  config.edge_ttl = sim::hours(1);
  config.maintenance_every = sim::minutes(10);
  return config;
}

// One event of the churn stream: a session, a fingerprint and an IP drawn
// from small pools, the session linked to both.
void churn_event(EntityGraph& graph, sim::Rng& rng, sim::SimTime now) {
  if (!graph.begin_event(now)) return;
  const auto s =
      graph.touch(now, NodeType::Session, "s-" + std::to_string(rng.uniform_int(0, 199)));
  const auto fp =
      graph.touch(now, NodeType::Fingerprint, "fp-" + std::to_string(rng.uniform_int(0, 49)));
  const auto ip = graph.touch(now, NodeType::Ip, "ip-" + std::to_string(rng.uniform_int(0, 99)));
  graph.connect(now, s, fp);
  graph.connect(now, s, ip);
}

TEST(EntityGraph, CapsAndConservationHoldUnderChurn) {
  const GraphConfig config = churn_config();
  EntityGraph graph(config);

  sim::Rng rng(4242);
  sim::SimTime now = 0;
  for (int i = 0; i < 2000; ++i) {
    now += sim::seconds(30);
    churn_event(graph, rng, now);

    ASSERT_LE(graph.node_count(), config.max_nodes);
    ASSERT_LE(graph.edge_count(), config.max_edges);
    const auto& stats = graph.stats();
    ASSERT_EQ(stats.nodes_created - stats.nodes_evicted, graph.node_count());
    ASSERT_EQ(stats.edges_created - stats.edges_evicted, graph.edge_count());
  }
  EXPECT_GT(graph.stats().nodes_evicted, 0u);
  EXPECT_GT(graph.stats().maintenance_runs, 0u);

  // Idle long past every TTL: maintenance drains the graph completely, and
  // the conservation law still balances.
  graph.maintain(now + sim::hours(24));
  EXPECT_EQ(graph.node_count(), 0u);
  EXPECT_EQ(graph.edge_count(), 0u);
  EXPECT_EQ(graph.stats().nodes_created, graph.stats().nodes_evicted);
  EXPECT_EQ(graph.stats().edges_created, graph.stats().edges_evicted);
}

// The churn stream with its checkpoint bytes pinned by CRC-32 every 200
// events, so every victim the caps and the TTL pick is pinned with them (the
// values were taken from the scan-based eviction the age lists replaced). At
// 48 edges the stream peaks at 27 live edges, so it runs a second time with
// a 20-edge cap to put the edge cap in play too.
TEST(EntityGraph, CapChurnCheckpointBytesArePinned) {
  std::vector<std::uint32_t> crcs;
  for (const std::size_t max_edges : {48, 20}) {
    GraphConfig config = churn_config();
    config.max_edges = max_edges;
    EntityGraph graph(config);
    sim::Rng rng(4242);
    sim::SimTime now = 0;
    bool node_cap = false;
    bool edge_cap = false;
    for (int i = 1; i <= 2000; ++i) {
      now += sim::seconds(30);
      churn_event(graph, rng, now);
      node_cap = node_cap || graph.node_count() == config.max_nodes;
      edge_cap = edge_cap || graph.edge_count() == config.max_edges;
      if (i % 200 == 0) crcs.push_back(util::crc32(checkpoint_bytes(graph)));
    }
    EXPECT_TRUE(node_cap);
    EXPECT_EQ(edge_cap, max_edges == 20);
    EXPECT_GT(graph.stats().maintenance_runs, 0u);
  }

  const std::vector<std::uint32_t> pinned = {
      0xdf7c2d1eu, 0xce27bdacu, 0x84d39099u, 0x118a7741u, 0xcc6737f7u,  // 48 edges
      0x756b2318u, 0x7629b1e0u, 0xd3d4b3afu, 0xd8ded2e9u, 0x20bebf24u,
      0x55621bb4u, 0xf3e0e307u, 0x519294b9u, 0xba00d8d2u, 0xf8edb7f9u,  // 20 edges
      0x4fefacf5u, 0xba3f15bdu, 0x6ae2d406u, 0xbe81633au, 0x79d0738eu};
  std::ostringstream got;
  for (const auto crc : crcs) got << "0x" << std::hex << crc << "u, ";
  EXPECT_EQ(crcs, pinned) << "crcs " << got.str();
}

// Touches whose times fall (a restored clock, a test, a merge at an earlier
// barrier) reorder the age lists: cap eviction must still take the oldest
// last_seen with ties to the smallest id (edges: the smallest (lo, hi) key),
// and maintenance must retire exactly the expired set.
TEST(EntityGraph, OutOfOrderTouchesEvictOldestFirst) {
  GraphConfig config;
  config.max_nodes = 4;
  config.max_edges = 3;
  config.node_ttl = sim::hours(1);
  config.edge_ttl = sim::hours(1);
  EntityGraph graph(config);
  const auto live = [&](const char* key) { return graph.find(NodeType::Session, key) != 0; };
  const auto touch = [&](sim::SimTime at, const char* key) {
    return graph.touch(at, NodeType::Session, key);
  };

  touch(sim::hours(10), "a");
  touch(sim::hours(9), "b");
  const auto c = touch(sim::hours(8), "c");
  const auto d = touch(sim::hours(8), "d");
  ASSERT_LT(c, d);
  touch(sim::hours(7), "a");  // back in time: a is now the oldest
  touch(sim::hours(11), "e");
  EXPECT_FALSE(live("a"));
  // c and d tie at 8 h; d arrived later but c has the smaller id.
  touch(sim::hours(6), "d");
  touch(sim::hours(6), "c");
  touch(sim::hours(11), "f");
  EXPECT_FALSE(live("c"));
  EXPECT_TRUE(live("d"));
  touch(sim::hours(11), "g");
  EXPECT_FALSE(live("d"));
  EXPECT_TRUE(live("b"));
  EXPECT_EQ(graph.node_count(), 4u);

  // A run of equal times entered in falling id order leaves in rising id
  // order.
  EntityGraph run(config);
  std::vector<EntityGraph::NodeId> ids;
  for (const char* key : {"p", "q", "r", "s"}) {
    ids.push_back(run.touch(0, NodeType::Ip, key));
  }
  for (const char* key : {"s", "r", "q", "p"}) run.touch(sim::hours(5), NodeType::Ip, key);
  const auto first = run.touch(sim::hours(6), NodeType::Ip, "t");
  EXPECT_EQ(first, ids.back() + 1);
  EXPECT_EQ(run.find(NodeType::Ip, "p"), 0u);
  const auto reused = run.touch(sim::hours(6), NodeType::Ip, "u");
  EXPECT_EQ(reused, ids[0]);  // p's id, from the free list
  EXPECT_EQ(run.find(NodeType::Ip, "q"), 0u);
  // Back into the oldest run with the smallest id: it goes first.
  run.touch(sim::hours(5), NodeType::Ip, "u");
  run.touch(sim::hours(6), NodeType::Ip, "v");
  EXPECT_EQ(run.find(NodeType::Ip, "u"), 0u);
  EXPECT_NE(run.find(NodeType::Ip, "r"), 0u);

  // Edges: the same rule over (last_seen, (lo, hi)).
  EntityGraph edges(config);
  const auto n1 = edges.touch(0, NodeType::Session, "n1");
  const auto n2 = edges.touch(0, NodeType::Session, "n2");
  const auto n3 = edges.touch(0, NodeType::Session, "n3");
  const auto n4 = edges.touch(0, NodeType::Session, "n4");
  std::vector<std::pair<EntityGraph::NodeId, EntityGraph::NodeId>> seen;
  const auto edge_set = [&] {
    seen.clear();
    edges.for_each_edge([&](EntityGraph::NodeId a, EntityGraph::NodeId b, sim::SimTime) {
      seen.emplace_back(a, b);
    });
    return seen;
  };
  using Pairs = std::vector<std::pair<EntityGraph::NodeId, EntityGraph::NodeId>>;
  edges.connect(sim::hours(10), n3, n4);
  edges.connect(sim::hours(8), n2, n4);
  edges.connect(sim::hours(8), n1, n4);  // ties (n2, n4) at 8 h with a smaller key
  edges.connect(sim::hours(12), n1, n2);
  EXPECT_EQ(edge_set(), (Pairs{{n1, n2}, {n2, n4}, {n3, n4}}));
  edges.connect(sim::hours(7), n3, n4);  // refresh back in time: now the oldest
  edges.connect(sim::hours(12), n1, n3);
  EXPECT_EQ(edge_set(), (Pairs{{n1, n2}, {n1, n3}, {n2, n4}}));

  // Maintenance retires exactly the expired prefix: (n2, n4) at 8 h, not the
  // 12 h edges, then the nodes idle past their TTL.
  edges.touch(sim::hours(12), NodeType::Session, "n1");
  edges.touch(sim::hours(12), NodeType::Session, "n2");
  edges.touch(sim::hours(9), NodeType::Session, "n3");
  edges.maintain(sim::hours(9));
  EXPECT_EQ(edge_set(), (Pairs{{n1, n2}, {n1, n3}}));
  EXPECT_FALSE(edges.alive(n4));
  EXPECT_TRUE(edges.alive(n3));
  edges.maintain(sim::hours(10));
  EXPECT_FALSE(edges.alive(n3));
  EXPECT_EQ(edge_set(), (Pairs{{n1, n2}}));
  const auto& stats = edges.stats();
  EXPECT_EQ(stats.edges_created - stats.edges_evicted, edges.edge_count());
  EXPECT_EQ(stats.nodes_created - stats.nodes_evicted, edges.node_count());
}

// Bursts of hundreds of entities that share one timestamp, at both caps:
// every cap eviction takes the victim a scan of the live graph picks (the
// oldest last_seen, ties to the smallest id or (lo, hi) key), while free-list
// ids and refreshed old sessions enter each timestamp's group out of id order,
// and while a burst larger than the node cap keeps growing the group it evicts
// from.
TEST(EntityGraph, SameTimestampBurstsAtTheCapsEvictTheScanVictim) {
  using NodeId = EntityGraph::NodeId;
  GraphConfig config;
  config.max_nodes = 256;
  config.max_edges = 192;
  config.maintenance_every = 0;
  EntityGraph graph(config);

  struct NodeVictim {
    NodeType type = NodeType::Session;
    std::string key;
  };
  const auto scan_node = [&] {
    std::pair<sim::SimTime, NodeId> best{INT64_MAX, 0};
    graph.for_each_node([&](NodeId id, const detect::graph::GraphNode& n) {
      best = std::min(best, std::pair{n.last_seen, id});
    });
    return NodeVictim{graph.node(best.second)->type, std::string(graph.key_of(best.second))};
  };
  const auto touch = [&](sim::SimTime now, NodeType type, const std::string& key) {
    const bool evicts = graph.find(type, key) == 0 && graph.node_count() == config.max_nodes;
    const NodeVictim victim = evicts ? scan_node() : NodeVictim{};
    const NodeId id = graph.touch(now, type, key);
    if (evicts) {
      EXPECT_EQ(graph.find(victim.type, victim.key), 0u) << victim.key << " outlived " << key;
    }
    return id;
  };
  const auto edges = [&] {
    std::vector<std::tuple<sim::SimTime, NodeId, NodeId>> all;
    graph.for_each_edge(
        [&](NodeId a, NodeId b, sim::SimTime at) { all.emplace_back(at, a, b); });
    return all;
  };
  const auto connect = [&](sim::SimTime now, NodeId a, NodeId b) {
    const auto before = edges();
    const auto [lo, hi] = std::minmax(a, b);
    const bool fresh = std::none_of(before.begin(), before.end(), [&](const auto& e) {
      return std::get<1>(e) == lo && std::get<2>(e) == hi;
    });
    graph.connect(now, a, b);
    if (!fresh || before.size() < config.max_edges) return;
    const auto victim = *std::min_element(before.begin(), before.end());
    const auto after = edges();
    EXPECT_EQ(std::count_if(after.begin(), after.end(),
                            [&](const auto& e) {
                              return std::get<1>(e) == std::get<1>(victim) &&
                                     std::get<2>(e) == std::get<2>(victim);
                            }),
              0);
  };

  sim::Rng rng(77);
  sim::SimTime now = 0;
  for (int burst = 0; burst < 10; ++burst) {
    now += sim::seconds(1);
    const int size = burst % 3 == 2 ? 400 : 120;
    for (int k = 0; k < size; ++k) {
      const auto s =
          touch(now, NodeType::Session, "s-" + std::to_string(burst) + "-" + std::to_string(k));
      const auto ip = touch(now, NodeType::Ip, "ip-" + std::to_string(rng.uniform_int(0, 39)));
      connect(now, s, ip);
      if (k % 3 == 0) {
        const auto fp =
            touch(now, NodeType::Fingerprint, "fp-" + std::to_string(rng.uniform_int(0, 299)));
        connect(now, s, fp);
      }
      if (burst > 0 && k % 5 == 0) {
        // An older session comes back with its (smaller) id.
        touch(now, NodeType::Session,
              "s-" + std::to_string(burst - 1) + "-" + std::to_string(rng.uniform_int(0, 119)));
      }
    }
  }
  EXPECT_EQ(graph.node_count(), config.max_nodes);
  EXPECT_EQ(graph.edge_count(), config.max_edges);
  EXPECT_GT(graph.stats().nodes_evicted, 1'000u);
  EXPECT_GT(graph.stats().edges_evicted, 1'000u);
  const auto& stats = graph.stats();
  EXPECT_EQ(stats.nodes_created - stats.nodes_evicted, graph.node_count());
  EXPECT_EQ(stats.edges_created - stats.edges_evicted, graph.edge_count());
}

TEST(EntityGraph, TtlRetiresIdleEntities) {
  GraphConfig config;
  config.node_ttl = sim::hours(1);
  config.edge_ttl = sim::minutes(30);
  EntityGraph graph(config);
  const auto s = graph.touch(0, NodeType::Session, "s-1");
  const auto fp = graph.touch(0, NodeType::Fingerprint, "fp-1");
  graph.connect(0, s, fp);

  graph.maintain(sim::minutes(31));
  EXPECT_EQ(graph.edge_count(), 0u);  // edge TTL fires first
  EXPECT_TRUE(graph.alive(s));

  graph.maintain(sim::minutes(61));
  EXPECT_EQ(graph.find(NodeType::Session, "s-1"), 0u);
  EXPECT_EQ(graph.node_count(), 0u);
}

TEST(EntityGraph, SignalsDecayWithConfiguredHalfLife) {
  GraphConfig config;
  config.signal_half_life = sim::hours(2);
  EntityGraph graph(config);
  const auto s = graph.touch(0, NodeType::Session, "s-1");
  graph.add_signal(0, s, Signal::Requests, 8.0);

  const auto now = graph.components(0);
  ASSERT_EQ(now.size(), 1u);
  EXPECT_NEAR(now[0].signals[static_cast<std::size_t>(Signal::Requests)], 8.0, 1e-9);

  const auto later = graph.components(sim::hours(2));
  ASSERT_EQ(later.size(), 1u);
  EXPECT_NEAR(later[0].signals[static_cast<std::size_t>(Signal::Requests)], 4.0, 1e-9);
}

// --- Checkpoint / restore ----------------------------------------------------

TEST(EntityGraph, CheckpointRestoreRoundTripsByteForByte) {
  EntityGraph graph;
  const auto s1 = graph.touch(sim::minutes(1), NodeType::Session, "s-1");
  const auto s2 = graph.touch(sim::minutes(2), NodeType::Session, "s-2");
  const auto fp = graph.touch(sim::minutes(2), NodeType::Fingerprint, "fp-a");
  graph.connect(sim::minutes(2), s1, fp);
  graph.connect(sim::minutes(3), s2, fp);
  graph.add_signal(sim::minutes(3), s1, Signal::Holds, 2.0);
  // Exercise the intern free list: a dead id must come back dead.
  const auto doomed = graph.touch(sim::minutes(3), NodeType::Ip, "ip-dead");
  graph.maintain(sim::minutes(4));  // no-op aging, bumps maintenance stats
  EXPECT_TRUE(graph.alive(doomed));

  const std::string frame = checkpoint_bytes(graph);
  EntityGraph restored;
  util::ByteReader in(frame);
  restored.restore(in);

  EXPECT_EQ(checkpoint_bytes(restored), frame);
  EXPECT_EQ(restored.find(NodeType::Session, "s-1"), s1);
  EXPECT_EQ(restored.find(NodeType::Fingerprint, "fp-a"), fp);
  EXPECT_EQ(restored.component_of(s1), graph.component_of(s1));
  EXPECT_EQ(restored.component_of(s2), graph.component_of(s2));
  EXPECT_EQ(restored.stats().nodes_created, graph.stats().nodes_created);

  // The two instances continue identically: the next new key gets the same
  // intern id on both sides, and their checkpoints stay equal.
  const auto next_a = graph.touch(sim::minutes(5), NodeType::PaymentToken, "tok-1");
  const auto next_b = restored.touch(sim::minutes(5), NodeType::PaymentToken, "tok-1");
  EXPECT_EQ(next_a, next_b);
  EXPECT_EQ(checkpoint_bytes(restored), checkpoint_bytes(graph));
}

TEST(EntityGraph, MidRunRestoreContinuesIdentically) {
  GraphConfig config;
  config.max_nodes = 64;
  config.max_edges = 96;
  const auto drive = [](EntityGraph& graph, sim::Rng& rng, sim::SimTime& now, int ops) {
    for (int i = 0; i < ops; ++i) {
      now += sim::seconds(45);
      if (!graph.begin_event(now)) continue;
      const auto s = graph.touch(now, NodeType::Session,
                                 "s-" + std::to_string(rng.uniform_int(0, 99)));
      const auto fp = graph.touch(now, NodeType::Fingerprint,
                                  "fp-" + std::to_string(rng.uniform_int(0, 19)));
      graph.connect(now, s, fp);
      graph.add_signal(now, s, Signal::Requests, 1.0);
    }
  };

  EntityGraph original(config);
  sim::Rng rng(99);
  sim::SimTime now = 0;
  drive(original, rng, now, 500);

  EntityGraph resumed(config);
  const std::string mid = checkpoint_bytes(original);
  util::ByteReader in(mid);
  resumed.restore(in);

  // Identical op tail on both instances: the restored graph must be
  // indistinguishable from the one that never stopped.
  sim::Rng tail_rng = rng;
  sim::SimTime tail_now = now;
  drive(original, rng, now, 300);
  drive(resumed, tail_rng, tail_now, 300);
  EXPECT_EQ(checkpoint_bytes(resumed), checkpoint_bytes(original));
}

TEST(EntityGraph, MassTtlEvictionKeepsFreeListOrderAndLeavesNoDanglingEdges) {
  GraphConfig config;
  config.node_ttl = sim::hours(1);
  config.edge_ttl = sim::hours(12);  // only node eviction may remove edges here
  EntityGraph graph(config);

  // Interleaved ids: sessions, with a shared fingerprint / IP pool created
  // among them. Every fourth session and the whole pool stay warm; the other
  // sessions go idle, so one pass retires hundreds of nodes whose edges end
  // on survivors.
  std::vector<EntityGraph::NodeId> pool;
  for (int i = 0; i < 400; ++i) {
    const auto s = graph.touch(0, NodeType::Session, "s-" + std::to_string(i));
    if (i % 20 == 0) {
      pool.push_back(graph.touch(0, NodeType::Fingerprint, "fp-" + std::to_string(i)));
      pool.push_back(graph.touch(0, NodeType::Ip, "ip-" + std::to_string(i)));
    }
    graph.connect(0, s, pool[pool.size() - 2]);
    graph.connect(0, s, pool.back());
    if (i > 0 && i % 7 == 0) {
      graph.connect(0, s, graph.find(NodeType::Session, "s-" + std::to_string(i - 1)));
    }
  }
  const sim::SimTime warm = sim::minutes(50);
  for (int i = 0; i < 400; i += 4) graph.touch(warm, NodeType::Session, "s-" + std::to_string(i));
  for (int i = 0; i < 400; i += 20) {
    graph.touch(warm, NodeType::Fingerprint, "fp-" + std::to_string(i));
    graph.touch(warm, NodeType::Ip, "ip-" + std::to_string(i));
  }

  const sim::SimTime now = sim::minutes(61);
  std::vector<EntityGraph::NodeId> doomed;
  graph.for_each_node([&](EntityGraph::NodeId id, const detect::graph::GraphNode& n) {
    if (n.last_seen + config.node_ttl <= now) doomed.push_back(id);
  });
  ASSERT_EQ(doomed.size(), 300u);
  const std::size_t edges_before = graph.edge_count();

  graph.maintain(now);

  EXPECT_EQ(graph.node_count(), 140u);  // 100 warm sessions + 40 pool nodes
  EXPECT_EQ(graph.stats().nodes_evicted, doomed.size());
  EXPECT_LT(graph.edge_count(), edges_before);
  graph.for_each_node([&](EntityGraph::NodeId, const detect::graph::GraphNode& n) {
    EXPECT_GT(n.last_seen + config.node_ttl, now);
  });
  graph.for_each_edge([&](EntityGraph::NodeId a, EntityGraph::NodeId b, sim::SimTime) {
    EXPECT_TRUE(graph.alive(a) && graph.alive(b)) << a << "-" << b;
  });
  const auto& stats = graph.stats();
  EXPECT_EQ(stats.nodes_created - stats.nodes_evicted, graph.node_count());
  EXPECT_EQ(stats.edges_created - stats.edges_evicted, graph.edge_count());

  // Checkpoint after the pass; the restored copy must continue identically.
  const std::string frame = checkpoint_bytes(graph);
  EntityGraph restored(config);
  util::ByteReader in(frame);
  restored.restore(in);
  EXPECT_EQ(checkpoint_bytes(restored), frame);

  // Ids were freed in ascending order, so the LIFO free list hands them back
  // highest-first: the k-th new key gets the k-th largest evicted id.
  for (std::size_t k = 0; k < 50; ++k) {
    const std::string key = "new-" + std::to_string(k);
    const auto id = graph.touch(now, NodeType::PaymentToken, key);
    EXPECT_EQ(id, doomed[doomed.size() - 1 - k]) << "new key " << k;
    EXPECT_EQ(restored.touch(now, NodeType::PaymentToken, key), id);
    graph.connect(now, id, pool[k % pool.size()]);
    restored.connect(now, id, pool[k % pool.size()]);
  }
  graph.maintain(now + sim::hours(2));
  restored.maintain(now + sim::hours(2));
  EXPECT_EQ(graph.node_count(), 0u);
  EXPECT_EQ(checkpoint_bytes(restored), checkpoint_bytes(graph));
}

// A frame whose edge section names an id past the node table or a dead id
// (a spliced or bit-flipped checkpoint) must not reach the passes that index
// nodes by edge endpoint: restore drops such edges and the conservation
// invariant reports the frame.
TEST(EntityGraph, RestoreDropsEdgesNamingDeadOrOutOfRangeIds) {
  EntityGraph graph;
  const sim::SimTime t = sim::hours(10);
  const auto s1 = graph.touch(t, NodeType::Session, "s-1");
  const auto fp = graph.touch(t, NodeType::Fingerprint, "fp-a");
  const auto dead = graph.touch(0, NodeType::Ip, "ip-dead");
  const auto s2 = graph.touch(t, NodeType::Session, "s-2");
  const auto ip = graph.touch(t, NodeType::Ip, "ip-b");
  graph.connect(t, s1, fp);
  graph.connect(t, s2, ip);
  graph.maintain(sim::hours(13));  // retires only ip-dead
  ASSERT_FALSE(graph.alive(dead));
  ASSERT_EQ(graph.edge_count(), 2u);

  // Layout tail: edges (u32 a, u32 b, i64 last_seen) in key order, then
  // seven u64 counters and the i64 next-maintenance time.
  const std::string frame = checkpoint_bytes(graph);
  const std::size_t trailer = 8 * 8;
  const std::size_t last_edge = frame.size() - trailer - 16;
  const auto splice_endpoint = [&](std::uint32_t id) {
    util::ByteWriter endpoint;
    endpoint.u32(id);
    std::string spliced = frame;
    spliced.replace(last_edge + 4, 4, endpoint.bytes());
    return spliced;
  };

  for (const std::uint32_t bad : {dead, 1'000'000u}) {
    SCOPED_TRACE("endpoint " + std::to_string(bad));
    const std::string spliced = splice_endpoint(bad);
    EntityGraph restored;
    util::ByteReader in(spliced);
    restored.restore(in);
    ASSERT_TRUE(in.ok());
    EXPECT_EQ(restored.edge_count(), 1u);
    restored.for_each_edge([&](EntityGraph::NodeId a, EntityGraph::NodeId b, sim::SimTime) {
      EXPECT_TRUE(restored.alive(a) && restored.alive(b));
    });
    invariant::InvariantRegistry registry;
    invariant::register_graph_invariants(registry, restored);
    EXPECT_EQ(registry.check_all(sim::hours(20)), 1u);
    ASSERT_EQ(registry.violations().size(), 1u);
    EXPECT_EQ(registry.violations()[0].invariant, "graph-conservation");

    // Every endpoint-indexed pass stays in bounds on what was kept.
    EXPECT_EQ(restored.component_of(s1), std::min(s1, fp));
    EXPECT_GE(restored.max_component_size(), 1u);
    restored.maintain(sim::hours(40));
    EXPECT_EQ(restored.node_count(), 0u);
    EXPECT_EQ(restored.edge_count(), 0u);
  }
}

// An edge written as (hi, lo) or as a self-loop is a key no writer produces:
// kept, it would sit beside the (lo, hi) edge as a second copy and outlive
// its endpoints' incidence. Restore drops it like a dead-endpoint edge, and
// the conservation invariant reports the frame.
TEST(EntityGraph, RestoreDropsReversedAndSelfLoopEdges) {
  EntityGraph graph;
  const auto s1 = graph.touch(0, NodeType::Session, "s-1");
  const auto fp = graph.touch(0, NodeType::Fingerprint, "fp-a");
  const auto s2 = graph.touch(0, NodeType::Session, "s-2");
  const auto ip = graph.touch(0, NodeType::Ip, "ip-b");
  graph.connect(0, s1, fp);
  graph.connect(0, s2, ip);
  ASSERT_LT(s2, ip);

  // The last edge, (s2, ip), sits just before the 64-byte counter trailer.
  const std::string frame = checkpoint_bytes(graph);
  const std::size_t last_edge = frame.size() - 8 * 8 - 16;
  const auto splice_edge = [&](std::uint32_t lo, std::uint32_t hi) {
    util::ByteWriter key;
    key.u32(lo);
    key.u32(hi);
    std::string spliced = frame;
    spliced.replace(last_edge, 8, key.bytes());
    return spliced;
  };

  for (const auto& [lo, hi] : {std::pair{ip, s2}, std::pair{s2, s2}}) {
    SCOPED_TRACE("edge " + std::to_string(lo) + "-" + std::to_string(hi));
    const std::string spliced = splice_edge(lo, hi);
    EntityGraph restored;
    util::ByteReader in(spliced);
    restored.restore(in);
    ASSERT_TRUE(in.ok());
    EXPECT_EQ(restored.edge_count(), 1u);
    restored.for_each_edge([&](EntityGraph::NodeId a, EntityGraph::NodeId b, sim::SimTime) {
      EXPECT_EQ(a, s1);
      EXPECT_EQ(b, fp);
    });
    invariant::InvariantRegistry registry;
    invariant::register_graph_invariants(registry, restored);
    EXPECT_EQ(registry.check_all(sim::hours(1)), 1u);
    ASSERT_EQ(registry.violations().size(), 1u);
    EXPECT_EQ(registry.violations()[0].invariant, "graph-conservation");

    // Evicting the endpoints leaves nothing behind.
    restored.touch(sim::hours(13), NodeType::Session, "s-1");
    restored.touch(sim::hours(13), NodeType::Fingerprint, "fp-a");
    restored.connect(sim::hours(13), s1, fp);
    restored.maintain(sim::hours(13));
    EXPECT_FALSE(restored.alive(s2));
    EXPECT_EQ(restored.edge_count(), 1u);
  }
}

void build_ring_world(EntityGraph& graph, std::vector<web::Session>& sessions);

// Seeded truncations, bit flips and splices of real graph checkpoint frames:
// each mutant either fails the reader or restores a graph whose every edge
// joins two live nodes with lo < hi, and which the passes that index by
// endpoint (partition, eviction, re-checkpoint) walk in bounds.
TEST(EntityGraph, MutatedCheckpointFramesFailOrRestoreSoundGraphs) {
  std::vector<std::string> frames;
  {
    EntityGraph graph(churn_config());
    sim::Rng rng(4242);
    sim::SimTime now = 0;
    for (int i = 1; i <= 900; ++i) {
      now += sim::seconds(30);
      churn_event(graph, rng, now);
      if (i % 300 == 0) frames.push_back(checkpoint_bytes(graph));
    }
  }
  {
    EntityGraph graph;
    std::vector<web::Session> sessions;
    build_ring_world(graph, sessions);
    frames.push_back(checkpoint_bytes(graph));
  }

  sim::Rng rng(20261020);
  std::size_t restored_ok = 0;
  std::size_t rejected = 0;
  for (int round = 0; round < 1500; ++round) {
    const std::string& frame = frames[static_cast<std::size_t>(round) % frames.size()];
    std::string mutant = frame;
    const auto pos = [&](std::size_t size) {
      return static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(size) - 1));
    };
    switch (round % 3) {
      case 0:  // truncate
        mutant.resize(pos(frame.size()));
        break;
      case 1:  // flip one to three bits
        for (std::int64_t k = rng.uniform_int(1, 3); k > 0; --k) {
          mutant[pos(mutant.size())] ^= static_cast<char>(1u << rng.uniform_int(0, 7));
        }
        break;
      default: {  // splice a run of another frame's bytes over this one
        const std::string& donor = frames[pos(frames.size())];
        const std::size_t from = pos(donor.size());
        const std::size_t to = pos(mutant.size());
        const std::size_t len = std::min<std::size_t>(
            {static_cast<std::size_t>(rng.uniform_int(1, 24)), donor.size() - from,
             mutant.size() - to});
        mutant.replace(to, len, donor.substr(from, len));
        break;
      }
    }
    SCOPED_TRACE("round " + std::to_string(round));
    EntityGraph restored(churn_config());
    util::ByteReader in(mutant);
    restored.restore(in);
    if (!in.ok()) {
      ++rejected;
      continue;
    }
    ++restored_ok;
    restored.for_each_edge([&](EntityGraph::NodeId a, EntityGraph::NodeId b, sim::SimTime) {
      ASSERT_TRUE(restored.alive(a) && restored.alive(b)) << a << "-" << b;
      ASSERT_LT(a, b);
    });
    std::size_t members = 0;
    restored.for_each_node([&](EntityGraph::NodeId id, const detect::graph::GraphNode&) {
      members += restored.component_of(id) != 0 ? 1 : 0;
    });
    EXPECT_EQ(members, restored.node_count());
    const std::string again = checkpoint_bytes(restored);
    EntityGraph twice(churn_config());
    util::ByteReader in_again(again);
    twice.restore(in_again);
    EXPECT_TRUE(in_again.ok());
    EXPECT_TRUE(checkpoint_bytes(twice) == again);
    // New keys force the caps; a far-future pass drains the rest.
    for (int k = 0; k < 40; ++k) {
      const auto s = restored.touch(sim::hours(30), NodeType::Session, "m-" + std::to_string(k));
      restored.connect(sim::hours(30), s, restored.touch(sim::hours(30), NodeType::Ip, "m-ip"));
    }
    EXPECT_LE(restored.node_count(), churn_config().max_nodes);
    EXPECT_LE(restored.edge_count(), churn_config().max_edges);
    restored.maintain(sim::hours(60));
  }
  EXPECT_GT(restored_ok, 100u);
  EXPECT_GT(rejected, 100u);
}

// --- GraphDetector -----------------------------------------------------------

// Hand-build a ring-shaped component (many sessions on a tiny shared pool,
// hefty hold mass) next to diffuse legitimate components.
void build_ring_world(EntityGraph& graph, std::vector<web::Session>& sessions) {
  const sim::SimTime now = sim::hours(1);
  const auto fp1 = graph.touch(now, NodeType::Fingerprint, "ring-fp-1");
  const auto fp2 = graph.touch(now, NodeType::Fingerprint, "ring-fp-2");
  const auto tok = graph.touch(now, NodeType::PaymentToken, "ring-tok");
  for (int i = 0; i < 12; ++i) {
    web::Session s;
    s.id = web::SessionId{1000u + static_cast<std::uint64_t>(i)};
    s.actor = web::ActorId{500u + static_cast<std::uint64_t>(i)};
    sessions.push_back(s);
    const auto node = graph.touch(now, NodeType::Session, s.id.str());
    graph.connect(now, node, i % 2 == 0 ? fp1 : fp2);
    graph.connect(now, node, tok);
    graph.add_signal(now, node, Signal::Holds, 2.0);
    graph.add_signal(now, node, Signal::Requests, 6.0);
  }
  // Legit: every session brings its own fingerprint and IP — no sharing.
  for (int i = 0; i < 6; ++i) {
    web::Session s;
    s.id = web::SessionId{2000u + static_cast<std::uint64_t>(i)};
    s.actor = web::ActorId{600u + static_cast<std::uint64_t>(i)};
    sessions.push_back(s);
    const auto node = graph.touch(now, NodeType::Session, s.id.str());
    graph.connect(now, node, graph.touch(now, NodeType::Fingerprint, "fp-" + s.id.str()));
    graph.connect(now, node, graph.touch(now, NodeType::Ip, "ip-" + s.id.str()));
    graph.add_signal(now, node, Signal::Requests, 3.0);
  }
}

TEST(GraphDetector, FlagsRingComponentNotDiffuseLegitTraffic) {
  EntityGraph graph;
  std::vector<web::Session> sessions;
  build_ring_world(graph, sessions);

  GraphDetector detector(graph);
  const auto verdicts = detector.scored_components(sim::hours(1));
  std::size_t flagged = 0;
  for (const auto& v : verdicts) {
    if (!v.flagged) continue;
    ++flagged;
    EXPECT_EQ(v.summary.sessions, 12u);
    EXPECT_EQ(v.summary.fingerprints, 2u);
    EXPECT_GE(v.sharing, detector.config().min_sharing);
    EXPECT_GE(v.signal_mass, detector.config().signal_threshold);
  }
  EXPECT_EQ(flagged, 1u);
}

// The ring world scored one hour-view at a time, its rendered alert bytes
// pinned by CRC-32 (taken from the batched implementation evaluate replaced).
TEST(GraphDetector, AlertBytesArePinned) {
  EntityGraph graph;
  std::vector<web::Session> sessions;
  build_ring_world(graph, sessions);

  scenario::EnvConfig env_config;
  env_config.seed = 7;
  scenario::Env env(env_config);
  GraphDetector detector(graph);
  detect::AlertSink sink;
  for (int hour = 0; hour < 3; ++hour) {
    detector.evaluate(
        detect::RequestView(env.app, sim::hours(hour), sim::hours(hour + 1), sessions), sink);
  }

  EXPECT_GT(sink.count(), 0u);
  const std::string bytes = render_alerts(sink.alerts());
  EXPECT_EQ(util::crc32(bytes), 0xc228c284u) << std::hex << "crc 0x" << util::crc32(bytes);
}

// --- Ring under an identity-rotation flood ------------------------------------

// The paper's attackers mint identities cheaply. A flood that brings a fresh
// session and fingerprint on every request, through a pool of 5,000 exits,
// fills the default-sized graph before the ring starts and holds it at its
// node cap for the whole campaign. Cap eviction takes the oldest entities, the
// flood's one-shot identities, so the 16-member ring, whose members and shared
// fingerprints stay warm, still forms a component that graph.ring flags.
TEST(GraphRing, RingIsFlaggedWhileAnIdentityFloodHoldsTheNodeCap) {
  const sim::SimTime start = sim::hours(1);
  const sim::SimTime horizon = sim::hours(4);
  scenario::EnvConfig env_config;
  env_config.seed = 101;
  env_config.legit.booking_sessions_per_hour = 20;
  env_config.legit.browse_sessions_per_hour = 10;
  env_config.legit.otp_logins_per_hour = 2;
  scenario::Env env(env_config);
  env.add_flights("R", scenario::Env::fleet_size_for(20, horizon, 150), 150, sim::days(10));

  EntityGraph graph;
  const std::size_t cap = graph.config().max_nodes;
  detect::graph::GraphIngest ingest(graph);
  env.app.set_tap(&ingest);

  attack::RingConfig ring_config;
  ring_config.start = start;
  attack::RingOrchestrator ring(env.app, env.actors, env.residential, env.population,
                                ring_config, env.rng.fork("ring"));

  const web::ActorId flooder = env.actors.register_actor(app::ActorKind::Scraper);
  std::uint64_t seq = 0;
  const auto flood_request = [&] {
    app::ClientContext ctx;
    ctx.actor = flooder;
    ctx.session = web::SessionId{900'000'000u + seq};
    ctx.fingerprint.canvas_hash = seq;
    ctx.ip = net::IpV4{0x30000000u + static_cast<std::uint32_t>(seq % 5000)};
    env.app.browse(ctx, web::Endpoint::SearchFlights);
    ++seq;
  };
  // A burst of half a cap of identities (a session and a fingerprint each)
  // fills the graph; then one request every two seconds keeps it full.
  env.sim.schedule_at(0, [&] {
    while (seq < cap / 2) flood_request();
  });
  std::size_t ticks_below_cap = 0;
  std::function<void()> steady = [&] {
    flood_request();
    if (env.sim.now() >= start && graph.node_count() != cap) ++ticks_below_cap;
    if (env.sim.now() + sim::seconds(2) < horizon) env.sim.schedule_in(sim::seconds(2), steady);
  };
  env.sim.schedule_at(sim::seconds(1), steady);

  env.start_background(horizon);
  ring.start(horizon);
  env.run_until(horizon);
  EXPECT_EQ(ticks_below_cap, 0u);
  EXPECT_GT(graph.stats().nodes_evicted, 5'000u);

  detect::DetectionPipeline pipeline;
  pipeline.enable_graph(graph);
  const auto result = pipeline.run(env.app, env.actors, start, horizon);
  const std::set<web::ActorId> members(ring.members().begin(), ring.members().end());
  std::set<web::ActorId> caught;
  for (const auto& alert : result.alerts.alerts()) {
    if (alert.detector == "graph.ring" && alert.actor && members.count(*alert.actor) != 0) {
      caught.insert(*alert.actor);
    }
  }
  EXPECT_GE(caught.size(), members.size() * 4 / 5);
}

// --- End-to-end determinism with the graph enabled ---------------------------

std::string tmp_path(const std::string& name) { return testing::TempDir() + name; }

scenario::RecordedScenarioConfig graph_config(std::uint64_t seed = 2024) {
  scenario::RecordedScenarioConfig config;
  config.seed = seed;
  config.horizon = sim::hours(6);
  config.flights = 4;
  config.capacity = 40;
  config.legit.booking_sessions_per_hour = 6;
  config.legit.browse_sessions_per_hour = 4;
  config.legit.otp_logins_per_hour = 3;
  config.attacker_start = sim::hours(1);
  config.attacker_period = sim::minutes(15);
  config.controller_fit_at = sim::hours(1);
  config.controller.sweep_interval = sim::hours(1);
  config.checkpoint_every = sim::hours(2);
  config.graph.enabled = true;
  return config;
}

TEST(GraphScenario, SameSeedRunsAreByteIdenticalWithGraphOn) {
  const auto config = graph_config();
  const auto a = scenario::record_run(config, tmp_path("graph-a.journal"));
  const auto b = scenario::record_run(config, tmp_path("graph-b.journal"));
  ASSERT_TRUE(a.has_value()) << a.error();
  ASSERT_TRUE(b.has_value()) << b.error();
  EXPECT_EQ(a.value().metrics_csv, b.value().metrics_csv);
  EXPECT_EQ(a.value().weblog_csv, b.value().weblog_csv);
  EXPECT_EQ(a.value().soc_report, b.value().soc_report);
  // The graph-on weblog carries the component attribution column.
  EXPECT_NE(a.value().weblog_csv.find("component_id"), std::string::npos);
}

TEST(GraphScenario, ReplayAndCheckpointResumeAreByteIdenticalWithGraphOn) {
  const auto config = graph_config(77);
  const std::string path = tmp_path("graph-replay.journal");
  const auto recorded = scenario::record_run(config, path);
  ASSERT_TRUE(recorded.has_value()) << recorded.error();

  const auto replayed = scenario::replay_run(config, path);
  ASSERT_TRUE(replayed.has_value()) << replayed.error();
  EXPECT_EQ(replayed.value().metrics_csv, recorded.value().metrics_csv);
  EXPECT_EQ(replayed.value().weblog_csv, recorded.value().weblog_csv);
  EXPECT_EQ(replayed.value().soc_report, recorded.value().soc_report);

  // Resume from the embedded checkpoint: the restored graph must continue
  // exactly where the original left off (intern ids, partition, EWMAs).
  scenario::ReplayOptions from_checkpoint;
  from_checkpoint.from_last_checkpoint = true;
  const auto resumed = scenario::replay_run(config, path, from_checkpoint);
  ASSERT_TRUE(resumed.has_value()) << resumed.error();
  EXPECT_EQ(resumed.value().metrics_csv, recorded.value().metrics_csv);
  EXPECT_EQ(resumed.value().weblog_csv, recorded.value().weblog_csv);
  EXPECT_EQ(resumed.value().soc_report, recorded.value().soc_report);
}

// The graph state rides last in every embedded checkpoint blob, and its final
// 64 bytes are the seven lifetime counters plus the next-maintenance time.
detect::graph::GraphStats graph_stats_of_blob(const std::string& blob) {
  util::ByteReader in(std::string_view(blob).substr(blob.size() - 64));
  detect::graph::GraphStats stats;
  stats.events_seen = in.u64();
  stats.events_dropped = in.u64();
  stats.nodes_created = in.u64();
  stats.nodes_evicted = in.u64();
  stats.edges_created = in.u64();
  stats.edges_evicted = in.u64();
  stats.maintenance_runs = in.u64();
  return stats;
}

std::vector<std::pair<sim::SimTime, detect::graph::GraphStats>> checkpoint_graph_stats(
    const std::string& journal_path) {
  journal::JournalReader reader;
  EXPECT_TRUE(reader.open(journal_path).is_ok());
  std::vector<std::pair<sim::SimTime, detect::graph::GraphStats>> out;
  for (const auto& record : reader.records()) {
    if (record.kind != journal::RecordKind::Checkpoint) continue;
    util::ByteReader fields(record.fields);
    out.emplace_back(record.time, graph_stats_of_blob(fields.str()));
  }
  return out;
}

TEST(GraphScenario, ReplayAndCheckpointResumeAreByteIdenticalAcrossTtlEvictions) {
  // One-hour TTLs on a ten-minute maintenance cadence: idle sessions retire
  // in bulk all day, and the single embedded checkpoint (4 h) sits between
  // mass eviction passes.
  auto config = graph_config(91);
  config.graph.graph.node_ttl = sim::hours(1);
  config.graph.graph.edge_ttl = sim::hours(1);
  config.graph.graph.maintenance_every = sim::minutes(10);
  config.checkpoint_every = sim::hours(4);
  const std::string path = tmp_path("graph-ttl.journal");
  const auto recorded = scenario::record_run(config, path);
  ASSERT_TRUE(recorded.has_value()) << recorded.error();

  const auto replayed = scenario::replay_run(config, path);
  ASSERT_TRUE(replayed.has_value()) << replayed.error();
  EXPECT_EQ(replayed.value().metrics_csv, recorded.value().metrics_csv);
  EXPECT_EQ(replayed.value().weblog_csv, recorded.value().weblog_csv);
  EXPECT_EQ(replayed.value().soc_report, recorded.value().soc_report);

  scenario::ReplayOptions from_checkpoint;
  from_checkpoint.from_last_checkpoint = true;
  const auto resumed = scenario::replay_run(config, path, from_checkpoint);
  ASSERT_TRUE(resumed.has_value()) << resumed.error();
  EXPECT_EQ(resumed.value().metrics_csv, recorded.value().metrics_csv);
  EXPECT_EQ(resumed.value().weblog_csv, recorded.value().weblog_csv);
  EXPECT_EQ(resumed.value().soc_report, recorded.value().soc_report);

  // Evidence that evictions happen on both sides of the resume point: a probe
  // recording of the same run that also checkpoints at 2 h and 6 h
  // (checkpoints only observe), with the graph invariants attached.
  const auto cps = checkpoint_graph_stats(path);
  ASSERT_EQ(cps.size(), 1u);
  ASSERT_EQ(cps[0].first, sim::hours(4));
  invariant::InvariantRegistry registry;
  auto probe = config;
  probe.checkpoint_every = sim::hours(2);
  probe.invariants = &registry;
  const std::string probe_path = tmp_path("graph-ttl-probe.journal");
  const auto probed = scenario::record_run(probe, probe_path);
  ASSERT_TRUE(probed.has_value()) << probed.error();
  EXPECT_TRUE(probed.value().violations.empty())
      << probed.value().violations.front().render();
  const auto probe_cps = checkpoint_graph_stats(probe_path);
  ASSERT_EQ(probe_cps.size(), 3u);
  const auto& at4 = probe_cps[1].second;
  const auto& at6 = probe_cps[2].second;
  EXPECT_EQ(at4.nodes_evicted, cps[0].second.nodes_evicted);
  EXPECT_EQ(at4.edges_evicted, cps[0].second.edges_evicted);
  EXPECT_GE(at4.nodes_evicted, 100u);
  EXPECT_GE(at6.nodes_evicted - at4.nodes_evicted, 100u);
  EXPECT_GT(at6.edges_evicted, at4.edges_evicted);
}

TEST(GraphScenario, ReplayAndCheckpointResumeAreByteIdenticalAtTheCaps) {
  // The TTL scenario with caps far under the day's distinct entities, so the
  // node cap and the edge cap evict on both sides of the 4 h resume point.
  auto config = graph_config(91);
  config.graph.graph.node_ttl = sim::hours(1);
  config.graph.graph.edge_ttl = sim::hours(1);
  config.graph.graph.maintenance_every = sim::minutes(10);
  const std::size_t max_nodes = 40;
  const std::size_t max_edges = 30;
  config.graph.graph.max_nodes = max_nodes;
  config.graph.graph.max_edges = max_edges;
  config.checkpoint_every = sim::hours(4);
  const std::string path = tmp_path("graph-caps.journal");
  const auto recorded = scenario::record_run(config, path);
  ASSERT_TRUE(recorded.has_value()) << recorded.error();

  const auto replayed = scenario::replay_run(config, path);
  ASSERT_TRUE(replayed.has_value()) << replayed.error();
  EXPECT_EQ(replayed.value().metrics_csv, recorded.value().metrics_csv);
  EXPECT_EQ(replayed.value().weblog_csv, recorded.value().weblog_csv);
  EXPECT_EQ(replayed.value().soc_report, recorded.value().soc_report);

  scenario::ReplayOptions from_checkpoint;
  from_checkpoint.from_last_checkpoint = true;
  const auto resumed = scenario::replay_run(config, path, from_checkpoint);
  ASSERT_TRUE(resumed.has_value()) << resumed.error();
  EXPECT_EQ(resumed.value().metrics_csv, recorded.value().metrics_csv);
  EXPECT_EQ(resumed.value().weblog_csv, recorded.value().weblog_csv);
  EXPECT_EQ(resumed.value().soc_report, recorded.value().soc_report);

  // Evidence that both caps bind before and after the resume point: a probe
  // recording that checkpoints every 20 minutes finds the live node and edge
  // counts at their caps on each side of 4 h.
  invariant::InvariantRegistry registry;
  auto probe = config;
  probe.checkpoint_every = sim::minutes(20);
  probe.invariants = &registry;
  const std::string probe_path = tmp_path("graph-caps-probe.journal");
  const auto probed = scenario::record_run(probe, probe_path);
  ASSERT_TRUE(probed.has_value()) << probed.error();
  EXPECT_TRUE(probed.value().violations.empty())
      << probed.value().violations.front().render();
  bool nodes_before = false, nodes_after = false, edges_before = false, edges_after = false;
  for (const auto& [at, stats] : checkpoint_graph_stats(probe_path)) {
    const bool full_nodes = stats.nodes_created - stats.nodes_evicted == max_nodes;
    const bool full_edges = stats.edges_created - stats.edges_evicted == max_edges;
    (at <= sim::hours(4) ? nodes_before : nodes_after) |= full_nodes;
    (at <= sim::hours(4) ? edges_before : edges_after) |= full_edges;
  }
  EXPECT_TRUE(nodes_before);
  EXPECT_TRUE(nodes_after);
  EXPECT_TRUE(edges_before);
  EXPECT_TRUE(edges_after);
}

TEST(GraphScenario, GraphOffKeepsHistoricalArtifactShape) {
  auto config = graph_config(55);
  config.graph.enabled = false;
  const auto off = scenario::record_run(config, tmp_path("graph-off.journal"));
  ASSERT_TRUE(off.has_value()) << off.error();
  // No component column, no component section: the pre-graph artifact shape.
  EXPECT_EQ(off.value().weblog_csv.find("component_id"), std::string::npos);
  EXPECT_EQ(off.value().soc_report.find("suspicious components"), std::string::npos);
}

}  // namespace
}  // namespace fraudsim
