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
//     legitimate traffic, and its vectorized score_batch is byte-identical
//     to the scalar adapter;
//   * with the graph enabled end-to-end, record -> replay -> resume stays
//     byte-identical, and with it disabled the artifacts keep the historical
//     shape (no component_id column).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "core/detect/detector.hpp"
#include "core/detect/graph/entity_graph.hpp"
#include "core/detect/graph/graph_detector.hpp"
#include "core/invariant/invariant.hpp"
#include "core/journal/journal.hpp"
#include "core/scenario/env.hpp"
#include "core/scenario/replay_harness.hpp"
#include "sim/rng.hpp"
#include "util/archive.hpp"

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

TEST(EntityGraph, CapsAndConservationHoldUnderChurn) {
  GraphConfig config;
  config.max_nodes = 32;
  config.max_edges = 48;
  config.node_ttl = sim::hours(2);
  config.edge_ttl = sim::hours(1);
  config.maintenance_every = sim::minutes(10);
  EntityGraph graph(config);

  sim::Rng rng(4242);
  sim::SimTime now = 0;
  for (int i = 0; i < 2000; ++i) {
    now += sim::seconds(30);
    if (!graph.begin_event(now)) continue;
    const auto s = graph.touch(now, NodeType::Session,
                               "s-" + std::to_string(rng.uniform_int(0, 199)));
    const auto fp = graph.touch(now, NodeType::Fingerprint,
                                "fp-" + std::to_string(rng.uniform_int(0, 49)));
    const auto ip =
        graph.touch(now, NodeType::Ip, "ip-" + std::to_string(rng.uniform_int(0, 99)));
    graph.connect(now, s, fp);
    graph.connect(now, s, ip);

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

TEST(GraphDetector, BatchedScoringMatchesScalarAdapterByteForByte) {
  EntityGraph graph;
  std::vector<web::Session> sessions;
  build_ring_world(graph, sessions);

  scenario::EnvConfig env_config;
  env_config.seed = 7;
  scenario::Env env(env_config);
  std::vector<detect::RequestView> views;
  for (int epoch = 0; epoch < 3; ++epoch) {
    views.push_back(detect::RequestView{env.app, sim::hours(epoch), sim::hours(epoch + 1),
                                        sessions, sessions, 1});
  }

  GraphDetector scalar(graph);
  GraphDetector batched(graph);
  detect::AlertSink scalar_sink;
  detect::AlertSink batched_sink;
  std::vector<detect::BatchScore> scalar_scores(views.size());
  std::vector<detect::BatchScore> batched_scores(views.size());
  scalar.Detector::score_batch(views, scalar_scores, scalar_sink);  // base adapter
  batched.score_batch(views, batched_scores, batched_sink);

  EXPECT_GT(batched_sink.count(), 0u);
  EXPECT_EQ(render_alerts(batched_sink.alerts()), render_alerts(scalar_sink.alerts()));
  for (std::size_t i = 0; i < views.size(); ++i) {
    EXPECT_EQ(batched_scores[i].sessions_scored, scalar_scores[i].sessions_scored);
    EXPECT_EQ(batched_scores[i].alerts, scalar_scores[i].alerts);
  }
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
