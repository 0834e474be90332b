// RING: organized-abuse rings vs. per-entity detection (§IV-B / PAPERS.md,
// Grab's graph-based fraud detection).
//
// The campaign the paper's arms race converges on: N coordinated accounts,
// each individually under every per-entity threshold — small parties,
// plausible identities, paced requests, no automation artifacts — but
// economically forced to share a small pool of spoofed fingerprints,
// residential exits and tokenized cards. The per-entity detector matrix sees
// N quiet members; the entity graph (core/detect/graph) links the shared
// infrastructure into one component and the amplification rule flags the
// aggregate no member crossed.
//
// Shape gates (default mode), per base seed {101, 202, 303}:
//   * graph.ring catches >= 80% of ring members;
//   * every OTHER detector family flags ZERO ring members (the ring is
//     invisible per-entity by construction);
//   * the graph stays inside its configured bounds.
//
// `exp_ring_detection --gate [--out PATH] [--smoke]` measures the inline cost
// of the subsystem instead and writes BENCH_detect_graph.json (judged against
// the committed baseline by bench/perf_compare):
//   ns_graph_ingest_per_event   wall ns per admit-path tap event (touch +
//                               edges + EWMA) on a steady-state graph
//   ns_graph_ingest_churn_per_event
//                               the same, on a stream whose sessions go idle
//                               and expire: TTL eviction passes included
//   ns_graph_ingest_capped_per_event
//                               the same, on a full graph at the default caps
//                               under an identity-rotation flood: the slowest
//                               of a node-cap and an edge-cap flood, each
//                               spaced out and in same-millisecond bursts
//   ns_graph_score_per_session  wall ns per session to score components and
//                               resolve membership, partition rebuilt dirty
//   ring_catch_rate / ...       informational: the headline detection numbers
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "attack/ring_orchestrator.hpp"
#include "core/bench/options.hpp"
#include "core/detect/graph/entity_graph.hpp"
#include "core/detect/graph/graph_detector.hpp"
#include "core/detect/graph/graph_ingest.hpp"
#include "core/detect/pipeline.hpp"
#include "core/scenario/env.hpp"
#include "fingerprint/population.hpp"
#include "util/format.hpp"
#include "util/table.hpp"

using namespace fraudsim;

namespace {

// ---------------------------------------------------------------------------
// Shape mode: the ring scenario, per seed.

struct SeedResult {
  std::size_t members = 0;
  std::size_t caught_by_graph = 0;   // members with >= 1 graph.ring alert
  std::size_t caught_by_others = 0;  // members flagged by any OTHER family
  double catch_rate = 0.0;
  std::size_t ring_alerts = 0;
  std::size_t flagged_components = 0;
  std::size_t nodes = 0;
  std::size_t edges = 0;
  std::size_t max_nodes = 0;
  std::size_t max_edges = 0;
  std::set<std::string> other_families;  // non-graph detectors that fired on members
  attack::RingStats ring;
};

SeedResult run_ring(std::uint64_t seed, bool smoke) {
  const sim::SimTime start = sim::hours(2);  // clean window for baselines
  const sim::SimTime horizon = smoke ? sim::hours(5) : sim::hours(10);

  scenario::EnvConfig env_config;
  env_config.seed = seed;
  env_config.legit.booking_sessions_per_hour = 40;
  env_config.legit.browse_sessions_per_hour = 30;
  env_config.legit.otp_logins_per_hour = 5;
  scenario::Env env(env_config);
  env.add_flights("R",
                  scenario::Env::fleet_size_for(env_config.legit.booking_sessions_per_hour,
                                                horizon, 150),
                  150, sim::days(10));

  // The inline subsystem under test: tap the admit path into the graph.
  detect::graph::EntityGraph graph;
  detect::graph::GraphIngest ingest(graph);
  env.app.set_tap(&ingest);

  attack::RingConfig ring_config;
  ring_config.start = start;
  attack::RingOrchestrator ring(env.app, env.actors, env.residential, env.population,
                                ring_config, env.rng.fork("ring"));

  env.start_background(horizon);
  ring.start(horizon);
  env.run_until(horizon);

  // The full detector matrix, every family armed, plus the graph detector.
  detect::DetectionPipeline pipeline;
  pipeline.fit_nip_baseline(env.app, 0, start);
  pipeline.fit_navigation(env.app, 0, start);
  pipeline.enable_ip_reputation(env.geo);
  pipeline.enable_graph(graph);
  const auto result = pipeline.run(env.app, env.actors, start, horizon);

  const std::set<web::ActorId> member_ids(ring.members().begin(), ring.members().end());
  std::set<web::ActorId> by_graph;
  std::set<web::ActorId> by_others;
  SeedResult out;
  for (const auto& alert : result.alerts.alerts()) {
    if (!alert.actor.has_value() || member_ids.count(*alert.actor) == 0) continue;
    if (alert.detector == "graph.ring") {
      ++out.ring_alerts;
      by_graph.insert(*alert.actor);
    } else {
      by_others.insert(*alert.actor);
      out.other_families.insert(alert.detector);
      if (std::getenv("RING_DEBUG") != nullptr && alert.session.has_value()) {
        for (const auto& s : result.sessions) {
          if (s.id != *alert.session) continue;
          std::string path;
          for (const auto& r : s.requests) path += std::string(web::endpoint_path(r.endpoint)) + " ";
          std::cout << "DEBUG " << alert.detector << " session " << s.id.str() << ": " << path
                    << "| " << alert.explanation << "\n";
        }
      }
    }
  }
  out.members = member_ids.size();
  out.caught_by_graph = by_graph.size();
  out.caught_by_others = by_others.size();
  out.catch_rate = out.members == 0
                       ? 0.0
                       : static_cast<double>(out.caught_by_graph) / static_cast<double>(out.members);

  const detect::graph::GraphDetector scorer(graph, pipeline.config().graph);
  for (const auto& verdict : scorer.scored_components(horizon)) {
    if (verdict.flagged) ++out.flagged_components;
  }
  out.nodes = graph.node_count();
  out.edges = graph.edge_count();
  out.max_nodes = graph.config().max_nodes;
  out.max_edges = graph.config().max_edges;
  out.ring = ring.stats();
  return out;
}

int run_shape(bool smoke) {
  const std::vector<std::uint64_t> seeds =
      smoke ? std::vector<std::uint64_t>{101} : std::vector<std::uint64_t>{101, 202, 303};
  std::cout << "Running the organized-ring campaign on " << seeds.size() << " seed(s) ("
            << (smoke ? 5 : 10) << " h each)...\n";
  std::vector<SeedResult> results;
  for (const auto seed : seeds) {
    results.push_back(run_ring(seed, smoke));
    std::cout << "  done: seed " << seed << "\n";
  }

  util::AsciiTable table({"Seed", "ring members", "caught (graph.ring)", "caught (others)",
                          "flagged comps", "graph nodes/edges"});
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    const SeedResult& r = results[i];
    table.add_row({std::to_string(seeds[i]), std::to_string(r.members),
                   std::to_string(r.caught_by_graph) + " (" +
                       util::format_percent(r.catch_rate, 0) + ")",
                   std::to_string(r.caught_by_others), std::to_string(r.flagged_components),
                   std::to_string(r.nodes) + "/" + std::to_string(r.edges)});
  }
  std::cout << "\n=== RING: entity-graph vs per-entity detection ===\n" << table.render() << "\n";

  bool ok = true;
  auto expect = [&ok](bool cond, const std::string& what) {
    if (!cond) {
      std::cout << "SHAPE VIOLATION: " << what << "\n";
      ok = false;
    }
  };
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    const SeedResult& r = results[i];
    const std::string tag = "seed " + std::to_string(seeds[i]) + ": ";
    expect(r.ring.requests > 0 && r.ring.holds_ok > 0, tag + "the ring actually operated");
    expect(r.catch_rate >= 0.8, tag + "graph.ring catches >= 80% of ring members");
    expect(r.flagged_components >= 1, tag + "at least one component crosses the bands");
    std::string families;
    for (const auto& f : r.other_families) families += " " + f;
    expect(r.caught_by_others == 0,
           tag + "no per-entity family flags a single ring member (invisible by construction);"
                 " fired:" + families);
    expect(r.nodes <= r.max_nodes && r.edges <= r.max_edges,
           tag + "the graph stays inside its configured bounds");
  }
  std::cout << (ok ? "RING SHAPE: OK\n" : "RING SHAPE: FAILED\n");
  return ok ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Gate mode: inline cost of the subsystem, pinned in BENCH_detect_graph.json.

using GateClock = std::chrono::steady_clock;

double elapsed_ns(GateClock::time_point from, GateClock::time_point to) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(to - from).count());
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n == 0) return 0.0;
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double median_of(int reps, const std::function<double()>& sample) {
  std::vector<double> runs;
  runs.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) runs.push_back(sample());
  return median(std::move(runs));
}

// Churn variant of the stream below: a 2 h TTL swept every 10 minutes.
// Sessions go idle after two events, so the graph holds ~3.6k sessions and
// ~17k edges and every pass retires ~300 sessions — the shape of soc_day's
// graph (~16k edges, ~230 evictions per pass).
detect::graph::GraphConfig churn_config() {
  detect::graph::GraphConfig config;
  config.node_ttl = sim::hours(2);
  config.edge_ttl = sim::hours(2);
  config.maintenance_every = sim::minutes(10);
  return config;
}

// Deterministic synthetic admit stream straight into the tap: 4096 sessions,
// 256 fingerprints and 1024 exit IPs cycling at one event per simulated
// second, an occasional payment token — every key stays inside the TTL so the
// measurement sees the steady-state graph (hash + intern + edge upsert +
// EWMA), with maintenance passes amortized in. With `churn`, sessions never
// recur instead and expire under churn_config(), so eviction is measured too.
struct SynthDriver {
  detect::graph::EntityGraph graph;
  detect::graph::GraphIngest ingest{graph};
  app::ClientContext ctx;
  std::vector<fp::Fingerprint> fingerprints;
  sim::SimTime t = 0;
  std::size_t seq = 0;
  bool churn = false;

  explicit SynthDriver(bool churn_sessions = false)
      : graph(churn_sessions ? churn_config() : detect::graph::GraphConfig{}),
        churn(churn_sessions) {
    fp::PopulationModel population;
    sim::Rng rng(9);
    fingerprints.reserve(256);
    for (int i = 0; i < 256; ++i) fingerprints.push_back(population.sample(rng));
  }

  void drive(std::size_t events) {
    for (std::size_t i = 0; i < events; ++i, ++seq) {
      t += sim::seconds(1);
      ctx.session = web::SessionId{1 + (churn ? seq / 2 : seq % 4096)};
      ctx.fingerprint = fingerprints[seq % fingerprints.size()];
      ctx.ip = net::IpV4{0x20000000u + static_cast<std::uint32_t>(seq % 1024)};
      ctx.payment_token =
          seq % 8 == 0 ? "tok-" + std::to_string(seq % 64) : std::string();
      ingest.on_browse(t, ctx, web::Endpoint::SearchFlights, web::HttpMethod::Get,
                       app::CallStatus::Ok);
    }
  }
};

double measure_ns_ingest(std::size_t warmup, std::size_t events, bool churn) {
  SynthDriver driver(churn);
  driver.drive(warmup);  // fault the node/edge stores in (churn: fill the TTL window)
  const auto t0 = GateClock::now();
  driver.drive(events);
  const auto t1 = GateClock::now();
  return elapsed_ns(t0, t1) / static_cast<double>(events);
}

// Identity-rotation floods at the default caps, `burst` tap events per sim
// timestamp and 100 ms between timestamps, so nothing reaches its TTL.
// Node-cap flood: every event brings a fresh session and fingerprint through
// one of 5,000 pooled exits. Edge-cap flood: each fresh session and
// fingerprint sends ten events through ten of the pooled exits, so the edge
// cap fills first. A burst puts hundreds of entities in one timestamp, where
// age order falls back to ids and keys. Returns the wall ns per event once
// the cap binds; `uncapped_ns` gets the same while the graph fills.
double measure_ns_flood(bool edge_flood, std::size_t burst, std::size_t events,
                        double* uncapped_ns) {
  detect::graph::EntityGraph graph;
  detect::graph::GraphIngest ingest(graph);
  app::ClientContext ctx;
  sim::SimTime t = 0;
  std::size_t seq = 0;
  const auto event = [&] {
    const std::size_t identity = edge_flood ? seq / 10 : seq;
    ctx.session = web::SessionId{1 + identity};
    ctx.fingerprint.canvas_hash = identity;
    ctx.ip = net::IpV4{0x30000000u + static_cast<std::uint32_t>(seq % 5000)};
    ingest.on_browse(t, ctx, web::Endpoint::SearchFlights, web::HttpMethod::Get,
                     app::CallStatus::Ok);
    ++seq;
    if (seq % burst == 0) t += sim::seconds(0.1);
  };
  const auto full = [&] {
    return edge_flood ? graph.edge_count() == graph.config().max_edges
                      : graph.node_count() == graph.config().max_nodes;
  };
  const auto t0 = GateClock::now();
  while (!full()) event();
  const auto t1 = GateClock::now();
  *uncapped_ns = elapsed_ns(t0, t1) / static_cast<double>(seq);
  const auto t2 = GateClock::now();
  for (std::size_t i = 0; i < events; ++i) event();
  const auto t3 = GateClock::now();
  return elapsed_ns(t2, t3) / static_cast<double>(events);
}

// Scoring cost per session with the partition deliberately dirtied each rep:
// one scored_components pass (the union-find rebuild every graph change
// forces) plus a find + component_of membership lookup per live session —
// the exact read path GraphDetector::evaluate takes.
double measure_ns_score(SynthDriver& driver, std::size_t* rep_counter) {
  const detect::graph::GraphDetector detector(driver.graph, {});
  const std::size_t sessions = 4096;
  driver.graph.touch(driver.t, detect::graph::NodeType::Session,
                     "score-rep-" + std::to_string((*rep_counter)++));
  const auto t0 = GateClock::now();
  const auto verdicts = detector.scored_components(driver.t);
  std::uint64_t sink = verdicts.size();
  for (std::size_t s = 0; s < sessions; ++s) {
    const auto id =
        driver.graph.find(detect::graph::NodeType::Session, web::SessionId{1 + s}.str());
    sink += driver.graph.component_of(id);
  }
  const auto t1 = GateClock::now();
  volatile std::uint64_t keep = sink;
  (void)keep;
  return elapsed_ns(t0, t1) / static_cast<double>(sessions);
}

int run_gate(const bench::Options& options) {
  const bool smoke = options.smoke;
  const int reps = smoke ? 3 : 5;
  const std::size_t events = smoke ? 50'000 : 400'000;
  std::vector<std::pair<std::string, double>> metrics;

  std::cerr << "[gate] inline ingest cost...\n";
  metrics.emplace_back("ns_graph_ingest_per_event", median_of(reps, [&] {
                         return measure_ns_ingest(events / 4, events, false);
                       }));

  std::cerr << "[gate] inline ingest cost under TTL churn...\n";
  const std::size_t churn_events = smoke ? 10'000 : 40'000;
  metrics.emplace_back("ns_graph_ingest_churn_per_event", median_of(reps, [&] {
                         return measure_ns_ingest(10'000, churn_events, true);
                       }));

  std::cerr << "[gate] inline ingest cost at the caps under identity floods...\n";
  const std::size_t flood_events = smoke ? 5'000 : 40'000;
  double capped = 0.0;
  for (const bool edge_flood : {false, true}) {
    for (const std::size_t burst : {1, 500}) {
      std::vector<double> uncapped(static_cast<std::size_t>(reps));
      std::size_t rep = 0;
      const double at_cap = median_of(reps, [&] {
        return measure_ns_flood(edge_flood, burst, flood_events, &uncapped[rep++]);
      });
      std::cerr << "  " << (edge_flood ? "edge" : "node") << "-cap flood, " << burst
                << " per timestamp: " << util::format_general(at_cap, 4)
                << " ns/event at the cap, " << util::format_general(median(uncapped), 4)
                << " while filling\n";
      capped = std::max(capped, at_cap);
    }
  }
  metrics.emplace_back("ns_graph_ingest_capped_per_event", capped);

  std::cerr << "[gate] component scoring cost...\n";
  SynthDriver scored;
  scored.drive(events);
  std::size_t rep_counter = 0;
  metrics.emplace_back("ns_graph_score_per_session", median_of(reps, [&] {
                         return measure_ns_score(scored, &rep_counter);
                       }));

  std::cerr << "[gate] ring scenario (informational)...\n";
  const SeedResult ring = run_ring(101, smoke);
  metrics.emplace_back("ring_catch_rate", ring.catch_rate);
  metrics.emplace_back("ring_other_family_flags", static_cast<double>(ring.caught_by_others));
  metrics.emplace_back("graph_nodes", static_cast<double>(ring.nodes));
  metrics.emplace_back("graph_edges", static_cast<double>(ring.edges));

  const std::string path = options.out_dir.empty() ? "BENCH_detect_graph.json" : options.out_dir;
  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot open " << path << " for writing\n";
    return 1;
  }
  out << "{\n  \"schema\": \"fraudsim.bench.detect_graph.v1\",\n  \"metrics\": {\n";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << "    \"" << metrics[i].first << "\": " << util::format_general(metrics[i].second, 6)
        << (i + 1 < metrics.size() ? ",\n" : "\n");
  }
  out << "  },\n  \"meta\": {\n    \"smoke\": " << (smoke ? 1 : 0) << ",\n    \"reps\": " << reps
      << ",\n    \"ingest_events\": " << events << ",\n    \"churn_events\": " << churn_events
      << ",\n    \"flood_events\": " << flood_events << "\n  }\n}\n";
  out.close();

  std::cout << "graph perf gate written to " << path << "\n";
  for (const auto& [name, value] : metrics) {
    std::printf("  %-28s %14.4f\n", name.c_str(), value);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Options options = bench::Options::parse(argc, argv);
  const bool gate = std::find(options.positional.begin(), options.positional.end(), "--gate") !=
                    options.positional.end();
  if (gate) return run_gate(options);
  return run_shape(options.smoke);
}
