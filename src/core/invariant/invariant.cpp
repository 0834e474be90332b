#include "core/invariant/invariant.hpp"

#include <algorithm>
#include <map>
#include <sstream>
#include <utility>

#include "app/application.hpp"
#include "core/detect/graph/entity_graph.hpp"
#include "core/mitigate/rules.hpp"
#include "sim/sharded_simulation.hpp"

namespace fraudsim::invariant {

std::string Violation::render() const {
  return "[" + sim::format_time(time) + "] " + invariant + ": " + detail;
}

void InvariantRegistry::add(std::string name, Check check) {
  checks_.push_back(Named{std::move(name), std::move(check)});
}

std::size_t InvariantRegistry::check_all(sim::SimTime now) {
  std::size_t failed = 0;
  for (auto& named : checks_) {
    ++checks_run_;
    if (auto detail = named.check(now)) {
      violations_.push_back(Violation{named.name, std::move(*detail), now});
      ++failed;
    }
  }
  return failed;
}

std::string InvariantRegistry::render_report() const {
  if (violations_.empty()) {
    return "all invariants held (" + std::to_string(checks_run_) + " checks, " +
           std::to_string(checks_.size()) + " conditions)\n";
  }
  std::ostringstream out;
  out << violations_.size() << " invariant violation(s):\n";
  for (const auto& v : violations_) out << "  " << v.render() << "\n";
  return out.str();
}

namespace {

// Recomputes one inventory's per-flight seat usage from the reservation log
// and cross-checks the incrementally-maintained counters plus the capacity
// bound. `label` distinguishes the real inventory from the honeypot decoy.
std::optional<std::string> check_seats(const airline::InventoryManager& inventory,
                                       const char* label) {
  std::map<airline::FlightId, std::pair<int, int>> recomputed;  // flight -> (held, sold)
  for (const auto& r : inventory.reservations()) {
    if (r.state == airline::ReservationState::Held) {
      recomputed[r.flight].first += r.nip();
    } else if (r.state == airline::ReservationState::Ticketed) {
      recomputed[r.flight].second += r.nip();
    }
  }
  for (const airline::FlightId id : inventory.flights()) {
    const airline::Flight* f = inventory.flight(id);
    const auto [held, sold] = recomputed[id];
    const int counter_held = inventory.held_seats(id);
    const int counter_sold = inventory.sold_seats(id);
    if (held != counter_held || sold != counter_sold) {
      return std::string(label) + " flight " + std::to_string(id.value()) +
             ": counters (held=" + std::to_string(counter_held) +
             ", sold=" + std::to_string(counter_sold) + ") diverge from reservation log (held=" +
             std::to_string(held) + ", sold=" + std::to_string(sold) + ")";
    }
    if (held < 0 || sold < 0) {
      return std::string(label) + " flight " + std::to_string(id.value()) +
             ": negative seat count (held=" + std::to_string(held) +
             ", sold=" + std::to_string(sold) + ")";
    }
    if (held + sold > f->capacity) {
      return std::string(label) + " flight " + std::to_string(id.value()) + ": oversold — held " +
             std::to_string(held) + " + sold " + std::to_string(sold) + " > capacity " +
             std::to_string(f->capacity);
    }
  }
  return std::nullopt;
}

std::optional<std::string> check_zombies(const airline::InventoryManager& inventory,
                                         const char* label, sim::SimTime now,
                                         sim::SimDuration slack) {
  for (const auto& r : inventory.reservations()) {
    if (r.state != airline::ReservationState::Held) continue;
    if (r.hold_expiry + slack <= now) {
      return std::string(label) + " PNR " + r.pnr + " (flight " + std::to_string(r.flight.value()) +
             ", " + std::to_string(r.nip()) + " seats) still Held " +
             sim::format_time(now - r.hold_expiry) + " past its TTL";
    }
  }
  return std::nullopt;
}

}  // namespace

void register_platform_invariants(InvariantRegistry& registry, const app::Application& app,
                                  const mitigate::RuleEngine* rules,
                                  PlatformInvariantOptions options) {
  // Seat conservation: booked + held never exceed capacity and the O(1)
  // counters never drift from the reservation log — on the real inventory
  // and, with honeypots on, the decoy (a decoy oversell would leak the
  // deception to a probing attacker).
  registry.add("seat-conservation", [&app](sim::SimTime) -> std::optional<std::string> {
    if (auto v = check_seats(app.inventory(), "inventory")) return v;
    if (app.honeypot_enabled()) {
      if (auto v = check_seats(app.decoy_inventory(), "decoy")) return v;
    }
    return std::nullopt;
  });

  // Hold-TTL expiry: a lapsed hold must be released within a couple of sweep
  // periods — zombie holds are exactly the seat-spinning denial the paper's
  // §IV-A mitigation (hold TTLs) exists to bound.
  const sim::SimDuration slack = options.zombie_hold_slack;
  registry.add("no-zombie-holds", [&app, slack](sim::SimTime now) -> std::optional<std::string> {
    if (auto v = check_zombies(app.inventory(), "inventory", now, slack)) return v;
    if (app.honeypot_enabled()) {
      if (auto v = check_zombies(app.decoy_inventory(), "decoy", now, slack)) return v;
    }
    return std::nullopt;
  });

  // SMS rolling-day quota: the contract is never exceeded, and within one sim
  // day the window only moves forward (a backwards step means the quota
  // ledger lost submissions — free sends for a pumping ring).
  registry.add("sms-quota",
               [&app, last = std::pair<std::int64_t, std::uint64_t>{-1, 0}](
                   sim::SimTime) mutable -> std::optional<std::string> {
                 const auto& gw = app.sms_gateway();
                 const std::uint64_t quota = gw.quota_used();
                 const std::int64_t day = gw.quota_day();
                 if (day < last.first) {
                   return "quota day ran backwards: " + std::to_string(day) + " after " +
                          std::to_string(last.first);
                 }
                 if (day == last.first && quota < last.second) {
                   return "quota window ran backwards on day " + std::to_string(day) + ": " +
                          std::to_string(quota) + " after " + std::to_string(last.second);
                 }
                 last = {day, quota};
                 return std::nullopt;
               });
  registry.add("sms-quota-bound", [&app](sim::SimTime) -> std::optional<std::string> {
    const auto& gw = app.sms_gateway();
    const std::uint64_t contract = gw.config().daily_quota;
    // Each submission increments the window only after the quota gate passes,
    // so used == contract is reachable but used > contract means the gate was
    // bypassed — free deliveries for a pumping ring.
    if (contract != 0 && gw.quota_used() > contract) {
      return "rolling-day window charged " + std::to_string(gw.quota_used()) +
             " submissions against a contract of " + std::to_string(contract);
    }
    if (gw.quota_used() > gw.carrier_attempts()) {
      return "quota window counts " + std::to_string(gw.quota_used()) +
             " submissions but only " + std::to_string(gw.carrier_attempts()) +
             " carrier attempts were ever made";
    }
    return std::nullopt;
  });

  // Rate-limiter bounds: no key may hold more in-window events than the
  // configured limit — allow() records only within-limit events and brownout
  // only tightens effective limits, so an excess means the window ledger
  // itself is corrupt.
  if (rules != nullptr) {
    registry.add("rate-limiter-bounds", [rules](sim::SimTime now) -> std::optional<std::string> {
      std::optional<std::string> violation;
      rules->for_each_limiter(
          [&](const mitigate::RateLimitSpec& spec, const mitigate::SlidingWindowRateLimiter& l) {
            if (violation) return;
            const std::uint64_t max = l.max_in_window(now);
            if (max > spec.limit) {
              violation = "limiter '" + spec.name + "': a key holds " + std::to_string(max) +
                          " events in-window, limit " + std::to_string(spec.limit);
            }
          });
      return violation;
    });
  }

  // Admission conservation: every request lands in exactly one outcome
  // bucket. App-level: terminal outcomes never exceed requests and deadline
  // misses are a subset of sheds. Overload-level: per class, offered ==
  // admitted + shed_queue + shed_fail_fast + deadline_missed.
  registry.add("admission-conservation", [&app](sim::SimTime) -> std::optional<std::string> {
    const auto s = app.stats();
    const std::uint64_t terminal =
        s.blocked + s.challenged + s.rate_limited + s.honeypotted + s.shed;
    if (terminal > s.requests) {
      return "terminal outcomes (" + std::to_string(terminal) + ") exceed requests (" +
             std::to_string(s.requests) + ")";
    }
    if (s.deadline_missed > s.shed) {
      return "deadline_missed (" + std::to_string(s.deadline_missed) + ") exceeds shed (" +
             std::to_string(s.shed) + ")";
    }
    if (app.overload().enabled()) {
      for (std::size_t i = 0; i < overload::kRequestClasses; ++i) {
        const auto cls = static_cast<overload::RequestClass>(i);
        const auto c = app.overload().stats(cls);
        const std::uint64_t accounted =
            c.admitted + c.shed_queue + c.shed_fail_fast + c.deadline_missed;
        if (accounted != c.offered) {
          return std::string("class ") + overload::to_string(cls) + ": offered " +
                 std::to_string(c.offered) + " != admitted " + std::to_string(c.admitted) +
                 " + shed_queue " + std::to_string(c.shed_queue) + " + shed_fail_fast " +
                 std::to_string(c.shed_fail_fast) + " + deadline_missed " +
                 std::to_string(c.deadline_missed);
        }
      }
    }
    return std::nullopt;
  });

  // Weblog conservation: exactly one log line per request the facade
  // admitted — server telemetry that silently drops (or duplicates) lines is
  // how abuse hides from every log-driven detector downstream.
  registry.add("weblog-conservation", [&app](sim::SimTime) -> std::optional<std::string> {
    const std::uint64_t logged = app.weblog().size();
    const std::uint64_t requests = app.stats().requests;
    if (logged != requests) {
      return "weblog has " + std::to_string(logged) + " lines for " + std::to_string(requests) +
             " admitted requests";
    }
    return std::nullopt;
  });

  // Detection-batch conservation: every session-view a pipeline run offered
  // to a detector family was either scored or recorded as skipped — a run
  // cannot silently drop (or double-count) work. Vacuously true while no
  // metrics-bound pipeline has run.
  registry.add("detect-batch-conservation", [&app](sim::SimTime) -> std::optional<std::string> {
    const auto& metrics = app.metrics();
    const std::uint64_t in = metrics.counter_value("detect.batch.sessions_in");
    const std::uint64_t scored = metrics.counter_value("detect.batch.sessions_scored");
    const std::uint64_t skipped = metrics.counter_value("detect.batch.sessions_skipped");
    if (in != scored + skipped) {
      return "detect.batch.sessions_in (" + std::to_string(in) +
             ") != sessions_scored (" + std::to_string(scored) + ") + sessions_skipped (" +
             std::to_string(skipped) + ")";
    }
    return std::nullopt;
  });
}

void register_graph_invariants(InvariantRegistry& registry,
                               const detect::graph::EntityGraph& graph,
                               const app::Application* app) {
  // Memory bounds: the caps are enforced at insert time, so exceeding one
  // means eviction is broken — the graph would grow without bound in
  // production.
  registry.add("graph-bounds", [&graph](sim::SimTime) -> std::optional<std::string> {
    const auto& config = graph.config();
    if (graph.node_count() > config.max_nodes) {
      return "live nodes (" + std::to_string(graph.node_count()) + ") exceed max_nodes (" +
             std::to_string(config.max_nodes) + ")";
    }
    if (graph.edge_count() > config.max_edges) {
      return "live edges (" + std::to_string(graph.edge_count()) + ") exceed max_edges (" +
             std::to_string(config.max_edges) + ")";
    }
    if (const std::size_t biggest = graph.max_component_size(); biggest > config.component_cap) {
      return "a component holds " + std::to_string(biggest) + " nodes, component_cap " +
             std::to_string(config.component_cap);
    }
    return std::nullopt;
  });

  // Conservation: live counts must equal created - evicted, for nodes and for
  // edges — a leak (or a double free) in eviction shows up here long before
  // it corrupts a checkpoint.
  registry.add("graph-conservation", [&graph](sim::SimTime) -> std::optional<std::string> {
    const auto& s = graph.stats();
    if (graph.node_count() != s.nodes_created - s.nodes_evicted) {
      return "live nodes (" + std::to_string(graph.node_count()) + ") != created (" +
             std::to_string(s.nodes_created) + ") - evicted (" +
             std::to_string(s.nodes_evicted) + ")";
    }
    if (graph.edge_count() != s.edges_created - s.edges_evicted) {
      return "live edges (" + std::to_string(graph.edge_count()) + ") != created (" +
             std::to_string(s.edges_created) + ") - evicted (" +
             std::to_string(s.edges_evicted) + ")";
    }
    return std::nullopt;
  });

  // Intern alignment: every live node id round-trips through the intern
  // table. A restored graph whose id assignment drifted would break this for
  // the first key interned after the restore.
  registry.add("graph-intern-alignment", [&graph](sim::SimTime) -> std::optional<std::string> {
    const auto& intern = graph.interner();
    if (intern.size() != graph.node_count()) {
      return "intern table holds " + std::to_string(intern.size()) + " keys for " +
             std::to_string(graph.node_count()) + " live nodes";
    }
    for (std::uint32_t id = 1; id <= intern.capacity(); ++id) {
      if (!intern.contains(id)) continue;
      if (intern.find(intern.str(id)) != id) {
        return "intern id " + std::to_string(id) + " does not round-trip through its key";
      }
      if (!graph.alive(id)) {
        return "intern id " + std::to_string(id) + " is live in the table but has no node";
      }
    }
    return std::nullopt;
  });

  // Event reconciliation (tap attached from the run's first request): every
  // facade call the application admitted was offered to the graph exactly
  // once — drops beyond the injected "graph.ingest" outages mean the tap
  // missed traffic the detectors downstream assume it saw.
  if (app != nullptr) {
    registry.add("graph-event-reconciliation",
                 [&graph, app](sim::SimTime) -> std::optional<std::string> {
                   const std::uint64_t seen = graph.stats().events_seen;
                   const std::uint64_t requests = app->stats().requests;
                   if (seen != requests) {
                     return "graph saw " + std::to_string(seen) + " events for " +
                            std::to_string(requests) + " application requests";
                   }
                   return std::nullopt;
                 });
  }
}

void register_shard_invariants(InvariantRegistry& registry,
                               const sim::ShardedSimulation& engine) {
  // Conservation: every message a shard queued was either delivered at a
  // barrier or is still waiting in an outbox — nothing lost (sent exceeds
  // the rest) and nothing duplicated (delivered exceeds sent). An injected
  // shard.exchange fault only charges retries, so this must hold through
  // chaos campaigns too.
  registry.add("shard-conservation", [&engine](sim::SimTime) -> std::optional<std::string> {
    const std::uint64_t sent = engine.messages_sent();
    const std::uint64_t delivered = engine.messages_delivered();
    const std::uint64_t in_flight = engine.messages_in_flight();
    if (sent != delivered + in_flight) {
      return "messages sent (" + std::to_string(sent) + ") != delivered (" +
             std::to_string(delivered) + ") + in-flight (" + std::to_string(in_flight) + ")" +
             (delivered + in_flight > sent ? " — duplicated" : " — lost");
    }
    return std::nullopt;
  });
  // Barrier alignment: when a check runs (always at a barrier), every shard
  // clock must sit exactly at that barrier — a shard ahead raced past an
  // epoch boundary, a shard behind stalled mid-epoch.
  registry.add("shard-clock-alignment",
               [&engine](sim::SimTime now) -> std::optional<std::string> {
                 for (std::uint32_t k = 0; k < engine.shards(); ++k) {
                   const sim::SimTime at = engine.shard(k).now();
                   if (at != now) {
                     return "shard " + std::to_string(k) + " clock at " + std::to_string(at) +
                            ", barrier at " + std::to_string(now);
                   }
                 }
                 return std::nullopt;
               });
}

}  // namespace fraudsim::invariant
