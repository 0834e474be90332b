// Intra-run sharded simulation: K shard-local event loops advancing in
// lock-step epochs, exchanging cross-shard interactions as typed messages at
// deterministic barriers.
//
// The determinism recipe is the fleet's (per-slot results + fixed reduction
// order), applied inside a single run:
//
//   * Partition. Actors are assigned to shards by stable hash of their key
//     (shard_of), inventory by ownership; each shard owns a private
//     Simulation (clock + event queue) and whatever workload state lives on
//     it. Between barriers a shard NEVER touches another shard's state.
//   * Epochs. run_until(end) advances all shards through epochs
//     [T_{e-1}, T_e): each shard drains its own events with time < T_e
//     (Simulation::run_before). Shards are mutually independent within an
//     epoch, so any number of worker threads — and any interleaving — yields
//     the same per-shard byte stream.
//   * Barriers. At T_e the main thread swaps every message queued during the
//     epoch into per-destination staging boxes; each destination then
//     receives its messages source-minor, FIFO within each (src, dst) stream.
//     Destinations are independent, so they are delivered in parallel, and
//     the global drain order — destination-major, source-minor, FIFO — is
//     what one thread delivering them one after another would see. The main
//     thread then runs the registered barrier hooks (graph merges, invariant
//     sweeps, checkpoints). Handlers run with every shard clock parked at
//     exactly T_e; anything they schedule fires in the next epoch.
//
// With K=1 the single outbox drains in send order — precisely the order a
// serial engine delivering a global message bus at the same instants would
// use — so a one-shard run is byte-identical to the serial engine, and a
// fixed-K run is byte-identical across 1/2/N worker threads.
//
// Threading contract: the epoch drains and the message deliveries run on a
// persistent pool of min(threads, K) workers, the calling thread being worker
// 0; shard k always runs on worker k % workers, so its queue, outboxes and
// workload state stay on one core. The pool starts at the first parallel
// phase (a run that never advances spawns nothing) and is joined when the
// engine is destroyed. Event callbacks on shard k, and message handlers for
// destination k, must only touch shard k's state plus send() from k. In
// particular they must not consult fault::FaultRegistry::global() (it is
// thread_local — each worker would see a private, unarmed registry).
// Fault-sensitive work (graph ingest, chaos points) belongs in barrier hooks
// and the exchange guard, which always run on the main thread.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/simulation.hpp"
#include "sim/time.hpp"
#include "util/archive.hpp"

namespace fraudsim::sim {

// One cross-shard interaction. The engine treats the payload as opaque
// words; `type` and a..d are workload-defined (e.g. a hold request carrying
// user id, flight id, seat count). `seq` is the per-source stream sequence
// number the conservation invariant audits.
struct ShardMessage {
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  std::uint64_t seq = 0;
  SimTime sent_at = 0;
  std::uint32_t type = 0;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint64_t c = 0;
  std::uint64_t d = 0;
};

class ShardedSimulation : public util::Checkpointed<ShardedSimulation> {
 public:
  struct Config {
    std::uint32_t shards = 1;
    SimDuration epoch = kHour;
    // Worker threads for the epoch drains and message deliveries. 1 runs
    // shards inline on the calling thread. Never affects results — only
    // wall-clock.
    unsigned threads = 1;
  };

  // Runs at a barrier, once per delivered message, on the worker that owns
  // `dst`, with every shard clock equal to the barrier time. It may touch only
  // `dst`'s state and may send() only from `dst`; other destinations are
  // being delivered concurrently.
  using MessageHandler = std::function<void(std::uint32_t dst, const ShardMessage&)>;
  // Runs on the MAIN thread after message delivery at each barrier.
  using BarrierHook = std::function<void(SimTime barrier)>;
  // Consulted once per barrier exchange on the MAIN thread; returning true
  // injects a transient exchange failure (the engine retries — messages are
  // never lost to an injected fault, only charged as a retry). The scenario
  // layer wires this to the `shard.exchange` chaos fault point; the engine
  // itself stays below the fault library in the dependency stack.
  using ExchangeGuard = std::function<bool(SimTime barrier)>;

  explicit ShardedSimulation(const Config& cfg);
  ~ShardedSimulation();  // joins the worker pool
  ShardedSimulation(const ShardedSimulation&) = delete;
  ShardedSimulation& operator=(const ShardedSimulation&) = delete;

  [[nodiscard]] std::uint32_t shards() const { return static_cast<std::uint32_t>(shards_.size()); }
  [[nodiscard]] Simulation& shard(std::uint32_t k) { return shards_[k]->sim; }
  [[nodiscard]] const Simulation& shard(std::uint32_t k) const { return shards_[k]->sim; }

  // Stable hash partition: which shard owns `key`. Independent of thread
  // count and epoch length; depends only on the key and K.
  [[nodiscard]] std::uint32_t shard_of(std::uint64_t key) const;

  // Queues a message from `src` to `dst` for delivery at the next barrier.
  // Callable from `src`'s event callbacks and from handlers delivering to
  // `src` (worker threads): each shard only appends to its own outbox row, so
  // sends never contend. A handler's send is delivered in the next round of
  // the same barrier.
  void send(std::uint32_t src, std::uint32_t dst, std::uint32_t type, std::uint64_t a = 0,
            std::uint64_t b = 0, std::uint64_t c = 0, std::uint64_t d = 0);

  void set_message_handler(MessageHandler handler) { handler_ = std::move(handler); }
  void add_barrier_hook(BarrierHook hook) { hooks_.push_back(std::move(hook)); }
  void set_exchange_guard(ExchangeGuard guard) { exchange_guard_ = std::move(guard); }

  // Advances every shard to `end` in epoch steps, with a barrier (exchange +
  // hooks) at each epoch boundary and at `end` itself.
  void run_until(SimTime end);

  // Time of the last completed barrier (all shard clocks agree with it
  // between run_until calls).
  [[nodiscard]] SimTime now() const { return now_; }

  // --- Accounting (conservation oracle + bench totals) -----------------------
  [[nodiscard]] std::uint64_t fired_events() const;
  [[nodiscard]] std::uint64_t messages_sent() const;
  [[nodiscard]] std::uint64_t messages_delivered() const { return delivered_; }
  // Messages queued but not yet exchanged (non-zero only mid-epoch).
  [[nodiscard]] std::uint64_t messages_in_flight() const;
  [[nodiscard]] std::uint64_t messages_dropped() const { return dropped_; }
  [[nodiscard]] std::uint64_t exchange_retries() const { return exchange_retries_; }
  [[nodiscard]] std::uint64_t barriers_run() const { return barriers_; }

  // Test hook: silently drop the next exchanged message (the first one in
  // drain order of the next round that has any), planting exactly the
  // lost-message fault the shard-conservation invariant must detect. Call it
  // from the main thread: between run_until calls or from a barrier hook.
  void test_drop_next_message() { drop_next_ = true; }

  // --- Checkpoint (engine bookkeeping only) ----------------------------------
  // Must be called at a barrier (outboxes empty — asserted). Shard event
  // queues are workload state: owners persist their own event descriptors and
  // re-register them after restore() via Simulation::queue().restore_entry.
  // restore() parks every shard clock at the checkpointed barrier time; a
  // frame from an engine with a different K fails the reader.
  template <class Ar>
  void visit(Ar& ar);

 private:
  class Pool;

  // Aligned so no two shards share a cache line: each is written by its own
  // worker during the drain and the delivery.
  struct alignas(64) Shard {
    Simulation sim;
    std::vector<std::vector<ShardMessage>> outbox;  // indexed by dst
    // Indexed by src, kept for the engine's life: a round swaps each outbox
    // box with its empty staging box, delivers from the staging boxes, then
    // clears them with their capacity kept.
    std::vector<std::vector<ShardMessage>> staged;
    std::uint64_t sent = 0;  // messages this shard has queued, ever
  };

  void exchange(SimTime barrier);
  // Removes the first staged message in drain order (test_drop_next_message).
  void drop_first_staged();
  // Runs fn(k) for every shard, shard k on worker k % workers: inline when
  // there is one worker, otherwise on the pool (started on first use).
  void for_each_shard(const std::function<void(std::uint32_t)>& fn);

  std::vector<std::unique_ptr<Shard>> shards_;  // unique_ptr: stable addresses
  SimDuration epoch_;
  unsigned threads_;
  SimTime now_ = 0;
  MessageHandler handler_;
  std::vector<BarrierHook> hooks_;
  ExchangeGuard exchange_guard_;
  std::uint64_t delivered_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t exchange_retries_ = 0;
  std::uint64_t barriers_ = 0;
  bool drop_next_ = false;
  std::unique_ptr<Pool> pool_;
};

}  // namespace fraudsim::sim
