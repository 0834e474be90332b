#include "sim/sharded_simulation.hpp"

#include <algorithm>
#include <cassert>
#include <thread>

#include "util/archive.hpp"
#include "util/hash.hpp"

namespace fraudsim::sim {

namespace {

// An armed `Always` exchange fault must not wedge the run: after this many
// charged retries in one barrier the exchange proceeds anyway. Messages are
// never lost to an injected fault — only retry accounting changes.
constexpr int kMaxExchangeRetries = 8;

}  // namespace

ShardedSimulation::ShardedSimulation(const Config& cfg)
    : epoch_(std::max<SimDuration>(cfg.epoch, 1)), threads_(std::max(cfg.threads, 1u)) {
  const std::uint32_t k = std::max(cfg.shards, 1u);
  shards_.reserve(k);
  for (std::uint32_t i = 0; i < k; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->outbox.resize(k);
    shards_.push_back(std::move(shard));
  }
}

std::uint32_t ShardedSimulation::shard_of(std::uint64_t key) const {
  // splitmix64 scrambles sequential ids (user 0, 1, 2, ...) into an even
  // spread; modulo by K is then a stable, thread-independent partition.
  return static_cast<std::uint32_t>(util::splitmix64(key) % shards_.size());
}

void ShardedSimulation::send(std::uint32_t src, std::uint32_t dst, std::uint32_t type,
                             std::uint64_t a, std::uint64_t b, std::uint64_t c, std::uint64_t d) {
  assert(src < shards() && dst < shards());
  Shard& s = *shards_[src];
  ShardMessage msg;
  msg.src = src;
  msg.dst = dst;
  msg.seq = s.sent++;
  msg.sent_at = s.sim.now();
  msg.type = type;
  msg.a = a;
  msg.b = b;
  msg.c = c;
  msg.d = d;
  s.outbox[dst].push_back(msg);
}

void ShardedSimulation::run_until(SimTime end) {
  while (now_ < end) {
    const SimTime barrier = std::min<SimTime>(now_ + epoch_, end);
    // Epoch drain: shards are independent until the barrier, so the static
    // shard->worker assignment below is purely a wall-clock choice — each
    // shard's event stream is sequential and self-contained either way.
    if (threads_ <= 1 || shards_.size() == 1) {
      for (auto& shard : shards_) shard->sim.run_before(barrier);
    } else {
      const unsigned workers =
          std::min<unsigned>(threads_, static_cast<unsigned>(shards_.size()));
      std::vector<std::thread> pool;
      pool.reserve(workers);
      for (unsigned w = 0; w < workers; ++w) {
        pool.emplace_back([this, w, workers, barrier] {
          for (std::size_t k = w; k < shards_.size(); k += workers) {
            shards_[k]->sim.run_before(barrier);
          }
        });
      }
      for (auto& t : pool) t.join();
    }
    exchange(barrier);
    // Advance the engine clock BEFORE the hooks: a hook that checkpoints must
    // capture now_ == barrier, so a resumed run continues with the next epoch
    // instead of replaying (and re-counting) this one.
    now_ = barrier;
    ++barriers_;
    for (const auto& hook : hooks_) hook(barrier);
  }
}

void ShardedSimulation::exchange(SimTime barrier) {
  // Transient exchange faults (chaos point `shard.exchange`, wired in by the
  // scenario layer) are charged as retries, never as losses.
  if (exchange_guard_) {
    int retries = 0;
    while (retries < kMaxExchangeRetries && exchange_guard_(barrier)) {
      ++retries;
      ++exchange_retries_;
    }
  }
  // Fixed drain order — destination-major, source-minor, FIFO within each
  // (src, dst) stream. With K=1 this is exactly send order, which is what a
  // serial engine draining a global bus at the same instant would deliver.
  //
  // Handlers may themselves send() (e.g. a hold-granted reply), so delivery
  // runs in rounds: every queued message is staged before any handler runs,
  // handler sends land in fresh outboxes, and the loop repeats until no
  // messages remain. Request/reply round-trips therefore complete within one
  // barrier, in an order that depends only on the message streams — never on
  // which box the staging loop happened to be visiting — and the barrier
  // always ends quiescent (messages_in_flight() == 0), which the checkpoint
  // and the shard-conservation invariant both rely on.
  std::vector<ShardMessage> round;
  while (messages_in_flight() > 0) {
    round.clear();
    for (std::uint32_t dst = 0; dst < shards(); ++dst) {
      for (std::uint32_t src = 0; src < shards(); ++src) {
        auto& box = shards_[src]->outbox[dst];
        round.insert(round.end(), box.begin(), box.end());
        box.clear();
      }
    }
    for (const ShardMessage& msg : round) {
      if (drop_next_) {
        drop_next_ = false;
        ++dropped_;
        continue;
      }
      if (handler_) handler_(msg.dst, msg);
      ++delivered_;
    }
  }
}

std::uint64_t ShardedSimulation::fired_events() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->sim.fired_events();
  return total;
}

std::uint64_t ShardedSimulation::messages_sent() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->sent;
  return total;
}

std::uint64_t ShardedSimulation::messages_in_flight() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    for (const auto& box : shard->outbox) total += box.size();
  }
  return total;
}

template <class Ar>
void ShardedSimulation::visit(Ar& ar) {
  assert(messages_in_flight() == 0 && "checkpoint only at a barrier");
  std::uint32_t k = shards();
  ar(k, now_);
  if constexpr (Ar::reading) {
    if (k != shards()) return ar.fail();
  }
  for (auto& shard : shards_) {
    std::uint64_t fired = shard->sim.fired_events();
    ar(shard->sent, fired);
    if constexpr (Ar::reading) shard->sim.restore_fired(fired);
  }
  ar(delivered_, dropped_, exchange_retries_, barriers_);
  if constexpr (Ar::reading) {
    // Queues are empty at this point (owners re-register their events
    // afterwards, all at times >= now_), so this fires nothing.
    for (auto& shard : shards_) shard->sim.run_before(now_);
  }
}
template void ShardedSimulation::visit(util::ByteWriter&);
template void ShardedSimulation::visit(util::ByteReader&);

}  // namespace fraudsim::sim
