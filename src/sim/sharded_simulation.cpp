#include "sim/sharded_simulation.hpp"

#include <algorithm>
#include <cassert>
#include <condition_variable>
#include <exception>
#include <mutex>
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

// A persistent fork-join pool: `workers - 1` parked threads plus the calling
// thread as worker 0. run(job) has every worker w run job(w) and returns once
// all have finished, rethrowing the first exception any of them raised; the
// mutex hand-offs order each phase's writes before the next phase, on
// whichever thread it runs.
class ShardedSimulation::Pool {
 public:
  explicit Pool(unsigned workers) {
    threads_.reserve(workers - 1);
    for (unsigned w = 1; w < workers; ++w) threads_.emplace_back([this, w] { loop(w); });
  }
  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  ~Pool() {
    {
      const std::lock_guard lock(mu_);
      stop_ = true;
    }
    start_.notify_all();
    for (auto& t : threads_) t.join();
  }

  void run(const std::function<void(unsigned)>& job) {
    {
      const std::lock_guard lock(mu_);
      job_ = &job;
      busy_ = threads_.size();
      ++generation_;
    }
    start_.notify_all();
    // The other workers still hold `job`, so even a throwing share waits for
    // them before its exception leaves this frame.
    std::exception_ptr error;
    try {
      job(0);
    } catch (...) {
      error = std::current_exception();
    }
    std::unique_lock lock(mu_);
    done_.wait(lock, [this] { return busy_ == 0; });
    if (!error) error = error_;
    error_ = nullptr;
    if (error) std::rethrow_exception(error);
  }

 private:
  void loop(unsigned w) {
    std::uint64_t seen = 0;
    for (;;) {
      const std::function<void(unsigned)>* job = nullptr;
      {
        std::unique_lock lock(mu_);
        start_.wait(lock, [&] { return stop_ || generation_ != seen; });
        if (stop_) return;
        seen = generation_;
        job = job_;
      }
      std::exception_ptr error;
      try {
        (*job)(w);
      } catch (...) {
        error = std::current_exception();
      }
      const std::lock_guard lock(mu_);
      if (error && !error_) error_ = error;
      if (--busy_ == 0) done_.notify_one();
    }
  }

  std::mutex mu_;
  std::condition_variable start_;
  std::condition_variable done_;
  const std::function<void(unsigned)>* job_ = nullptr;
  std::uint64_t generation_ = 0;
  std::size_t busy_ = 0;
  std::exception_ptr error_;  // first exception a worker raised this phase
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

ShardedSimulation::ShardedSimulation(const Config& cfg)
    : epoch_(std::max<SimDuration>(cfg.epoch, 1)), threads_(std::max(cfg.threads, 1u)) {
  const std::uint32_t k = std::max(cfg.shards, 1u);
  shards_.reserve(k);
  for (std::uint32_t i = 0; i < k; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->outbox.resize(k);
    shard->staged.resize(k);
    shards_.push_back(std::move(shard));
  }
}

ShardedSimulation::~ShardedSimulation() = default;

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

void ShardedSimulation::for_each_shard(const std::function<void(std::uint32_t)>& fn) {
  const std::uint32_t k = shards();
  const unsigned workers = std::min<unsigned>(threads_, k);
  const std::function<void(unsigned)> job = [&fn, k, workers](unsigned w) {
    for (std::uint32_t s = w; s < k; s += workers) fn(s);
  };
  if (workers <= 1) return job(0);
  if (!pool_) pool_ = std::make_unique<Pool>(workers);
  pool_->run(job);
}

void ShardedSimulation::run_until(SimTime end) {
  while (now_ < end) {
    const SimTime barrier = std::min<SimTime>(now_ + epoch_, end);
    // Epoch drain: shards are independent until the barrier, so which worker
    // drains a shard is purely a wall-clock choice — each shard's event
    // stream is sequential and self-contained either way.
    for_each_shard([this, barrier](std::uint32_t k) { shards_[k]->sim.run_before(barrier); });
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
  // handler sends land in the emptied outboxes, and the loop repeats until no
  // messages remain. Request/reply round-trips therefore complete within one
  // barrier, in an order that depends only on the message streams — never on
  // which box the staging loop happened to be visiting — and the barrier
  // always ends quiescent (messages_in_flight() == 0), which the checkpoint
  // and the shard-conservation invariant both rely on.
  //
  // Staging is a swap per (src, dst) box, so no message is copied; the
  // outbox takes over the staging box's capacity for the next round. Each
  // destination's handlers touch only that destination and send only from
  // it, so destinations are delivered in parallel: each sees its messages in
  // the same order, and sends them on in the same order, as it would in the
  // one-thread drain order above.
  const std::uint32_t k = shards();
  for (;;) {
    std::size_t staged = 0;
    for (std::uint32_t src = 0; src < k; ++src) {
      auto& outbox = shards_[src]->outbox;
      for (std::uint32_t dst = 0; dst < k; ++dst) {
        auto& box = shards_[dst]->staged[src];
        box.swap(outbox[dst]);
        staged += box.size();
      }
    }
    if (staged == 0) return;
    if (drop_next_) {
      drop_first_staged();
      --staged;
    }
    for_each_shard([this](std::uint32_t dst) {
      for (auto& box : shards_[dst]->staged) {
        if (handler_) {
          for (const ShardMessage& msg : box) handler_(dst, msg);
        }
        box.clear();
      }
    });
    delivered_ += staged;
  }
}

void ShardedSimulation::drop_first_staged() {
  for (auto& shard : shards_) {
    for (auto& box : shard->staged) {
      if (box.empty()) continue;
      box.erase(box.begin());
      drop_next_ = false;
      ++dropped_;
      return;
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
