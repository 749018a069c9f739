#include "fleet/runtime.h"

#include <chrono>
#include <optional>

#include "common/logging.h"
#include "telemetry/gauges.h"

namespace ads::fleet {

namespace {

constexpr std::chrono::milliseconds kQuiescePollInterval(1);

}  // namespace

FleetRuntime::FleetRuntime(FleetRuntimeOptions options,
                           common::ThreadPool* pool)
    : options_(options),
      pool_(pool),
      epoch_(std::chrono::steady_clock::now()),
      core_(options.shards, options.replicas_per_shard, options.router,
            options.hedge) {
  ADS_CHECK(pool_ != nullptr) << "fleet needs a thread pool";
  runtimes_.reserve(options_.shards * options_.replicas_per_shard);
  for (size_t i = 0; i < options_.shards * options_.replicas_per_shard; ++i) {
    runtimes_.push_back(
        std::make_unique<serve::ServingRuntime>(options_.core, pool_));
  }
}

FleetRuntime::~FleetRuntime() { Shutdown(); }

void FleetRuntime::RegisterBackend(const std::string& model,
                                   autonomy::ResilientModelServer* backend) {
  ADS_CHECK(backend != nullptr) << "null backend";
  ADS_CHECK(!started_) << "backends must be registered before Start()";
  backends_[model] = backend;
  // One fleet-wide mutex per model: ResilientModelServer is not
  // thread-safe, and per-runtime serialization alone would let replicas on
  // different runtimes call Predict concurrently on the shared backend.
  auto [it, inserted] =
      backend_serialization_.emplace(model, std::make_unique<std::mutex>());
  ADS_CHECK(inserted) << "model registered twice: " << model;
  for (auto& runtime : runtimes_) {
    runtime->RegisterBackend(model, backend, it->second.get());
  }
}

void FleetRuntime::SetVersionRouter(const autonomy::VersionRouter* router) {
  ADS_CHECK(!started_) << "SetVersionRouter after Start()";
  core_.SetVersionRouter(router);
}

void FleetRuntime::SetTracer(telemetry::Tracer* tracer) {
  ADS_CHECK(!started_) << "SetTracer after Start()";
  for (auto& runtime : runtimes_) runtime->SetTracer(tracer);
}

void FleetRuntime::Start() {
  ADS_CHECK(!started_) << "Start() is one-shot";
  ADS_CHECK(!backends_.empty()) << "no backends registered";
  started_ = true;
  epoch_ = std::chrono::steady_clock::now();
  for (auto& runtime : runtimes_) runtime->Start();
  if (core_.hedging()) {
    hedger_ = std::thread([this]() { HedgerLoop(); });
  }
}

common::Status FleetRuntime::Submit(serve::Request request,
                                    Callback callback) {
  ADS_CHECK(started_) << "Submit before Start()";
  const uint64_t id = request.id;
  auto backend_it = backends_.find(request.model);
  ADS_CHECK(backend_it != backends_.end())
      << "unregistered model: " << request.model;
  // Pin the version here, before placement, so the primary and a later
  // hedge duplicate are guaranteed to serve the same model version.
  core_.Pin(&request, *backend_it->second);

  RouteDecision decision;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutting_down_) {
      return common::Status::FailedPrecondition(
          "fleet runtime is shutting down");
    }
    decision = core_.Route(request.tenant, id);
    core_.Open(id, decision, Now(), request).user = std::move(callback);
  }

  // The inner Submit may invoke OnCopyResponse inline (rejections), which
  // takes mu_ — so mu_ must not be held here.
  common::Status status =
      replica(decision.shard, decision.replica)
          .Submit(std::move(request), [this, id](const serve::Response& r) {
            OnCopyResponse(id, FleetCore::Copy::kPrimary, r);
          });

  // A replica shutting down refuses without invoking the callback: the
  // copy fails as a capacity rejection. Other rejection statuses already
  // resolved the flight through the inline callback.
  if (status.code() == common::StatusCode::kFailedPrecondition) {
    OnCopyResponse(id, FleetCore::Copy::kPrimary,
                   FailureResponse(id, serve::Outcome::kRejectedCapacity));
  }
  if (!status.ok()) return status;
  std::lock_guard<std::mutex> lock(mu_);
  core_.Accept(decision.shard);
  auto it = core_.Find(id);
  // The flight can already be gone if the request raced to a served
  // response before Submit returned; nothing left to hedge then.
  if (it != core_.end() && !it->second.primary_done && core_.hedging()) {
    hedge_deadlines_.push(
        {std::chrono::steady_clock::now() +
             std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                 std::chrono::duration<double>(core_.HedgeDelay())),
         id});
    hedger_wake_.notify_one();
  }
  return status;
}

double FleetRuntime::Now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

void FleetRuntime::OnCopyResponse(uint64_t id, FleetCore::Copy copy,
                                  const serve::Response& response) {
  Callback user;
  serve::Response out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = core_.Find(id);
    if (it == core_.end()) return;  // resolved and finalized already
    FleetCore::Flight& flight = it->second;
    if (response.outcome != serve::Outcome::kServed) {
      core_.CopyFailed(flight, copy, response.outcome);
    } else if (const std::optional<double> latency =
                   core_.CopyServed(flight, copy, Now())) {
      // First served copy wins. Its latency is the logical one: a hedge
      // copy's replica-local latency would leave out the hedge delay.
      out = response;
      out.latency_seconds = *latency;
      user = std::move(flight.user);
    }
    if (core_.Finalize(flight)) {
      if (!flight.resolved) {
        // Every copy failed: the logical outcome is the primary's failure.
        out = FailureResponse(id, flight.failure);
        user = std::move(flight.user);
      }
      core_.Erase(it);
    }
  }
  if (user != nullptr) user(out);
}

void FleetRuntime::FireHedge(uint64_t id,
                             std::unique_lock<std::mutex>& lock) {
  auto it = core_.Find(id);
  if (it == core_.end()) return;
  FleetCore::Flight& flight = it->second;
  if (!core_.FireHedge(flight)) return;
  const ShardId shard = flight.hedge_shard;
  const size_t hedge_replica = flight.hedge_replica;
  serve::Request copy = flight.prototype;

  lock.unlock();
  common::Status status =
      replica(shard, hedge_replica)
          .Submit(std::move(copy), [this, id](const serve::Response& r) {
            OnCopyResponse(id, FleetCore::Copy::kHedge, r);
          });
  // A refused hedge is an instant loser and the flight continues on its
  // primary alone; plain rejections already resolved through the inline
  // hedge callback.
  if (status.code() == common::StatusCode::kFailedPrecondition) {
    OnCopyResponse(id, FleetCore::Copy::kHedge,
                   FailureResponse(id, serve::Outcome::kRejectedCapacity));
  }
  lock.lock();
}

void FleetRuntime::HedgerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!shutting_down_) {
    if (hedge_deadlines_.empty()) {
      hedger_wake_.wait(lock);
      continue;
    }
    const auto due = hedge_deadlines_.top().due;
    if (std::chrono::steady_clock::now() < due) {
      hedger_wake_.wait_until(lock, due);
      continue;
    }
    const uint64_t id = hedge_deadlines_.top().id;
    hedge_deadlines_.pop();
    FireHedge(id, lock);  // drops and retakes the lock around Submit
  }
}

void FleetRuntime::WaitShardQuiesced(ShardId shard) const {
  ADS_CHECK(shard < options_.shards) << "unknown shard " << shard;
  for (;;) {
    bool quiet = true;
    for (size_t r = 0; quiet && r < options_.replicas_per_shard; ++r) {
      if (replica(shard, r).Stats().queued > 0) quiet = false;
    }
    if (quiet) {
      std::lock_guard<std::mutex> lock(mu_);
      quiet = !core_.Owns(shard);
    }
    if (quiet) return;
    std::this_thread::sleep_for(kQuiescePollInterval);
  }
}

void FleetRuntime::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutting_down_) return;
    shutting_down_ = true;
  }
  hedger_wake_.notify_all();
  if (hedger_.joinable()) hedger_.join();
  for (auto& runtime : runtimes_) runtime->Shutdown();
  std::lock_guard<std::mutex> lock(mu_);
  core_.CheckInvariants();
}

std::vector<ShardCounters> FleetRuntime::CountersSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return core_.counters();
}

ShardCounters FleetRuntime::FleetCounters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return Aggregate(core_.counters());
}

serve::ServingStats FleetRuntime::ReplicaStats(ShardId shard,
                                               size_t r) const {
  ADS_CHECK(shard < options_.shards && r < options_.replicas_per_shard)
      << "unknown replica " << shard << "/" << r;
  return replica(shard, r).Stats();
}

double FleetRuntime::HedgeDelay() const {
  std::lock_guard<std::mutex> lock(mu_);
  return core_.HedgeDelay();
}

void FleetRuntime::SampleGauges(telemetry::TelemetryStore* store) {
  if (store == nullptr) return;
  const double now = Now();
  std::vector<ShardCounters> counters = CountersSnapshot();
  FleetRouter& router = core_.router();
  for (ShardId shard = 0; shard < options_.shards; ++shard) {
    ShardLoad load;
    for (size_t r = 0; r < options_.replicas_per_shard; ++r) {
      telemetry::ScopedGauges scope(
          store, "fleet.serve.",
          {{"shard", std::to_string(shard)},
           {"replica", std::to_string(r)}});
      replica(shard, r).SampleGauges(scope);
      load.queue_depth += replica(shard, r).Stats().queued;
    }
    router.UpdateLoad(shard, load);
    const ShardCounters& c = counters[shard];
    telemetry::ScopedGauges fleet_scope(
        store, "fleet.", {{"shard", std::to_string(shard)}});
    fleet_scope.Record("served_total", now, static_cast<double>(c.served));
    fleet_scope.Record("hedges_fired_total", now,
                       static_cast<double>(c.hedges_fired));
    fleet_scope.Record("hedge_wins_total", now,
                       static_cast<double>(c.hedge_wins));
    fleet_scope.Record("draining", now, router.draining(shard) ? 1.0 : 0.0);
  }
}

}  // namespace ads::fleet
