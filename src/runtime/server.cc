#include "runtime/server.h"

#include <algorithm>
#include <exception>
#include <limits>
#include <utility>

#include "common/check.h"

namespace hdnn {

InferenceServer::InferenceServer(InferenceEngine& engine,
                                 const ServerOptions& options)
    : engine_(engine),
      options_(options),
      epoch_(std::chrono::steady_clock::now()) {
  HDNN_CHECK(options.num_workers >= 1)
      << "server needs at least one worker, got " << options.num_workers;
  HDNN_CHECK(options.max_batch >= 1)
      << "max_batch must be positive, got " << options.max_batch;
  HDNN_CHECK(options.max_queue_delay_seconds >= 0)
      << "max_queue_delay must be non-negative";
  HDNN_CHECK(options.max_queue_depth >= 1)
      << "max_queue_depth must be positive, got " << options.max_queue_depth;
  HDNN_CHECK(options.max_execute_retries >= 0)
      << "max_execute_retries must be non-negative, got "
      << options.max_execute_retries;
  workers_.reserve(static_cast<std::size_t>(options.num_workers));
  for (int i = 0; i < options.num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

InferenceServer::~InferenceServer() { Stop(); }

void InferenceServer::Stop() {
  {
    std::lock_guard<std::mutex> lock(sched_mu_);
    if (stop_ && workers_.empty()) return;
    stop_ = true;
  }
  sched_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
  workers_.clear();
}

double InferenceServer::Now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

void InferenceServer::SleepUntil(double seconds) const {
  std::this_thread::sleep_until(
      epoch_ + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                   std::chrono::duration<double>(seconds)));
}

InferenceServer::ModelState& InferenceServer::state(
    ModelHandle handle) const {
  std::lock_guard<std::mutex> lock(models_mu_);
  HDNN_CHECK(handle >= 0 && handle < static_cast<int>(models_.size()))
      << "unknown model handle " << handle;
  return *models_[static_cast<std::size_t>(handle)];
}

ModelHandle InferenceServer::RegisterModel(
    const Model& model, const AccelConfig& cfg,
    const std::vector<LayerMapping>& mapping, const ModelWeightsQ& weights) {
  auto ms = std::make_unique<ModelState>(Queue(
      options_.max_queue_depth, options_.max_batch,
      options_.max_queue_delay_seconds));
  ms->model = model;
  ms->cfg = cfg;
  ms->mapping = mapping;
  ms->weights = weights;
  ms->compiled = engine_.GetOrCompile(model, cfg, mapping);
  {
    // Deterministic device profile: simulated time is input-independent, so
    // one timing-only run pins the per-item modeled latency for pacing and
    // for the virtual-time drainer.
    RuntimePool::Lease lease = engine_.runtime_pool().Checkout(cfg);
    const RunReport profile = lease->Execute(ms->model, *ms->compiled,
                                             ms->weights, {},
                                             /*functional=*/false);
    ms->device_seconds = profile.seconds;
  }
  std::lock_guard<std::mutex> lock(models_mu_);
  models_.push_back(std::move(ms));
  return static_cast<ModelHandle>(models_.size() - 1);
}

void InferenceServer::ResolveShed(Queue::Entry entry, ServeOutcome outcome,
                                  double now) {
  ItemReport report;
  report.outcome = outcome;
  report.queue_seconds = std::max(0.0, now - entry.enqueue_s);
  report.total_seconds = report.queue_seconds;
  entry.value.promise.set_value(std::move(report));
}

std::future<ItemReport> InferenceServer::Submit(ModelHandle handle,
                                                Tensor<std::int16_t> input,
                                                double deadline_seconds) {
  ModelState& ms = state(handle);
  Queue::Entry entry;
  entry.value.input = std::move(input);
  std::future<ItemReport> future = entry.value.promise.get_future();
  const double now = Now();
  entry.enqueue_s = now;
  entry.deadline_s = deadline_seconds == kNoDeadline
                         ? kNoDeadline
                         : now + deadline_seconds;

  AdmitResult result = AdmitResult::kRejected;
  Queue::Entry evicted;
  bool did_evict = false;
  std::vector<Queue::Entry> expired;
  {
    // Admission happens under sched_mu_ (lock order sched_mu_ -> ms.mu,
    // same as the workers): a worker is then either mid-scan — and will see
    // this entry before it next waits — or already waiting, and the notify
    // below wakes it. Without this, a push between a worker's scan and its
    // wait would be missed entirely. It also closes the Stop race: stop_
    // cannot flip mid-admission, so no request lands in a queue the
    // drain-and-exit pass has already passed over.
    std::lock_guard<std::mutex> sched_lock(sched_mu_);
    std::lock_guard<std::mutex> lock(ms.mu);
    ++ms.stats.submitted;
    if (stop_) {
      ++ms.stats.rejected;
    } else {
      result = ms.queue.Push(entry, now, &evicted, expired);
      did_evict = result == AdmitResult::kEvicted;
      ms.stats.expired += static_cast<std::int64_t>(expired.size());
      if (result == AdmitResult::kRejected) ++ms.stats.rejected;
      if (did_evict) ++ms.stats.rejected;
    }
  }

  // Resolve shed work outside the queue lock (promise waiters wake here).
  for (Queue::Entry& e : expired) {
    ResolveShed(std::move(e), ServeOutcome::kExpired, now);
  }
  if (did_evict) ResolveShed(std::move(evicted), ServeOutcome::kRejected, now);
  if (result == AdmitResult::kRejected) {
    ResolveShed(std::move(entry), ServeOutcome::kRejected, now);
    return future;
  }

  sched_cv_.notify_all();
  return future;
}

void InferenceServer::WorkerLoop() {
  std::unique_lock<std::mutex> sched_lock(sched_mu_);
  for (;;) {
    const double now = Now();
    double earliest_trigger = kNeverTriggers;
    ModelState* pick = nullptr;
    std::vector<Queue::Entry> batch;
    std::vector<Queue::Entry> expired;
    std::int64_t batch_seq = -1;

    // Snapshot the model list (handles are stable; the vector only grows).
    std::vector<ModelState*> states;
    {
      std::lock_guard<std::mutex> models_lock(models_mu_);
      states.reserve(models_.size());
      for (const auto& ms : models_) states.push_back(ms.get());
    }
    // Serve the first ready queue at or after scan_start_ (round-robin
    // across models). On Stop the batcher flushes: any non-empty queue
    // counts as ready without its size/timeout trigger. Queue state cannot
    // change mid-scan — every admission takes sched_mu_, which this worker
    // holds.
    const std::size_t n = states.size();
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t idx = (scan_start_ + k) % n;
      ModelState& candidate = *states[idx];
      std::lock_guard<std::mutex> queue_lock(candidate.mu);
      const bool ready = candidate.queue.DispatchReady(now) ||
                         (stop_ && !candidate.queue.empty());
      if (!ready) {
        earliest_trigger =
            std::min(earliest_trigger, candidate.queue.NextTriggerTime());
        continue;
      }
      candidate.queue.SweepExpired(now, expired);
      candidate.stats.expired += static_cast<std::int64_t>(expired.size());
      batch = candidate.queue.TakeBatch();
      if (!batch.empty()) {
        batch_seq = candidate.batch_seq++;
        ++candidate.stats.batches;
        candidate.stats.batched_items +=
            static_cast<std::int64_t>(batch.size());
        pick = &candidate;
        scan_start_ = (idx + 1) % n;
      }
      break;
    }

    if (pick != nullptr || !expired.empty()) {
      sched_lock.unlock();
      for (Queue::Entry& e : expired) {
        ResolveShed(std::move(e), ServeOutcome::kExpired, now);
      }
      if (pick != nullptr) {
        RunBatch(*pick, std::move(batch), now, batch_seq);
      }
      sched_lock.lock();
      continue;
    }

    if (stop_) return;  // every queue drained
    if (earliest_trigger == kNeverTriggers) {
      sched_cv_.wait(sched_lock);
    } else {
      sched_cv_.wait_until(
          sched_lock,
          epoch_ +
              std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                  std::chrono::duration<double>(earliest_trigger)));
    }
  }
}

void InferenceServer::RunBatch(ModelState& ms,
                               std::vector<Queue::Entry> batch,
                               double dispatch_s, std::int64_t batch_seq) {
  const int batch_size = static_cast<int>(batch.size());
  RuntimePool::Lease lease;
  if (options_.mode == ExecMode::kFunctional) {
    lease = engine_.runtime_pool().Checkout(ms.cfg);
    lease->set_integrity_check(options_.integrity_check);
  }
  for (int k = 0; k < batch_size; ++k) {
    try {
      ItemReport report;
      int retried = 0;
      if (options_.mode == ExecMode::kDevicePaced) {
        // One worker == one modeled accelerator instance: completions pace
        // on the profiled device latency, back to back within the batch.
        // The report carries actual wall time: when the host falls behind
        // the modeled pace (scheduler jitter, CPU contention) the oversleep
        // is real serving latency and must show up in the tail, not be
        // idealized away.
        SleepUntil(dispatch_s + (k + 1) * ms.device_seconds);
        report.outcome = ServeOutcome::kOk;
        report.run.seconds = ms.device_seconds;
      } else {
        report.outcome =
            ExecuteItem(ms, *lease, batch[k].value.input, report.run, retried);
      }
      const double completion_s = Now();
      report.queue_seconds = dispatch_s - batch[k].enqueue_s;
      report.service_seconds = completion_s - dispatch_s;
      report.total_seconds = completion_s - batch[k].enqueue_s;
      report.batch_size = batch_size;
      report.batch_seq = batch_seq;
      report.device_seconds = ms.device_seconds;
      {
        // Count before the future resolves: a client that observes
        // fut.get() must also observe the matching stats increment.
        std::lock_guard<std::mutex> lock(ms.mu);
        ms.stats.retried += retried;
        if (report.outcome == ServeOutcome::kOk) {
          ++ms.stats.ok;
        } else {
          ++ms.stats.failed;
        }
      }
      batch[k].value.promise.set_value(std::move(report));
    } catch (...) {
      batch[k].value.promise.set_exception(std::current_exception());
    }
  }
}

ServeOutcome InferenceServer::ExecuteItem(const ModelState& ms,
                                          Runtime& runtime,
                                          const Tensor<std::int16_t>& input,
                                          RunReport& run, int& retried) const {
  for (int attempt = 0;; ++attempt) {
    try {
      run = runtime.Execute(ms.model, *ms.compiled, ms.weights, input);
      return ServeOutcome::kOk;
    } catch (const IntegrityError&) {
      if (attempt >= options_.max_execute_retries) return ServeOutcome::kFailed;
      ++retried;
    }
  }
}

ServerStats InferenceServer::stats(ModelHandle handle) const {
  ModelState& ms = state(handle);
  std::lock_guard<std::mutex> lock(ms.mu);
  return ms.stats;
}

double InferenceServer::device_seconds_per_item(ModelHandle handle) const {
  return state(handle).device_seconds;
}

InferenceServer::TraceReport InferenceServer::ServeTrace(
    ModelHandle handle, std::span<const Tensor<std::int16_t>> inputs,
    std::span<const TraceArrival> trace) {
  ModelState& ms = state(handle);
  for (std::size_t i = 1; i < trace.size(); ++i) {
    HDNN_CHECK(trace[i].at_seconds >= trace[i - 1].at_seconds)
        << "trace arrivals must be sorted by time (index " << i << ")";
  }

  // A trace request carries its arrival index so results land in order.
  struct Slot {
    int trace_index;
  };
  DeadlineQueue<Slot> queue(options_.max_queue_depth, options_.max_batch,
                            options_.max_queue_delay_seconds);

  TraceReport out;
  out.items.resize(trace.size());

  RuntimePool::Lease lease;
  if (options_.mode == ExecMode::kFunctional) {
    lease = engine_.runtime_pool().Checkout(ms.cfg);
    lease->set_integrity_check(options_.integrity_check);
  }

  const auto resolve_shed = [&](DeadlineQueue<Slot>::Entry e,
                                ServeOutcome outcome, double at) {
    ItemReport& r = out.items[static_cast<std::size_t>(e.value.trace_index)];
    r.outcome = outcome;
    r.queue_seconds = std::max(0.0, at - e.enqueue_s);
    r.total_seconds = r.queue_seconds;
  };

  double drainer_free = 0;
  std::size_t next = 0;  // next arrival index
  std::vector<DeadlineQueue<Slot>::Entry> expired;

  const auto admit = [&](std::size_t i) {
    const TraceArrival& a = trace[i];
    HDNN_CHECK(a.input_index >= 0 &&
               a.input_index < static_cast<int>(inputs.size()))
        << "trace arrival " << i << " names input " << a.input_index
        << " of " << inputs.size();
    DeadlineQueue<Slot>::Entry entry;
    entry.value.trace_index = static_cast<int>(i);
    entry.enqueue_s = a.at_seconds;
    entry.deadline_s = a.deadline_seconds == kNoDeadline
                           ? kNoDeadline
                           : a.at_seconds + a.deadline_seconds;
    DeadlineQueue<Slot>::Entry evicted;
    expired.clear();
    const AdmitResult result =
        queue.Push(entry, a.at_seconds, &evicted, expired);
    for (DeadlineQueue<Slot>::Entry& e : expired) {
      resolve_shed(std::move(e), ServeOutcome::kExpired, a.at_seconds);
    }
    if (result == AdmitResult::kEvicted) {
      resolve_shed(std::move(evicted), ServeOutcome::kRejected, a.at_seconds);
    } else if (result == AdmitResult::kRejected) {
      resolve_shed(std::move(entry), ServeOutcome::kRejected, a.at_seconds);
    }
  };

  double now = 0;
  while (next < trace.size() || !queue.empty()) {
    if (queue.empty()) {
      now = trace[next].at_seconds;
      admit(next++);
      continue;
    }
    // When does the pending batch dispatch? Size-ready queues dispatch as
    // soon as the drainer is free; otherwise the timeout trigger gates.
    const double dispatch_s = std::max(queue.ReadyTime(now), drainer_free);
    const double next_arrival_s =
        next < trace.size() ? trace[next].at_seconds
                            : std::numeric_limits<double>::infinity();
    if (next_arrival_s < dispatch_s) {
      now = next_arrival_s;
      admit(next++);
      continue;
    }

    // Dispatch (ties with an arrival at the same instant dispatch first).
    now = dispatch_s;
    expired.clear();
    queue.SweepExpired(now, expired);
    for (DeadlineQueue<Slot>::Entry& e : expired) {
      resolve_shed(std::move(e), ServeOutcome::kExpired, now);
    }
    std::vector<DeadlineQueue<Slot>::Entry> batch = queue.TakeBatch();
    if (batch.empty()) continue;

    const std::int64_t batch_seq =
        static_cast<std::int64_t>(out.batch_sizes.size());
    out.batch_sizes.push_back(static_cast<int>(batch.size()));
    for (std::size_t k = 0; k < batch.size(); ++k) {
      const double completion_s =
          now + static_cast<double>(k + 1) * ms.device_seconds;
      ItemReport& r =
          out.items[static_cast<std::size_t>(batch[k].value.trace_index)];
      r.queue_seconds = now - batch[k].enqueue_s;
      r.service_seconds = completion_s - now;
      r.total_seconds = completion_s - batch[k].enqueue_s;
      r.batch_size = static_cast<int>(batch.size());
      r.batch_seq = batch_seq;
      r.device_seconds = ms.device_seconds;
      if (options_.mode == ExecMode::kDevicePaced) {
        r.outcome = ServeOutcome::kOk;
        r.run.seconds = ms.device_seconds;
      } else {
        const TraceArrival& a =
            trace[static_cast<std::size_t>(batch[k].value.trace_index)];
        int retried = 0;  // the trace leaves stats() alone
        r.outcome = ExecuteItem(ms, *lease,
                                inputs[static_cast<std::size_t>(a.input_index)],
                                r.run, retried);
      }
    }
    drainer_free =
        now + static_cast<double>(batch.size()) * ms.device_seconds;
  }
  return out;
}

}  // namespace hdnn
