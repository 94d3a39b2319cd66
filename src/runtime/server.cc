#include "runtime/server.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/check.h"

namespace hdnn {

InferenceServer::InferenceServer(InferenceEngine& engine,
                                 const ServerOptions& options)
    : engine_(engine), options_(options) {
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
}

const InferenceServer::ModelState& InferenceServer::state(
    ModelHandle handle) const {
  HDNN_CHECK(handle >= 0 && handle < static_cast<int>(models_.size()))
      << "unknown model handle " << handle;
  return models_[static_cast<std::size_t>(handle)];
}

ModelHandle InferenceServer::RegisterModel(
    const Model& model, const AccelConfig& cfg,
    const std::vector<LayerMapping>& mapping, const ModelWeightsQ& weights) {
  ModelState ms;
  ms.model = model;
  ms.cfg = cfg;
  ms.weights = weights;
  ms.compiled = engine_.GetOrCompile(model, cfg, mapping);
  // Deterministic device profile: simulated time is input-independent, so
  // one timing-only run pins the per-item modeled latency every drainer is
  // paced on.
  ms.device_seconds = engine_.RuntimeFor(cfg)
                          .Execute(ms.model, *ms.compiled, ms.weights, {},
                                   /*functional=*/false)
                          .seconds;
  models_.push_back(std::move(ms));
  return static_cast<ModelHandle>(models_.size() - 1);
}

ServeOutcome InferenceServer::ExecuteItem(const ModelState& ms,
                                          Runtime& runtime,
                                          const Tensor<std::int16_t>& input,
                                          RunReport& run) const {
  for (int attempt = 0;; ++attempt) {
    try {
      run = runtime.Execute(ms.model, *ms.compiled, ms.weights, input);
      return ServeOutcome::kOk;
    } catch (const IntegrityError&) {
      if (attempt >= options_.max_execute_retries) return ServeOutcome::kFailed;
    }
  }
}

double InferenceServer::device_seconds_per_item(ModelHandle handle) const {
  return state(handle).device_seconds;
}

InferenceServer::TraceReport InferenceServer::ServeTrace(
    ModelHandle handle, std::span<const Tensor<std::int16_t>> inputs,
    std::span<const TraceArrival> trace) {
  const ModelState& ms = state(handle);
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

  Runtime& runtime = engine_.RuntimeFor(ms.cfg);
  runtime.set_integrity_check(options_.integrity_check);

  const auto resolve_shed = [&](DeadlineQueue<Slot>::Entry e,
                                ServeOutcome outcome, double at) {
    ItemReport& r = out.items[static_cast<std::size_t>(e.value.trace_index)];
    r.outcome = outcome;
    r.queue_seconds = std::max(0.0, at - e.enqueue_s);
    r.total_seconds = r.queue_seconds;
  };

  // Virtual instant each drainer next falls idle.
  std::vector<double> drainer_free(
      static_cast<std::size_t>(options_.num_workers), 0.0);
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
    // When does the pending batch dispatch, and onto which drainer? The
    // earliest-free one (lowest index on ties); a size-ready queue
    // dispatches as soon as it is free, otherwise the timeout trigger gates.
    const auto drainer =
        std::min_element(drainer_free.begin(), drainer_free.end());
    const double dispatch_s = std::max(queue.ReadyTime(now), *drainer);
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
        r.outcome = ExecuteItem(ms, runtime,
                                inputs[static_cast<std::size_t>(a.input_index)],
                                r.run);
      }
    }
    *drainer = now + static_cast<double>(batch.size()) * ms.device_seconds;
  }
  return out;
}

}  // namespace hdnn
