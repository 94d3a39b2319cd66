// Serving front door over the InferenceEngine for open-loop traffic: one
// bounded DeadlineQueue per registered model, a dynamic batcher with size-
// and timeout-triggers (ServerOptions.max_batch / max_queue_delay_seconds),
// and deadline-aware shedding. Overload degrades by shedding: the queue is
// bounded, admission is deadline-aware (the latest-deadline request is
// evicted for a strictly more urgent arrival), and requests whose deadline
// has passed are dropped at admission or dispatch with a kExpired outcome
// instead of growing the tail unboundedly.
//
// The server runs in virtual time. ServeTrace replays a fixed arrival trace
// through `ServerOptions.num_workers` virtual drainers, each one modeled
// accelerator instance (paper Table 4 counts throughput the same way, as NI
// instances each working through its own images). Batch composition,
// shedding and per-item virtual latency are therefore exactly
// reproducible, and the server starts no thread.
//
// Execution modes (ServerOptions.mode):
//   * kFunctional  — every executed item also runs the functional
//     simulator on the engine's Runtime for the model's config
//     (InferenceEngine::RuntimeFor), so outputs are bit-identical to a
//     sequential Runtime::Execute of the same input (Runtime reuse is
//     bit-invisible, DESIGN.md Sec. 4).
//   * kDevicePaced — load testing: items are not simulated. The per-item
//     modeled accelerator latency, profiled once per registered model
//     (simulated time is input-independent), is the service time, so a
//     trace measures the front door (queueing, batching, shedding) rather
//     than the host cost of the cycle simulator.
#ifndef HDNN_RUNTIME_SERVER_H_
#define HDNN_RUNTIME_SERVER_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/deadline_queue.h"
#include "runtime/engine.h"

namespace hdnn {

enum class ServeOutcome {
  kOk = 0,    ///< executed; report fields and (functional) output are valid
  kRejected,  ///< shed at admission (queue full of no-later-deadline work)
  kExpired,   ///< deadline passed while queued; never executed
  kFailed,    ///< executed but failed terminally (integrity mismatch after
              ///< the capped retries); the output must not be used
};

/// Per-request serving report (one per arrival in the ServeTrace result).
/// Latencies are virtual seconds.
struct ItemReport {
  ServeOutcome outcome = ServeOutcome::kRejected;
  double queue_seconds = 0;    ///< enqueue -> dispatch (or shed point)
  double service_seconds = 0;  ///< dispatch -> completion
  double total_seconds = 0;    ///< enqueue -> completion
  int batch_size = 0;          ///< executed items in this request's batch
  std::int64_t batch_seq = -1; ///< per-trace dispatch sequence number
  double device_seconds = 0;   ///< modeled accelerator time for one item
  RunReport run;               ///< full report (+output) outside kDevicePaced
};

enum class ExecMode { kFunctional, kDevicePaced };

struct ServerOptions {
  /// Virtual drainers: modeled accelerator instances serving one queue.
  int num_workers = 1;
  /// Size trigger: a queue with this many waiters dispatches immediately.
  int max_batch = 8;
  /// Timeout trigger: the oldest waiter is never delayed longer than this
  /// for the sake of batching (0 = dispatch as soon as a drainer is free).
  double max_queue_delay_seconds = 0.001;
  /// Per-model queue bound (admission control).
  int max_queue_depth = 64;
  ExecMode mode = ExecMode::kFunctional;
  /// Verify the CRC32 integrity tag of every functional output at
  /// collection (Runtime::set_integrity_check). An IntegrityError is
  /// retried in place up to `max_execute_retries` times (inference is pure,
  /// so re-execution is side-effect free); a request still failing
  /// resolves with kFailed instead of serving corrupted data. Off by
  /// default — the disabled path is behavior-identical to the
  /// pre-integrity server.
  bool integrity_check = false;
  int max_execute_retries = 1;
};

using ModelHandle = int;

class InferenceServer {
 public:
  /// The engine supplies the compiled-program cache and the Runtime; it
  /// must outlive the server. Like the engine, the server is
  /// single-threaded.
  InferenceServer(InferenceEngine& engine, const ServerOptions& options);

  InferenceServer(const InferenceServer&) = delete;
  InferenceServer& operator=(const InferenceServer&) = delete;

  /// Compiles (or cache-hits) the deployment and profiles its deterministic
  /// per-item modeled device latency.
  ModelHandle RegisterModel(const Model& model, const AccelConfig& cfg,
                            const std::vector<LayerMapping>& mapping,
                            const ModelWeightsQ& weights);

  /// Modeled accelerator seconds for one item of this model (the service
  /// time of one drainer, profiled at registration).
  double device_seconds_per_item(ModelHandle handle) const;

  /// One fixed arrival: at `at_seconds` of virtual time, inputs[input_index]
  /// arrives with a deadline `deadline_seconds` after its arrival.
  struct TraceArrival {
    double at_seconds = 0;
    int input_index = 0;
    double deadline_seconds = kNoDeadline;
  };
  struct TraceReport {
    std::vector<ItemReport> items;  ///< one per arrival, in trace order
    std::vector<int> batch_sizes;   ///< executed size of each dispatch
  };

  /// Replays `trace` (non-decreasing at_seconds) through this server's
  /// admission and batching policy with `options.num_workers` virtual
  /// drainers. A batch dispatches at max(queue ReadyTime, earliest
  /// drainer-free time) onto the earliest-free drainer (lowest index on
  /// ties) and occupies it for one device time per item; SimulateFleet
  /// applies the same rule to a shard's NI workers. Ties between an arrival
  /// and a dispatch at the same instant dispatch first (the arrival joins
  /// the next batch). In kFunctional mode every executed item also runs the
  /// real simulator, in dispatch order, so outputs are bit-identical to
  /// sequential execution, and an integrity failure retries in place (an
  /// item out of retries resolves kFailed and the trace goes on).
  TraceReport ServeTrace(ModelHandle handle,
                         std::span<const Tensor<std::int16_t>> inputs,
                         std::span<const TraceArrival> trace);

 private:
  struct ModelState {
    Model model;
    AccelConfig cfg;
    ModelWeightsQ weights;
    std::shared_ptr<const CompiledModel> compiled;
    double device_seconds = 0;
  };

  const ModelState& state(ModelHandle handle) const;
  /// One functional execution with integrity self-healing: an
  /// IntegrityError means the output slab was corrupted between SAVE and
  /// collection — the result was never served, and inference is pure, so
  /// the item re-executes in place up to max_execute_retries times. Returns
  /// kOk with `run` filled, or kFailed once the retries run out.
  ServeOutcome ExecuteItem(const ModelState& ms, Runtime& runtime,
                           const Tensor<std::int16_t>& input,
                           RunReport& run) const;

  InferenceEngine& engine_;
  ServerOptions options_;
  std::vector<ModelState> models_;
};

}  // namespace hdnn

#endif  // HDNN_RUNTIME_SERVER_H_
