// Asynchronous serving front door over the InferenceEngine (ROADMAP item 1:
// open-loop traffic, not caller-assembled batches).
//
// Requests arrive via Submit(handle, input, deadline) -> std::future and
// land in a bounded per-model DeadlineQueue. A dynamic batcher coalesces
// them with size- and timeout-triggers (ServerOptions.max_batch /
// max_queue_delay_seconds); persistent worker loops drain ready queues,
// check a share-nothing Runtime out of the engine's RuntimePool, execute
// the batch, and resolve the futures. Overload degrades by shedding: the
// queue is bounded, admission is deadline-aware (the latest-deadline
// request is evicted for a strictly more urgent arrival), and requests
// whose deadline has passed are dropped at admission or dispatch with a
// kExpired outcome instead of growing the tail unboundedly.
//
// Execution modes (ServerOptions.mode):
//   * kFunctional  — full functional simulation per item. Outputs are
//     bit-identical to a sequential Runtime::Execute of the same input:
//     each item is one Execute on a pooled Runtime, and Runtime reuse is
//     bit-invisible (DESIGN.md Sec. 4).
//   * kDevicePaced — hardware-in-the-loop emulation for load testing: the
//     per-item modeled accelerator latency is profiled once per registered
//     model (deterministic — simulated time is input-independent), and
//     workers pace request completions on that modeled time instead of
//     re-simulating every item. Each worker then behaves like one physical
//     accelerator instance, so wall-clock serving capacity scales with
//     workers and the bench measures the front door (queueing, batching,
//     shedding) rather than the host cost of the cycle simulator.
//
// Determinism: ServeTrace replays a fixed arrival trace through a single
// virtual-time drainer using the same DeadlineQueue policy object as the
// live path, so batch composition, shedding and per-item virtual latency
// are exactly reproducible — tests pin batch composition there, and the
// functional mode additionally pins outputs against sequential execution.
#ifndef HDNN_RUNTIME_SERVER_H_
#define HDNN_RUNTIME_SERVER_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
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

/// Per-request serving report, delivered through the Submit future (or the
/// ServeTrace result vector). Latencies are wall-clock seconds in the live
/// path and virtual seconds in ServeTrace.
struct ItemReport {
  ServeOutcome outcome = ServeOutcome::kRejected;
  double queue_seconds = 0;    ///< enqueue -> dispatch (or shed point)
  double service_seconds = 0;  ///< dispatch -> completion
  double total_seconds = 0;    ///< enqueue -> completion
  int batch_size = 0;          ///< executed items in this request's batch
  std::int64_t batch_seq = -1; ///< per-model dispatch sequence number
  double device_seconds = 0;   ///< modeled accelerator time for one item
  RunReport run;               ///< full report (+output) outside kDevicePaced
};

enum class ExecMode { kFunctional, kDevicePaced };

struct ServerOptions {
  int num_workers = 1;
  /// Size trigger: a queue with this many waiters dispatches immediately.
  int max_batch = 8;
  /// Timeout trigger: the oldest waiter is never delayed longer than this
  /// for the sake of batching (0 = dispatch as soon as a worker is free).
  double max_queue_delay_seconds = 0.001;
  /// Per-model queue bound (admission control).
  int max_queue_depth = 64;
  ExecMode mode = ExecMode::kFunctional;
  /// Verify the CRC32 integrity tag of every functional output at
  /// collection (Runtime::set_integrity_check), live and in ServeTrace. An
  /// IntegrityError is retried in place up to `max_execute_retries` times
  /// (inference is pure, so re-execution is side-effect free); a request
  /// still failing resolves with kFailed instead of serving corrupted data.
  /// Off by default — the disabled path is behavior-identical to the
  /// pre-integrity server.
  bool integrity_check = false;
  int max_execute_retries = 1;
};

/// Per-model serving counters (monotonic since registration).
struct ServerStats {
  std::int64_t submitted = 0;
  std::int64_t ok = 0;
  std::int64_t rejected = 0;
  std::int64_t expired = 0;
  std::int64_t batches = 0;
  std::int64_t batched_items = 0;
  std::int64_t retried = 0;  ///< in-place integrity re-executions
  std::int64_t failed = 0;   ///< kFailed resolutions (retries exhausted)

  double mean_batch_size() const {
    return batches > 0 ? static_cast<double>(batched_items) /
                             static_cast<double>(batches)
                       : 0;
  }
  double shed_rate() const {
    return submitted > 0 ? static_cast<double>(rejected + expired) /
                               static_cast<double>(submitted)
                         : 0;
  }
};

using ModelHandle = int;

class InferenceServer {
 public:
  /// Spawns `options.num_workers` persistent drainer threads. The engine
  /// supplies the compiled-program cache and the Runtime pool; it must
  /// outlive the server.
  InferenceServer(InferenceEngine& engine, const ServerOptions& options);
  ~InferenceServer();

  InferenceServer(const InferenceServer&) = delete;
  InferenceServer& operator=(const InferenceServer&) = delete;

  const ServerOptions& options() const { return options_; }

  /// Compiles (or cache-hits) the deployment, profiles its deterministic
  /// per-item modeled device latency, and creates its serving queue.
  /// Workers drain the registered models' queues round-robin.
  ModelHandle RegisterModel(const Model& model, const AccelConfig& cfg,
                            const std::vector<LayerMapping>& mapping,
                            const ModelWeightsQ& weights);

  /// Enqueues one request. `deadline_seconds` is a relative budget from
  /// now (kNoDeadline = none); a request that cannot start by its deadline
  /// resolves as kExpired, and one shed at admission as kRejected — shed
  /// futures resolve with the outcome set, they do not throw.
  std::future<ItemReport> Submit(ModelHandle handle,
                                 Tensor<std::int16_t> input,
                                 double deadline_seconds = kNoDeadline);

  /// Stops accepting work, drains every queue (remaining requests dispatch
  /// in arrival order, timeout triggers ignored) and joins the workers.
  /// Idempotent; the destructor calls it.
  void Stop();

  ServerStats stats(ModelHandle handle) const;
  /// Modeled accelerator seconds for one item of this model (the pacing
  /// quantum of kDevicePaced, profiled at registration).
  double device_seconds_per_item(ModelHandle handle) const;

  // --- deterministic mode -------------------------------------------------
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

  /// Replays `trace` (non-decreasing at_seconds) through a single-drainer
  /// virtual-time simulation of this server's batching/admission policy.
  /// Service time is the model's profiled device latency per item; in
  /// kFunctional mode every executed item also runs the real simulator, so
  /// outputs are bit-identical to sequential execution, and an integrity
  /// failure retries like the live path (an item out of retries resolves
  /// kFailed and the trace goes on). Ties between an arrival and a dispatch
  /// at the same instant dispatch first (the arrival joins the next batch).
  /// Does not touch the live queues or stats().
  TraceReport ServeTrace(ModelHandle handle,
                         std::span<const Tensor<std::int16_t>> inputs,
                         std::span<const TraceArrival> trace);

 private:
  struct Request {
    Tensor<std::int16_t> input;
    std::promise<ItemReport> promise;
  };
  using Queue = DeadlineQueue<Request>;

  struct ModelState {
    Model model;
    AccelConfig cfg;
    std::vector<LayerMapping> mapping;
    ModelWeightsQ weights;
    std::shared_ptr<const CompiledModel> compiled;
    double device_seconds = 0;

    /// Guards queue, batch_seq and stats. Lock order: sched_mu_ may be held
    /// when taking mu; never take sched_mu_ while holding mu.
    std::mutex mu;
    Queue queue;
    std::int64_t batch_seq = 0;
    ServerStats stats;

    ModelState(Queue q) : queue(std::move(q)) {}
  };

  double Now() const;
  void SleepUntil(double seconds) const;
  ModelState& state(ModelHandle handle) const;
  void WorkerLoop();
  /// Executes one dispatched batch outside all locks and resolves futures.
  void RunBatch(ModelState& ms, std::vector<Queue::Entry> batch,
                double dispatch_s, std::int64_t batch_seq);
  /// One functional execution with integrity self-healing: an
  /// IntegrityError means the output slab was corrupted between SAVE and
  /// collection — the result was never served, and inference is pure, so
  /// the item re-executes in place up to max_execute_retries times. Returns
  /// kOk with `run` filled, or kFailed once the retries run out; `retried`
  /// counts the re-executions.
  ServeOutcome ExecuteItem(const ModelState& ms, Runtime& runtime,
                           const Tensor<std::int16_t>& input, RunReport& run,
                           int& retried) const;
  static void ResolveShed(Queue::Entry entry, ServeOutcome outcome,
                          double now);

  InferenceEngine& engine_;
  ServerOptions options_;
  std::chrono::steady_clock::time_point epoch_;

  mutable std::mutex models_mu_;
  std::vector<std::unique_ptr<ModelState>> models_;

  /// Scheduler: workers sleep here until a queue may be ready (a Submit
  /// admission, a timeout trigger, or Stop).
  std::mutex sched_mu_;
  std::condition_variable sched_cv_;
  bool stop_ = false;
  std::size_t scan_start_ = 0;  ///< rotation origin of the drain scan

  std::vector<std::thread> workers_;
};

}  // namespace hdnn

#endif  // HDNN_RUNTIME_SERVER_H_
