// Fixed-size worker pool for host-side parallelism (the DSE's candidate
// fan-out, dse/search.h).
//
// Deliberately minimal: a bounded set of workers draining one FIFO queue.
// Tasks are submitted as callables and observed through std::future, so
// callers keep normal exception propagation (a throwing task surfaces at
// future.get(), not in the worker).
#ifndef HDNN_COMMON_THREAD_POOL_H_
#define HDNN_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.h"

namespace hdnn {

class ThreadPool {
 public:
  explicit ThreadPool(int num_threads) {
    HDNN_CHECK(num_threads >= 1)
        << "thread pool needs at least one worker, got " << num_threads;
    workers_.reserve(static_cast<std::size_t>(num_threads));
    for (int i = 0; i < num_threads; ++i) {
      workers_.emplace_back([this] { RunTasks(); });
    }
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Drains nothing: queued-but-unstarted tasks still run before shutdown
  /// (workers only exit once the queue is empty).
  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stopping_ = true;
    }
    cv_.notify_all();
    for (std::thread& t : workers_) t.join();
  }

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Enqueues `fn` and returns a future for its result.
  template <typename F>
  auto Submit(F&& fn) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> result = task->get_future();
    {
      std::lock_guard<std::mutex> lock(mu_);
      HDNN_CHECK(!stopping_) << "Submit on a stopping thread pool";
      queue_.push([task] { (*task)(); });
    }
    cv_.notify_one();
    return result;
  }

 private:
  void RunTasks() {
    for (;;) {
      std::function<void()> task;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
        if (queue_.empty()) return;  // stopping_ and fully drained
        task = std::move(queue_.front());
        queue_.pop();
      }
      task();  // exceptions are captured by the packaged_task
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::queue<std::function<void()>> queue_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace hdnn

#endif  // HDNN_COMMON_THREAD_POOL_H_
