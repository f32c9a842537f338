#include "common/thread_pool.h"

#include <atomic>
#include <exception>

#include "common/check.h"

namespace heterog {

ThreadPool::ThreadPool(int threads, Mode mode) {
  if (mode == Mode::kInlineWhenSingle && threads <= 1) return;
  const int spawn = threads < 1 ? 1 : threads;
  workers_.reserve(static_cast<size_t>(spawn));
  for (int i = 0; i < spawn; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutting_down_ = true;
  }
  work_ready_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_ready_.wait(lock, [this] { return shutting_down_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // shutting down, queue drained
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

void ThreadPool::submit(std::function<void()> task) {
  check(!workers_.empty(),
        "ThreadPool::submit needs real workers (construct with Mode::kAlwaysSpawn)");
  {
    std::lock_guard<std::mutex> lock(mu_);
    tasks_.push(std::move(task));
  }
  work_ready_.notify_one();
}

void ThreadPool::parallel_for(size_t n, const std::function<void(size_t)>& body) {
  if (n == 0) return;
  if (workers_.empty() || n == 1) {
    for (size_t i = 0; i < n; ++i) body(i);
    return;
  }

  // Per-batch barrier state. Tasks pull indices from a shared counter so a
  // long task never strands queued short ones behind it.
  struct Batch {
    std::atomic<size_t> next{0};
    std::mutex mu;
    std::condition_variable done;
    size_t remaining;
    std::exception_ptr error;
    size_t error_index = 0;
  };
  auto batch = std::make_shared<Batch>();
  batch->remaining = n;

  auto run_one = [batch, &body, n]() {
    const size_t i = batch->next.fetch_add(1);
    if (i < n) {
      try {
        body(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(batch->mu);
        if (!batch->error || i < batch->error_index) {
          batch->error = std::current_exception();
          batch->error_index = i;
        }
      }
    }
    std::lock_guard<std::mutex> lock(batch->mu);
    if (--batch->remaining == 0) batch->done.notify_all();
  };

  {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = 0; i < n; ++i) tasks_.push(run_one);
  }
  work_ready_.notify_all();

  // Move the exception out under the lock: a worker may still release the
  // last reference to the batch, and the exception must not die with it on
  // that thread while this one rethrows it.
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(batch->mu);
    batch->done.wait(lock, [&] { return batch->remaining == 0; });
    error = std::move(batch->error);
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace heterog
