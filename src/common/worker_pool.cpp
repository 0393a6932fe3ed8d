#include "src/common/worker_pool.hpp"

#include <algorithm>

namespace qkd::common {
namespace {

// parallel_for is not reentrant; a nested call from inside a task runs its
// indices inline on the calling lane (see header).
thread_local bool t_inside_task = false;

}  // namespace

WorkerPool::WorkerPool(std::size_t lanes) {
  const std::size_t workers = lanes > 1 ? lanes - 1 : 0;
  lane_tasks_ = std::vector<LaneCounter>(workers + 1);
  threads_.reserve(workers);
  for (std::size_t t = 0; t < workers; ++t)
    threads_.emplace_back([this, t] { worker_main(t + 1); });
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& thread : threads_) thread.join();
}

std::size_t WorkerPool::default_lanes() {
  return std::max<std::size_t>(
      1, std::min<std::size_t>(std::thread::hardware_concurrency(), 8));
}

std::uint64_t WorkerPool::total_tasks() const {
  std::uint64_t total = 0;
  for (const LaneCounter& lane : lane_tasks_)
    total += lane.v.load(std::memory_order_relaxed);
  return total;
}

void WorkerPool::run_slice(const std::function<void(std::size_t)>& task,
                           std::size_t count, std::size_t lane) {
  for (;;) {
    std::size_t index;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (next_ >= count) return;
      index = next_++;
    }
    lane_tasks_[lane].v.fetch_add(1, std::memory_order_relaxed);
    try {
      t_inside_task = true;
      task(index);
      t_inside_task = false;
    } catch (...) {
      t_inside_task = false;
      std::lock_guard<std::mutex> lock(mu_);
      if (!error_) error_ = std::current_exception();
    }
  }
}

void WorkerPool::worker_main(std::size_t lane) {
  std::unique_lock<std::mutex> lock(mu_);
  std::uint64_t seen = 0;
  for (;;) {
    work_cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
    if (stop_) return;
    seen = generation_;
    const auto* task = task_;
    const std::size_t count = count_;
    lock.unlock();
    run_slice(*task, count, lane);
    lock.lock();
    if (--working_ == 0) done_cv_.notify_all();
  }
}

void WorkerPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& task) {
  if (count == 0) return;
  jobs_.fetch_add(1, std::memory_order_relaxed);
  // Single lane, a single index, or a nested call from inside a task: run
  // inline, in ascending index order (the deterministic sequential path).
  // A throw skips no other index here either.
  if (threads_.empty() || count == 1 || t_inside_task) {
    lane_tasks_[0].v.fetch_add(count, std::memory_order_relaxed);
    std::exception_ptr error;
    for (std::size_t i = 0; i < count; ++i) {
      try {
        task(i);
      } catch (...) {
        if (!error) error = std::current_exception();
      }
    }
    if (error) std::rethrow_exception(error);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    task_ = &task;
    count_ = count;
    next_ = 0;
    error_ = nullptr;
    working_ = threads_.size();
    ++generation_;
  }
  work_cv_.notify_all();
  run_slice(task, count, 0);  // the caller is a lane too
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [&] { return working_ == 0; });
  task_ = nullptr;
  if (error_) {
    auto error = error_;
    error_ = nullptr;
    std::rethrow_exception(error);
  }
}

}  // namespace qkd::common
