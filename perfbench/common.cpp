#include "common.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <condition_variable>
#include <mutex>

namespace perfbench {

double process_cpu_now() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                    usage.ru_stime.tv_usec);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::size_t usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0)
    return std::max(1, CPU_COUNT(&set));
  return 1;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + salt;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void run_alone(const std::function<void()>& fn) {
  xfa::ThreadPool& pool = xfa::shared_pool();
  const std::size_t workers = pool.size();
  std::mutex mutex;
  std::condition_variable changed;
  std::size_t parked = 0;
  bool released = false;
  for (std::size_t i = 0; i < workers; ++i)
    pool.submit([&] {
      std::unique_lock<std::mutex> lock(mutex);
      ++parked;
      changed.notify_all();
      changed.wait(lock, [&] { return released; });
      --parked;
      changed.notify_all();
    });
  {
    std::unique_lock<std::mutex> lock(mutex);
    changed.wait(lock, [&] { return parked == workers; });
  }
  fn();
  std::unique_lock<std::mutex> lock(mutex);
  released = true;
  changed.notify_all();
  changed.wait(lock, [&] { return parked == 0; });
}

void record_exec_stats(LayerSample& layer, const xfa::ExecStats& before,
                       double pass_wall_s, std::size_t threads) {
  const xfa::ExecStats after = xfa::shared_pool().stats();
  const double task_wall = after.task_wall_seconds - before.task_wall_seconds;
  layer.set("exec.tasks",
            static_cast<double>(after.tasks_executed - before.tasks_executed));
  layer.set("exec.task_wall_s", task_wall);
  layer.set("exec.task_cpu_s",
            after.task_cpu_seconds - before.task_cpu_seconds);
  layer.set("exec.busy_ratio",
            task_wall / (pass_wall_s * static_cast<double>(threads)));
}

}  // namespace perfbench
