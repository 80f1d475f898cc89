#include "cpu.h"

#include <pthread.h>
#include <sched.h>
#include <unistd.h>

#include <fstream>
#include <string>

namespace perfbench {

void PinCallingThread(int first, int last) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu = first; cpu <= last; ++cpu) CPU_SET(cpu, &set);
  (void)sched_setaffinity(0, sizeof(set), &set);
}

double StealSeconds() {
  // "cpu  user nice system idle iowait irq softirq steal ..."
  std::ifstream stat("/proc/stat");
  std::string label;
  double fields[8] = {};
  stat >> label;
  for (double& field : fields) stat >> field;
  if (!stat || label != "cpu") return 0.0;
  return fields[7] / static_cast<double>(sysconf(_SC_CLK_TCK));
}

IdleSpinners::IdleSpinners(int first, int last) {
  for (int cpu = first; cpu <= last; ++cpu) {
    threads_.emplace_back([this, cpu] {
      PinCallingThread(cpu, cpu);
      const sched_param param{};
      (void)pthread_setschedparam(pthread_self(), SCHED_IDLE, &param);
      while (!stop_.load(std::memory_order_relaxed)) {
      }
    });
  }
}

IdleSpinners::~IdleSpinners() {
  stop_.store(true, std::memory_order_relaxed);
  for (std::thread& thread : threads_) thread.join();
}

}  // namespace perfbench
