// CPU placement for measured runs.

#ifndef PERFBENCH_CPU_H_
#define PERFBENCH_CPU_H_

#include <atomic>
#include <thread>
#include <vector>

namespace perfbench {

/// Confines the calling thread to CPUs [first, last]. Threads inherit their
/// creator's mask, which is how the server's threads are placed.
void PinCallingThread(int first, int last);

/// Time the hypervisor ran something else while this machine's CPUs
/// wanted to run, summed over CPUs (/proc/stat "steal"); 0 when unknown.
double StealSeconds();

/// One SCHED_IDLE thread per CPU in [first, last], spinning while the
/// object lives. The kernel runs them only when a CPU would otherwise go
/// idle, so they take no time from the measured threads; what they remove
/// is the idle state itself. On a virtual machine an idle vCPU halts, and
/// waking it waits for the hypervisor — milliseconds when the host is busy —
/// which otherwise dominates every latency percentile of a lightly loaded
/// server and makes it vary from run to run.
class IdleSpinners {
 public:
  IdleSpinners(int first, int last);
  ~IdleSpinners();
  IdleSpinners(const IdleSpinners&) = delete;
  IdleSpinners& operator=(const IdleSpinners&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;  // declared last: joined first
};

}  // namespace perfbench

#endif  // PERFBENCH_CPU_H_
