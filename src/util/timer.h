// Wall-clock timing for the benchmark harnesses and join statistics.

#ifndef SIMJ_UTIL_TIMER_H_
#define SIMJ_UTIL_TIMER_H_

#include <chrono>

namespace simj {

// Measures elapsed wall time since construction or the last Restart().
class WallTimer {
 public:
  WallTimer() : start_(Clock::now()) {}

  void Restart() { start_ = Clock::now(); }

  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace simj

#endif  // SIMJ_UTIL_TIMER_H_
