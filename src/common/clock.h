// Clock abstraction for measuring operator compute/load costs.
//
// The HELIX executor charges every operator a cost in microseconds. Real
// applications run on SystemClock (wall time). Tests and optimizer
// benchmarks run on VirtualClock, where synthetic operators advance time
// explicitly — making hour-scale iteration traces reproducible in
// milliseconds and figure shapes deterministic.
#ifndef HELIX_COMMON_CLOCK_H_
#define HELIX_COMMON_CLOCK_H_

#include <chrono>
#include <cstdint>

namespace helix {

/// Monotonic time source in microseconds.
class Clock {
 public:
  virtual ~Clock() = default;

  /// Current time in microseconds since an arbitrary epoch.
  virtual int64_t NowMicros() const = 0;

  /// Advances the clock by `micros`. On a real clock this busy-waits is NOT
  /// performed; it is a no-op (real work advances real time). On a virtual
  /// clock, it moves time forward and is how synthetic operators charge
  /// their declared cost.
  virtual void AdvanceMicros(int64_t micros) = 0;

  /// True if AdvanceMicros actually moves time (virtual clocks).
  virtual bool is_virtual() const = 0;
};

/// Wall-clock time via std::chrono::steady_clock.
class SystemClock final : public Clock {
 public:
  int64_t NowMicros() const override {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }
  void AdvanceMicros(int64_t /*micros*/) override {}
  bool is_virtual() const override { return false; }

  /// Process-wide shared instance.
  static SystemClock* Default();
};

/// Deterministic virtual clock; time moves only via AdvanceMicros.
class VirtualClock final : public Clock {
 public:
  explicit VirtualClock(int64_t start_micros = 0) : now_(start_micros) {}

  int64_t NowMicros() const override { return now_; }
  void AdvanceMicros(int64_t micros) override {
    if (micros > 0) {
      now_ += micros;
    }
  }
  bool is_virtual() const override { return true; }

  void set_now(int64_t micros) { now_ = micros; }

 private:
  int64_t now_;
};

/// Scope timer: measures elapsed micros on a clock from construction to
/// each ElapsedMicros() call.
class ScopedTimer {
 public:
  explicit ScopedTimer(const Clock* clock)
      : clock_(clock), start_(clock->NowMicros()) {}

  int64_t ElapsedMicros() const { return clock_->NowMicros() - start_; }

 private:
  const Clock* clock_;
  int64_t start_;
};

}  // namespace helix

#endif  // HELIX_COMMON_CLOCK_H_
