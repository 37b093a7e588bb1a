// The four workloads behind one interface, plus the samplers they share: the
// scheduler queue sampler and the host speed meter.
#pragma once

#include <sched.h>

#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "core/session_scheduler.hpp"

namespace perfbench {

/// One measured phase. `metrics` holds every end-to-end metric and every
/// per-layer metric the workload can give (per-layer timings only when the
/// phase was traced); `attempted`/`failed` count output checks.
struct PhaseResult {
  std::map<std::string, double> metrics;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> notes;  ///< human-readable lines for stdout
  /// Output marks that any phase over the same inputs must reproduce
  /// exactly, traced or not; empty when phases differ in their inputs.
  std::string marks;
};

/// A workload renders its inputs once on construction (not timed), then
/// runs measured phases. Throws on a harness error.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Measure for about `seconds`; `traced` turns on spans and per-layer
  /// timing around the library calls.
  virtual PhaseResult phase(double seconds, bool traced) = 0;
};

[[nodiscard]] std::unique_ptr<Workload> make_fleet_live(const RunConfig& cfg);
[[nodiscard]] std::unique_ptr<Workload> make_tcp_ingest(const RunConfig& cfg);
[[nodiscard]] std::unique_ptr<Workload> make_archive_backfill(
    const RunConfig& cfg);
[[nodiscard]] std::unique_ptr<Workload> make_species_survey(
    const RunConfig& cfg);

/// Samples a scheduler's total queue depth every 100 ms from its own
/// thread while enabled, for the Little's-law queue-wait estimate.
class QueueSampler {
 public:
  QueueSampler(const core::SessionScheduler& scheduler, bool enabled);
  ~QueueSampler();
  QueueSampler(const QueueSampler&) = delete;
  QueueSampler& operator=(const QueueSampler&) = delete;

  /// Stop sampling and join the thread (idempotent).
  void stop();

  /// sched.queue_wait_ms (mean depth / arrival rate) and
  /// sched.queue_depth_p99_samples; `samples_in` arrived over `wall_s`.
  void add_metrics(std::map<std::string, double>& m, std::size_t samples_in,
                   double wall_s) const;

 private:
  void loop();

  const core::SessionScheduler& scheduler_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::vector<double> depths_;
  std::thread thread_;  ///< declared last: started after the members above
};

/// Moves the calling thread round the CPUs it may run on, one step per
/// `next()`, and gives it back all of them on destruction. On a shared host
/// one core can run slower than the others for tens of seconds; a thread
/// that visits every core meets the host's average speed instead.
class CpuRoamer {
 public:
  CpuRoamer();
  ~CpuRoamer();
  CpuRoamer(const CpuRoamer&) = delete;
  CpuRoamer& operator=(const CpuRoamer&) = delete;

  void next();

 private:
  cpu_set_t allowed_{};
  bool have_allowed_ = false;
  std::vector<std::size_t> cpus_;
  std::size_t next_ = 0;
};

/// Host speed meter. Times a fixed reference kernel (half float FFT, half
/// dependent loads; written here so that no change to the library moves
/// it) on the cores a workload runs on, over the same interval. On a shared
/// host one core's speed can swing by 1.7x for tens of seconds; a
/// workload's time divided by the kernel's call time (the
/// `*_ref_per_audio_h` metrics) swings far less. perfbench/README.md,
/// "Host speed", has the measurements behind the design.
///
/// `sample()` times one call on the calling thread: the single-threaded
/// survey calls it between clips. `start_probe()` instead times one call
/// every 20 ms on a probe thread that moves to the next allowed CPU for each
/// call: the multi-threaded workloads spread their time over every core.
class HostSpeed {
 public:
  HostSpeed() = default;
  ~HostSpeed();
  HostSpeed(const HostSpeed&) = delete;
  HostSpeed& operator=(const HostSpeed&) = delete;

  /// Time one reference call on this thread; returns its wall seconds.
  double sample();
  void start_probe();
  /// Stop the probe and join its thread (idempotent).
  void stop();

  /// Median CPU seconds of one reference call; 0 before any call.
  [[nodiscard]] double ref_s() const;
  /// CPU seconds all reference calls took, to take out of process CPU.
  [[nodiscard]] double cpu_s() const;

 private:
  void probe_loop();

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::vector<double> call_cpu_s_;
  std::thread thread_;  ///< declared last: started after the members above
};

}  // namespace perfbench
