#include <array>
#include <chrono>
#include <cmath>
#include <numbers>
#include <numeric>

#include "workloads.hpp"

namespace perfbench {
namespace {

/// The host speed meter's reference kernel, in two halves of about equal
/// time: dense float arithmetic (the power spectrum of 64 Hann-windowed
/// 512-point frames of a fixed signal, by an iterative radix-2 FFT) and
/// dependent loads (2000 steps of a walk round a random 4 MiB cycle). A
/// slow core slows the two by different factors, and the pipeline, which
/// does both, by a factor between them. About 0.6 ms on a Xeon core of the
/// 2020s; returns a checksum so the compiler keeps the work.
float reference_kernel() {
  constexpr std::size_t kN = 512;
  constexpr std::size_t kLog2N = 9;
  constexpr std::size_t kFrames = 64;
  constexpr std::size_t kCycle = std::size_t{1} << 20;
  constexpr std::size_t kSteps = 2000;
  struct Tables {
    std::vector<float> signal;
    std::vector<std::uint32_t> cycle;  ///< cycle[i]: the walk's step after i
    std::array<float, kN> window{};
    std::array<float, kN / 2> cos{};
    std::array<float, kN / 2> sin{};
    std::array<std::size_t, kN> reversed{};
  };
  static const Tables t = [] {
    Tables tables;
    const auto two_pi = static_cast<float>(2.0 * std::numbers::pi);
    tables.signal.resize(kFrames * kN * 2);
    std::uint32_t x = 12345;
    for (std::size_t i = 0; i < tables.signal.size(); ++i) {
      x = x * 1664525U + 1013904223U;
      tables.signal[i] = static_cast<float>(x >> 8) * 1e-7F - 0.8F +
                         std::sin(static_cast<float>(i) * 0.05F);
    }
    for (std::size_t i = 0; i < kN; ++i) {
      const float phase = two_pi * static_cast<float>(i) / static_cast<float>(kN);
      tables.window[i] = 0.5F - 0.5F * std::cos(phase);
      if (i < kN / 2) {
        tables.cos[i] = std::cos(-phase);
        tables.sin[i] = std::sin(-phase);
      }
      std::size_t r = 0;
      for (std::size_t b = 0, v = i; b < kLog2N; ++b, v >>= 1) r = (r << 1) | (v & 1);
      tables.reversed[i] = r;
    }
    // Sattolo's shuffle: one cycle through every slot.
    tables.cycle.resize(kCycle);
    std::iota(tables.cycle.begin(), tables.cycle.end(), std::uint32_t{0});
    for (std::size_t i = kCycle - 1; i > 0; --i) {
      x = x * 1664525U + 1013904223U;
      std::swap(tables.cycle[i], tables.cycle[x % i]);
    }
    return tables;
  }();
  // Each call walks on from where the last one on this thread stopped, so
  // the walk does not settle into the caches.
  thread_local std::uint32_t at = 0;

  std::array<float, kN> re{};
  std::array<float, kN> im{};
  float sum = 0.0F;
  for (std::size_t frame = 0; frame < kFrames; ++frame) {
    const float* in = t.signal.data() + frame * kN * 2;
    for (std::size_t i = 0; i < kN; ++i) {
      re[t.reversed[i]] = in[i] * t.window[i];
      im[t.reversed[i]] = 0.0F;
    }
    for (std::size_t len = 2; len <= kN; len <<= 1) {
      const std::size_t half = len / 2;
      const std::size_t step = kN / len;
      for (std::size_t i = 0; i < kN; i += len) {
        for (std::size_t k = 0; k < half; ++k) {
          const float c = t.cos[k * step];
          const float s = t.sin[k * step];
          const std::size_t a = i + k;
          const std::size_t b = a + half;
          const float vr = re[b] * c - im[b] * s;
          const float vi = re[b] * s + im[b] * c;
          re[b] = re[a] - vr;
          im[b] = im[a] - vi;
          re[a] += vr;
          im[a] += vi;
        }
      }
    }
    for (std::size_t i = 0; i < kN / 2; ++i) sum += re[i] * re[i] + im[i] * im[i];
  }
  for (std::size_t i = 0; i < kSteps; ++i) at = t.cycle[at];
  return sum + static_cast<float>(at);
}

}  // namespace

QueueSampler::QueueSampler(const core::SessionScheduler& scheduler,
                           bool enabled)
    : scheduler_(scheduler) {
  if (enabled) thread_ = std::thread([this] { loop(); });
}

QueueSampler::~QueueSampler() { stop(); }

void QueueSampler::stop() {
  {
    const std::lock_guard lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void QueueSampler::loop() {
  std::unique_lock lk(mu_);
  while (!cv_.wait_for(lk, std::chrono::milliseconds(100),
                       [this] { return stop_; })) {
    lk.unlock();
    const auto depth =
        static_cast<double>(scheduler_.stats().total_queued_samples());
    lk.lock();
    depths_.push_back(depth);
  }
}

void QueueSampler::add_metrics(std::map<std::string, double>& m,
                               std::size_t samples_in, double wall_s) const {
  if (depths_.empty()) return;
  const double mean_depth =
      std::accumulate(depths_.begin(), depths_.end(), 0.0) /
      static_cast<double>(depths_.size());
  const double arrivals_per_ms =
      static_cast<double>(samples_in) / (wall_s * 1e3);
  m["sched.queue_wait_ms"] = mean_depth / arrivals_per_ms;
  m["sched.queue_depth_p99_samples"] = quantile(depths_, 0.99);
}

CpuRoamer::CpuRoamer() {
  CPU_ZERO(&allowed_);
  have_allowed_ = sched_getaffinity(0, sizeof allowed_, &allowed_) == 0;
  if (!have_allowed_) return;
  for (std::size_t c = 0; c < static_cast<std::size_t>(CPU_SETSIZE); ++c) {
    if (CPU_ISSET(c, &allowed_)) cpus_.push_back(c);
  }
}

CpuRoamer::~CpuRoamer() {
  // Best effort: a thread left pinned still runs correctly.
  if (have_allowed_) (void)sched_setaffinity(0, sizeof allowed_, &allowed_);
}

void CpuRoamer::next() {
  if (cpus_.empty()) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus_[next_++ % cpus_.size()], &one);
  // Best effort: unpinned, the thread runs wherever the kernel puts it.
  (void)sched_setaffinity(0, sizeof one, &one);
}

HostSpeed::~HostSpeed() { stop(); }

double HostSpeed::sample() {
  const std::int64_t t0 = now_ns();
  const double c0 = thread_cpu_s();
  volatile float keep = reference_kernel();
  (void)keep;
  const double cpu = thread_cpu_s() - c0;
  const double wall = static_cast<double>(now_ns() - t0) * 1e-9;
  const std::lock_guard lk(mu_);
  call_cpu_s_.push_back(cpu);
  return wall;
}

void HostSpeed::start_probe() {
  thread_ = std::thread([this] { probe_loop(); });
}

void HostSpeed::stop() {
  {
    const std::lock_guard lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

double HostSpeed::ref_s() const {
  const std::lock_guard lk(mu_);
  return median(call_cpu_s_);
}

double HostSpeed::cpu_s() const {
  const std::lock_guard lk(mu_);
  return std::accumulate(call_cpu_s_.begin(), call_cpu_s_.end(), 0.0);
}

void HostSpeed::probe_loop() {
  CpuRoamer roamer;
  std::unique_lock lk(mu_);
  // The first call comes at once, so even a short pass has a median.
  do {
    lk.unlock();
    roamer.next();
    (void)sample();
    lk.lock();
  } while (!cv_.wait_for(lk, std::chrono::milliseconds(20),
                         [this] { return stop_; }));
}

}  // namespace perfbench
