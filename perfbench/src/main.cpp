// dynriver benchmark runner.
//
//   perfbench --workload <fleet_live|tcp_ingest|archive_backfill|species_survey>
//             --seed N --seconds S --trace 0|1 [--smoke]
//             [--work-dir DIR] [--out-dir DIR] [--git-describe TEXT]
//
// Renders the workload's inputs from the seed, measures for S seconds and
// checks every output against a reference. Untraced (--trace 0) it prints
// every end-to-end metric; traced (--trace 1) it runs the same work
// untraced for S seconds and then with spans and per-layer timing on for
// S/2, prints every per-layer metric, and writes the spans as trace-event
// JSON to the out directory. The last stdout line is the result object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {name: {value, unit}}}
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include <unistd.h>

#include "bench.hpp"
#include "dsp/simd.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json (the smoke test checks it).
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"cpu_ref_per_audio_h", "ref/h"},
    {"wall_ref_per_audio_h", "ref/h"},
    {"delivered_frac", "fraction"},
    {"accuracy", "fraction"},
    {"reduction", "fraction"},
    {"store_bytes_per_sample", "B/sample"},
};

// A per-layer metric a workload's layers do not reach prints as 0.
constexpr MetricSpec kPerLayer[] = {
    {"cpu_s_per_audio_h", "s/h"},
    {"throughput_xrt", "x"},
    {"host.ref_us", "us"},
    {"emit_p50_ms", "ms"},
    {"emit_p99_ms", "ms"},
    {"sched.push_ns_p50", "ns"},
    {"sched.push_ns_p99", "ns"},
    {"sched.rounds_per_audio_s", "1/s"},
    {"sched.chunks_per_round", "count"},
    {"sched.queue_wait_ms", "ms"},
    {"sched.queue_depth_p99_samples", "samples"},
    {"sched.lane_busy_frac", "fraction"},
    {"sched.speedup_4v1", "x"},
    {"session.ns_per_sample", "ns"},
    {"session.ensembles", "count"},
    {"store.append_us_p50", "us"},
    {"store.append_us_p99", "us"},
    {"replay.read_ns_per_sample", "ns"},
    {"replay.segments_opened", "count"},
    {"ingress.read_ns_per_sample", "ns"},
    {"ingress.records", "count"},
    {"gen.send_blocked_frac", "fraction"},
    {"extract.ns_per_sample", "ns"},
    {"features.us_per_pattern", "us"},
    {"features.patterns", "count"},
    {"meso.train_us_per_pattern", "us"},
    {"meso.classify_us_per_pattern", "us"},
    {"gen.lag_p99_ms", "ms"},
    {"trace.overhead_frac", "fraction"},
};

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out.push_back(' ');
    } else {
      out.push_back(c);
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// First line of `path` whose key (text before ':') equals `key`.
std::string proc_field(const char* path, const std::string& key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    const auto colon = line.find(':');
    if (colon == std::string::npos) continue;
    std::string k = line.substr(0, colon);
    while (!k.empty() && (k.back() == ' ' || k.back() == '\t')) k.pop_back();
    if (k == key) {
      std::size_t v = colon + 1;
      while (v < line.size() && line[v] == ' ') ++v;
      return line.substr(v);
    }
  }
  return "unknown";
}

std::string first_line(const char* path) {
  std::ifstream in(path);
  std::string line;
  if (!std::getline(in, line)) return "unreadable";
  return line;
}

/// Host CPU ticks (all, stolen) from the first line of /proc/stat; zeros
/// when unreadable.
std::pair<double, double> host_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double total = 0.0;
  double steal = 0.0;
  in >> cpu;
  for (int field = 0; field < 8 && in; ++field) {
    double v = 0.0;
    in >> v;
    total += v;
    if (field == 7) steal = v;
  }
  return {total, steal};
}

std::string provenance(const RunConfig& cfg, const std::string& git,
                       double steal_frac) {
  std::ostringstream o;
  o << "{\"workload\":" << json_string(cfg.workload)
    << ",\"seed\":" << cfg.seed << ",\"seconds\":" << json_number(cfg.seconds)
    << ",\"trace\":" << (cfg.trace ? 1 : 0) << ",\"lanes\":" << cfg.lanes
    << ",\"cpu_model\":" << json_string(proc_field("/proc/cpuinfo", "model name"))
    << ",\"nproc\":" << sysconf(_SC_NPROCESSORS_ONLN)
    << ",\"governor\":"
    << json_string(first_line(
           "/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor"))
    << ",\"compiler\":" << json_string(__VERSION__)
    << ",\"build_type\":" << json_string(PERFBENCH_BUILD_TYPE)
    << ",\"simd_backend\":" << json_string(dynriver::dsp::simd::backend())
    << ",\"git_describe\":" << json_string(git)
    << ",\"host_steal_frac\":" << json_number(steal_frac) << "}";
  return o.str();
}

int usage() {
  std::cerr << "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--smoke] [--work-dir DIR] [--out-dir DIR] "
               "[--git-describe TEXT]\n";
  return 2;
}

int run(int argc, char** argv) {
  RunConfig cfg;
  cfg.work_dir = ".bench_work";
  cfg.out_dir = ".bench_out";
  std::string git = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--workload") {
      cfg.workload = value();
    } else if (arg == "--seed") {
      cfg.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      cfg.seconds = std::stod(value());
    } else if (arg == "--trace") {
      cfg.trace = value() != "0";
    } else if (arg == "--smoke") {
      cfg.scale = Scale::smoke();
    } else if (arg == "--work-dir") {
      cfg.work_dir = value();
    } else if (arg == "--out-dir") {
      cfg.out_dir = value();
    } else if (arg == "--git-describe") {
      git = value();
    } else {
      return usage();
    }
  }
  if (!(cfg.seconds > 0.0)) return usage();

  std::unique_ptr<Workload> (*make)(const RunConfig&) = nullptr;
  if (cfg.workload == "fleet_live") make = make_fleet_live;
  if (cfg.workload == "tcp_ingest") make = make_tcp_ingest;
  if (cfg.workload == "archive_backfill") make = make_archive_backfill;
  if (cfg.workload == "species_survey") make = make_species_survey;
  if (make == nullptr) return usage();

  // Scratch inputs live in a per-process directory, removed at exit.
  cfg.work_dir /= cfg.workload + "-" + std::to_string(getpid());
  const ScopedDir work(cfg.work_dir);
  const auto ticks0 = host_ticks();

  const std::int64_t t_inputs = now_ns();
  const std::unique_ptr<Workload> workload = make(cfg);
  std::cout << "inputs rendered in "
            << static_cast<double>(now_ns() - t_inputs) * 1e-9 << " s\n";

  PhaseResult result;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  const MetricSpec* specs = kEndToEnd;
  std::size_t n_specs = std::size(kEndToEnd);
  if (!cfg.trace) {
    result = workload->phase(cfg.seconds, false);
    attempted = result.attempted;
    failed = result.failed;
  } else {
    // The untraced run, then the same work traced for half as long: the
    // difference is the overhead.
    const PhaseResult base = workload->phase(cfg.seconds, false);
    trace::enable(true);
    result = workload->phase(cfg.seconds / 2, true);
    trace::enable(false);
    attempted = base.attempted + result.attempted + 1;
    failed = base.failed + result.failed;
    // Tracing must not change what the system computes.
    if (base.marks != result.marks) ++failed;
    // Emission latencies are reported from the untraced part.
    result.metrics["emit_p50_ms"] = base.metrics.at("emit_p50_ms");
    result.metrics["emit_p99_ms"] = base.metrics.at("emit_p99_ms");
    result.metrics["trace.overhead_frac"] =
        result.metrics.at("cpu_ref_per_audio_h") /
            base.metrics.at("cpu_ref_per_audio_h") -
        1.0;
    for (const auto& note : base.notes) std::cout << "untraced " << note << "\n";
    specs = kPerLayer;
    n_specs = std::size(kPerLayer);
  }
  // Workloads that repeat passes record the peak after their first pass,
  // so the figure does not grow with the number of passes a run fits.
  result.metrics.try_emplace("peak_rss_mb", peak_rss_mb());
  // Share of the host's CPU time the hypervisor took away during the run.
  const auto ticks1 = host_ticks();
  const double elapsed_ticks = ticks1.first - ticks0.first;
  const std::string prov = provenance(
      cfg, git,
      elapsed_ticks > 0.0 ? (ticks1.second - ticks0.second) / elapsed_ticks
                          : 0.0);

  if (cfg.trace) {
    const fs::path trace_path =
        cfg.out_dir / ("trace-" + cfg.workload + "-seed" +
                       std::to_string(cfg.seed) + ".json");
    std::ostringstream meta;
    meta << "{\"provenance\":" << prov << ",\"spans_recorded\":"
         << trace::recorded() << ",\"spans_dropped\":" << trace::dropped()
         << "}";
    trace::write(trace_path, meta.str());
    std::cout << "trace: " << trace_path.string() << " ("
              << trace::recorded() << " spans, " << trace::dropped()
              << " past the cap)\n";
  }
  for (const auto& note : result.notes) std::cout << note << "\n";
  std::cout << "provenance " << prov << "\n";

  std::ostringstream json;
  json << "{\"correct\": " << (failed == 0 && attempted > 0 ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
  for (std::size_t i = 0; i < n_specs; ++i) {
    const MetricSpec& spec = specs[i];
    const auto it = result.metrics.find(spec.name);
    if (it == result.metrics.end() && !cfg.trace) {
      throw std::logic_error(std::string("workload did not measure ") +
                             spec.name);
    }
    const double v = it == result.metrics.end() ? 0.0 : it->second;
    json << (i == 0 ? "" : ", ") << json_string(spec.name)
         << ": {\"value\": " << json_number(v)
         << ", \"unit\": " << json_string(spec.unit) << "}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
