// Dynamic pipeline recomposition.
//
// "Pipelines can be recomposed dynamically by moving segments among hosts"
// (paper, Section 2). VirtualHost models a networked host as an execution
// site with its own worker threads and per-host accounting; PipelineManager
// deploys segments onto hosts and relocates them at runtime. Relocation
// waits for the segment to pause at a top-level scope boundary, then resumes
// it on the target host with all operator state intact.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_annotations.hpp"
#include "river/segment.hpp"

namespace dynriver::river {

/// An execution site for pipeline segments (simulated host).
class VirtualHost {
 public:
  explicit VirtualHost(std::string name) : name_(std::move(name)) {}
  VirtualHost(const VirtualHost&) = delete;
  VirtualHost& operator=(const VirtualHost&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }

  /// Total records processed by segments while deployed on this host.
  [[nodiscard]] std::size_t records_processed() const {
    const common::LockGuard lock(mu_);
    return records_processed_;
  }

  void account(const SegmentRunStats& stats) {
    const common::LockGuard lock(mu_);
    records_processed_ += stats.records_in;
  }

 private:
  std::string name_;
  mutable common::Mutex mu_;
  std::size_t records_processed_ DR_GUARDED_BY(mu_) = 0;
};

/// Deploys segments onto virtual hosts and supports live relocation.
class PipelineManager {
 public:
  PipelineManager() = default;
  ~PipelineManager();
  PipelineManager(const PipelineManager&) = delete;
  PipelineManager& operator=(const PipelineManager&) = delete;

  /// Register a host. Returns a stable reference.
  VirtualHost& add_host(std::string name);

  [[nodiscard]] VirtualHost& host(const std::string& name);

  /// Deploy a segment on a host and start executing it.
  void deploy(std::unique_ptr<Segment> segment, const std::string& host_name);

  /// Move a running segment to another host. Blocks until the segment has
  /// paused at a scope boundary and resumed on the target. Returns false if
  /// the segment already finished.
  bool relocate(const std::string& segment_name, const std::string& host_name);

  /// Wait for every segment to reach end-of-stream. Returns per-segment
  /// final stats keyed by segment name.
  std::map<std::string, SegmentRunStats> wait_all();

  /// Host currently executing a segment ("" if finished).
  [[nodiscard]] std::string location_of(const std::string& segment_name) const;

 private:
  struct Deployment {
    std::unique_ptr<Segment> segment;
    VirtualHost* host = nullptr;
    std::thread worker;
    SegmentRunStats last_stats;
    bool finished = false;
    bool paused = false;
  };

  void run_epoch_locked(Deployment& dep) DR_REQUIRES(mu_);

  mutable common::Mutex mu_;
  common::CondVar cv_;
  std::map<std::string, std::unique_ptr<VirtualHost>> hosts_
      DR_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Deployment>> deployments_
      DR_GUARDED_BY(mu_);
};

}  // namespace dynriver::river
