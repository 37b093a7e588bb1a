#include "river/segment.hpp"

#include "common/contracts.hpp"

namespace dynriver::river {

ChannelEmitter::ChannelEmitter(std::shared_ptr<RecordChannel> channel)
    : channel_(std::move(channel)) {
  DR_EXPECTS(channel_ != nullptr);
}

void ChannelEmitter::emit(Record rec) {
  if (!channel_->send(std::move(rec))) ++dropped_;
}

Segment::Segment(std::string name, Pipeline pipeline,
                 std::shared_ptr<RecordChannel> input,
                 std::shared_ptr<RecordChannel> output)
    : name_(std::move(name)),
      pipeline_(std::move(pipeline)),
      input_(std::move(input)),
      output_(std::move(output)) {
  DR_EXPECTS(input_ != nullptr);
  DR_EXPECTS(output_ != nullptr);
}

SegmentRunStats Segment::run() {
  SegmentRunStats stats;
  ChannelEmitter sink(output_);

  class CountingEmitter final : public Emitter {
   public:
    CountingEmitter(Emitter& inner, std::size_t& counter)
        : inner_(inner), counter_(counter) {}
    void emit(Record rec) override {
      ++counter_;
      inner_.emit(std::move(rec));
    }

   private:
    Emitter& inner_;
    std::size_t& counter_;
  } counting(sink, stats.records_out);

  Record rec;
  while (true) {
    // Pause requests are honoured only between top-level scopes so a
    // relocated segment never leaves a scope torn across hosts.
    if (pause_requested_.load(std::memory_order_relaxed) && tracker_.depth() == 0) {
      stats.cause = SegmentStopCause::kPausedForRelocation;
      return stats;
    }

    const RecvStatus status = input_->recv_for(rec, /*timeout_ms=*/20);
    switch (status) {
      case RecvStatus::kTimeout:
        continue;  // re-check pause request
      case RecvStatus::kRecord: {
        tracker_.observe(rec);
        ++stats.records_in;
        pipeline_.push(std::move(rec), counting);
        continue;
      }
      case RecvStatus::kClosed:
      case RecvStatus::kDisconnected: {
        const bool clean =
            (status == RecvStatus::kClosed) && !tracker_.any_open();
        for (auto& close_rec : tracker_.force_close_all()) {
          ++stats.bad_closes_emitted;
          pipeline_.push(std::move(close_rec), counting);
        }
        pipeline_.finish(counting);
        // An abnormal end still closes the output cleanly: the forced closes
        // above already left every scope well-formed downstream.
        output_->close();
        stats.cause = clean ? SegmentStopCause::kUpstreamClosed
                            : SegmentStopCause::kUpstreamDisconnected;
        return stats;
      }
    }
  }
}

}  // namespace dynriver::river
