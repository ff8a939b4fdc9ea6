#include "serve/policy.h"

#include <algorithm>
#include <array>

#include "core/check.h"

namespace fdet::serve {

const char* error_class_name(ErrorClass cls) {
  switch (cls) {
    case ErrorClass::kTransient: return "transient";
    case ErrorClass::kResource: return "resource";
    case ErrorClass::kMalformed: return "malformed";
    case ErrorClass::kFatal: return "fatal";
    case ErrorClass::kRejected: return "rejected";
  }
  return "?";
}

double retry_backoff_ms(const RetryOptions& options, int retry,
                        core::Rng& rng) {
  FDET_CHECK(retry >= 1) << "retry numbers are 1-based, got " << retry;
  double backoff = options.base_backoff_ms;
  for (int i = 1; i < retry; ++i) {
    backoff *= options.multiplier;
  }
  backoff = std::min(backoff, options.max_backoff_ms);
  const double jitter = rng.uniform(-options.jitter, options.jitter);
  return std::max(0.0, backoff * (1.0 + jitter));
}

const char* breaker_state_name(BreakerState state) {
  switch (state) {
    case BreakerState::kClosed: return "closed";
    case BreakerState::kOpen: return "open";
    case BreakerState::kHalfOpen: return "half-open";
  }
  return "?";
}

void CircuitBreaker::on_frame() {
  if (state_ == BreakerState::kOpen && --open_frames_left_ <= 0) {
    state_ = BreakerState::kHalfOpen;
  }
}

void CircuitBreaker::record_success() {
  consecutive_failures_ = 0;
  state_ = BreakerState::kClosed;
}

void CircuitBreaker::record_failure() {
  if (state_ == BreakerState::kHalfOpen) {
    // The probe failed: straight back to open for another cooldown.
    state_ = BreakerState::kOpen;
    open_frames_left_ = options_.cooldown_frames;
    ++trips_;
    return;
  }
  if (++consecutive_failures_ >= options_.failure_threshold &&
      state_ == BreakerState::kClosed) {
    state_ = BreakerState::kOpen;
    open_frames_left_ = options_.cooldown_frames;
    consecutive_failures_ = 0;
    ++trips_;
  }
}

namespace {

/// Cumulative rungs: each sheds strictly more than the one above.
constexpr std::array<DegradationStep, 5> kLadder = {{
    {"full", 0, 0, false, false},
    {"shed-finest", 1, 0, false, false},
    {"shed-scales", 2, 1, false, false},
    {"serial-safe", 2, 1, true, false},
    {"shed-frames", 2, 1, true, true},
}};

/// Index of the serial-exec rung force_serial_fallback jumps to.
constexpr int kSerialLevel = 3;

}  // namespace

int DegradationLadder::max_level() {
  return static_cast<int>(kLadder.size()) - 1;
}

const DegradationStep& DegradationLadder::step_at(int level) {
  FDET_CHECK(level >= 0 && level <= max_level())
      << "degradation level " << level;
  return kLadder[static_cast<std::size_t>(level)];
}

detect::PipelineOptions pipeline_options_at(const detect::PipelineOptions& base,
                                            int level) {
  const DegradationStep& step = DegradationLadder::step_at(level);
  detect::PipelineOptions options = base;
  options.skip_finest_levels =
      base.skip_finest_levels + step.skip_finest_levels;
  options.min_neighbors = base.min_neighbors + step.min_neighbors_boost;
  if (step.serial_exec) {
    options.mode = vgpu::ExecMode::kSerial;
  }
  return options;
}

void DegradationLadder::observe(double latency_ms) {
  if (latency_ms > deadline_ms_) {
    good_streak_ = 0;
    move_to(level_ + 1, "deadline-miss");
    return;
  }
  if (latency_ms < options_.recover_fraction * deadline_ms_) {
    if (++good_streak_ >= options_.recover_after) {
      good_streak_ = 0;
      move_to(level_ - 1, "recovery-streak");
    }
  } else {
    good_streak_ = 0;  // in budget but too close to the edge to climb
  }
}

void DegradationLadder::apply(bool degrade, bool recover, const char* cause) {
  if (degrade) {
    good_streak_ = 0;
    move_to(level_ + 1, cause);
  } else if (recover) {
    good_streak_ = 0;
    move_to(level_ - 1, cause);
  }
}

void DegradationLadder::force_serial_fallback() {
  good_streak_ = 0;
  if (level_ < kSerialLevel) {
    move_to(kSerialLevel, "breaker-serial-fallback");
  }
}

void DegradationLadder::move_to(int level, const char* cause) {
  const int clamped = std::clamp(level, 0, max_level());
  if (clamped != level_) {
    level_ = clamped;
    ++shifts_;
    last_cause_ = cause;
  }
}

}  // namespace fdet::serve
